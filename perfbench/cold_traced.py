"""The traced stand-in for one cold ``mayac FILE --run CLASS`` process.

It makes the public calls ``mayac`` makes, in order, each inside a
benchmark-side span: ``import repro.mayac`` -> ``CompileEnv.tables()``
-> ``CompileEnv.use(x).tables()`` for the program's extension chain ->
``stream_lex`` -> ``parse_compilation_unit`` -> ``compile_checked_unit``
-> ``Interpreter.run_static``.  The tables are built before compiling so
the compile finds them in the in-memory cache and LALR time is not
hidden inside parsing or checking.  The benchmark's own work inside the
process (counter snapshots, token counting, encoding the record) is the
``bench`` span, so every part of the process between start and exit
belongs to some span.

    python perfbench/cold_traced.py [--no-spans] FILE CLASS [USE ...]

Prints one JSON object: the spans (``time.monotonic`` stamps, which are
comparable across processes on one host), the program's stdout, table
sizes and counter deltas.  ``--no-spans`` makes the same calls but
records and prints only the stdout: the untraced twin that the tracing
overhead is measured against.  With no file it only times the import.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

SPANS = []


class span:
    def __init__(self, name):
        self.name = name

    def __enter__(self):
        self.start = time.monotonic()

    def __exit__(self, *exc):
        SPANS.append((self.name, self.start, time.monotonic()))


def main(argv):
    traced = not (argv and argv[0] == "--no-spans")
    if not traced:
        argv = argv[1:]
    with span("startup.import"):
        import repro.mayac  # noqa: F401
        from repro import MayaCompiler
        from repro.core.context import CompileContext
        from repro.core.drivers import parse_compilation_unit
        from repro.interp import Interpreter
        from repro.lexer import stream_lex
        from repro.macros import install_macro_library
        from repro.obs.metrics import REGISTRY
    if not argv:
        return {}
    path, class_name, uses = argv[0], argv[1], argv[2:]
    with span("core.setup"):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        compiler = MayaCompiler()
        install_macro_library(compiler)
    if traced:
        with span("bench"):
            before = REGISTRY.snapshot()
    with span("lalr.base"):
        tables = compiler.env.tables()
    env = compiler.env
    for name in uses:
        with span("lalr.extend"):
            env = env.use(name)
            tables = env.tables()
    with span("core.setup"):
        unit_env = compiler.env.child()
        unit_env.imports = list(compiler.env.imports)
        ctx = CompileContext(unit_env)
    with span("lexer"):
        tokens = stream_lex(source, path)
    with span("parse"):
        unit = parse_compilation_unit(ctx, tokens)
    with span("check"):
        # parse_compilation_unit recorded the imports on the env already;
        # compile_checked_unit records them again.
        unit_env.imports = list(compiler.env.imports)
        compiler.compile_checked_unit(unit, path, unit_env, source=source)
    with span("interp"):
        interp = Interpreter(compiler.program)
        interp.run_static(class_name)
    if not traced:
        return {"stdout": list(interp.output)}
    with span("bench"):
        from common import count_tokens

        record = {
            "stdout": list(interp.output),
            "tokens": count_tokens(tokens),
            "states": len(tables.action),
            "productions": len(tables.grammar.productions),
            "before": before,
            "after": REGISTRY.snapshot(),
        }
    return record


if __name__ == "__main__":
    record = main(sys.argv[1:])
    with span("bench"):
        body = "".join(f"{json.dumps(key)}: {json.dumps(value)}, "
                       for key, value in record.items())
    spans = json.dumps(SPANS)
    # The stamps go in last, so only writing them out and the process
    # exit fall after ``finished``.
    sys.stdout.write(f'{{{body}"spans": {spans}, "started": {STARTED!r}, '
                     f'"finished": {time.monotonic()!r}}}\n')
    sys.stdout.flush()
