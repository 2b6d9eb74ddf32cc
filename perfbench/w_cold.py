"""``cold_start``: one fresh ``python -m repro.mayac FILE --run CLASS``
process per op, default flags and backend, closed loop with one client.

A cycle runs one new program of every extension stratum
(``gen.COLD_STRATA``, evenly weighted, seeded order); their wall times
are the ops behind ``op_p50_ms``.  Each cycle first runs two ForEach
programs through ``mayac``'s own opt-in on-disk table cache
(``--table-cache`` in a directory new to the cycle): the *clean* op
finds it empty and writes the tables, the *warm* op, a different program
over the same grammar, reads them back.

Traced runs (at least one cycle) run ``cold_traced.py`` instead of
``mayac``, which makes the same public calls inside spans, and skip the
table-cache ops.  Each program runs twice, back to back and in
alternating order: once through the traced driver and once through the
same driver with its spans off, so ``obs.trace_overhead_pct`` compares
one driver with itself on the same programs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import common
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED = os.path.join(HERE, "cold_traced.py")


def spawn(argv, out_path):
    """Run one child to completion; ``(wall_s, exit code, peak RSS MB,
    start, end)`` with monotonic stamps around spawn and reap."""
    with open(out_path, "wb") as out:
        started = time.monotonic()
        child = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                 stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        ended = time.monotonic()
    child.returncode = os.waitstatus_to_exitcode(status)
    return (ended - started, child.returncode, usage.ru_maxrss / 1024.0,
            started, ended)


class ColdRun:
    def __init__(self, ctx, result):
        self.ctx = ctx
        self.result = result
        self.rng = gen.make_rng("cold_start", ctx.seed)
        self.programs = 0
        self.ops = 0
        self.before_after = []
        self.tokens = []
        self.sizes = []

    def write(self, uses):
        program = gen.cold_program(self.rng, self.programs, uses)
        self.programs += 1
        path = self.ctx.path("src", f"{program.class_name}.maya")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(program.source)
        return program, path

    def op(self, program, path, driver, table_cache=None):
        """One timed process over ``program``: ``driver`` is ``mayac``,
        ``traced`` or ``untraced``.  Returns its wall ms."""
        self.ops += 1
        out_path = self.ctx.path("out.txt")
        if driver == "mayac":
            argv = [sys.executable, "-m", "repro.mayac", path,
                    "--run", program.class_name]
            if table_cache:
                argv += ["--table-cache", table_cache]
        else:
            argv = [sys.executable, TRACED,
                    *(["--no-spans"] if driver == "untraced" else []),
                    path, program.class_name, *program.uses]
        wall, code, rss, started, ended = spawn(argv, out_path)
        with open(out_path, "r", encoding="utf-8", errors="replace") as got:
            text = got.read()
        wall_ms = wall * 1000.0
        self.result.peak_rss_mb = max(self.result.peak_rss_mb, rss)
        if driver == "mayac":
            stdout = text.splitlines()
            self.result.check(code == 0 and stdout == program.stdout,
                              f"{path}: exit {code}, stdout {stdout[:3]}")
            return wall_ms
        try:
            record = json.loads(text.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.result.check(False, f"{path}: driver output {text[:200]!r}")
            return wall_ms
        self.result.check(code == 0 and record["stdout"] == program.stdout,
                          f"{path}: driver stdout {record['stdout'][:3]}")
        if driver == "untraced":
            self.ctx.untraced_ms.append(wall_ms)
            return wall_ms
        self.ctx.traced_ms.append(wall_ms)
        recorder = self.ctx.recorder
        op = recorder.new_op()
        root = recorder.add("op", started, ended, op)
        recorder.add("startup.process", started, record["started"], op, root)
        recorder.add("startup.process", record["finished"], ended, op, root)
        for name, start, end in record["spans"]:
            recorder.add(name, start, end, op, root)
        self.before_after.append((record["before"], record["after"]))
        self.tokens.append(record["tokens"])
        self.sizes.append((record["states"], record["productions"]))
        return wall_ms


def run(ctx) -> common.Result:
    result = common.Result()
    cold = ColdRun(ctx, result)

    def setup(index):
        # A fresh process importing the compiler: fills the run's
        # bytecode cache, as a user's first command would.
        code = spawn([sys.executable, TRACED], ctx.path("setup.txt"))[1]
        if code != 0:
            raise RuntimeError("cannot import repro.mayac in a child")

    # Each set-up is one short process, so take more of them.
    common.repeated_setup(result, setup, repeats=9)

    began = time.monotonic()
    cycles = 0

    def more():
        elapsed = time.monotonic() - began
        return elapsed < ctx.seconds or (ctx.trace and cycles < 1)

    while more():
        if not ctx.trace:
            cache = ctx.path("tables", f"cycle{cycles}")
            for sink in (result.clean_ms, result.warm_ms):
                program = cold.write((gen.FOREACH,))
                sink.append(cold.op(*program, "mayac", cache))
        strata = list(gen.COLD_STRATA)
        cold.rng.shuffle(strata)
        for uses in strata:
            if not more() and not ctx.trace:
                break
            program = cold.write(uses)
            if not ctx.trace:
                result.op_ms.append(cold.op(*program, "mayac"))
                continue
            pair = ["traced", "untraced"]
            if cold.ops % 4:
                pair.reverse()
            for driver in pair:
                result.op_ms.append(cold.op(*program, driver))
        cycles += 1
    result.window_s = time.monotonic() - began
    result.ops_done = cold.ops
    result.notes.append(f"cold_start: {cold.ops} processes in {cycles} "
                        f"cycles; {len(result.op_ms)} default-flag ops, "
                        f"{len(result.clean_ms)} clean and "
                        f"{len(result.warm_ms)} warm table-cache ops")

    if ctx.trace:
        delta = {}
        for before, after in cold.before_after:
            common.counter_delta(before, after, delta)
        traced_ops = len(cold.before_after)
        common.compile_counters(result, delta, traced_ops)
        common.interp_counters(result, delta, traced_ops)
        if cold.tokens:
            result.layer("lexer.tokens", common.median(cold.tokens), "count")
            result.layer("lalr.states",
                         common.median([s for s, _ in cold.sizes]), "count")
            result.layer("lalr.productions",
                         common.median([p for _, p in cold.sizes]), "count")
    return result
