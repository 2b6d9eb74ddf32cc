"""``modules_edit``: one incremental ``ModuleBuilder.build`` after a
seeded edit, closed loop with one caller, in process, default ``jobs``.

The project (``gen.Project``: 24 library modules in four layers plus
``app.Main``, ForEach exported along import edges) lives on disk with an
on-disk module cache.  Each op is what a ``mayac --run`` module build
does after the import: a fresh compiler with the macro library, a fresh
builder, ``build(["app.Main"], need_bodies=True)``.  Untimed, every
build's recompiled set must equal the generator's cone of the edit, and
``Main.main`` must print what the generator computed.

A cycle edits one module of each layer (leaf to top, in seeded order),
then times one *clean* build into an empty cache and one *warm*
no-change build by a fresh builder over that cache (all modules
restored from their checked ASTs).  Every timed build starts from a
collected heap, as a build in a fresh ``mayac`` process does.
"""

from __future__ import annotations

import gc
import os
import shutil
import time

import common
import gen

OPTIONS = {"use": [], "no_macros": False, "multijava": False,
           "provenance": False}
ROOTS = ["app.Main"]


class Wrappers:
    """Benchmark-side spans around the public entry points the builder
    calls, installed only for traced ops."""

    def __init__(self, recorder):
        import repro.core.compiler as compiler_mod
        from repro.modules.cache import ModuleCache
        from repro.modules.graph import ModuleGraph

        self.recorder = recorder
        #: The token trees lexed during the current op.
        self.lexed = []
        compiler_cls = compiler_mod.MayaCompiler
        self.patches = [
            (ModuleGraph, "discover", self._classmethod(
                ModuleGraph.__dict__["discover"], "modules.graph")),
            (ModuleCache, "load", self._wrap(ModuleCache.load,
                                             "modules.cache_load")),
            (ModuleCache, "store", self._wrap(ModuleCache.store,
                                              "modules.cache_store")),
            (compiler_mod, "stream_lex", self._lexer(compiler_mod.stream_lex)),
            (compiler_mod, "parse_compilation_unit", self._wrap(
                compiler_mod.parse_compilation_unit, "parse")),
            (compiler_cls, "compile_unit", self._wrap(
                compiler_cls.compile_unit, "check")),
            (compiler_cls, "compile_checked_unit", self._wrap(
                compiler_cls.compile_checked_unit, "check")),
        ]
        self.saved = [(owner, name, owner.__dict__[name])
                      for owner, name, _ in self.patches]

    def _wrap(self, function, span_name):
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            with recorder.span(span_name):
                return function(*args, **kwargs)
        return wrapper

    def _classmethod(self, descriptor, span_name):
        function = descriptor.__func__
        recorder = self.recorder

        def wrapper(cls, *args, **kwargs):
            with recorder.span(span_name):
                return function(cls, *args, **kwargs)
        return classmethod(wrapper)

    def _lexer(self, function):
        recorder = self.recorder
        lexed = self.lexed

        def wrapper(*args, **kwargs):
            with recorder.span("lexer"):
                tokens = function(*args, **kwargs)
            lexed.append(tokens)
            return tokens
        return wrapper

    def __enter__(self):
        for owner, name, replacement in self.patches:
            setattr(owner, name, replacement)
        return self

    def __exit__(self, *exc):
        for owner, name, original in self.saved:
            setattr(owner, name, original)


class ModulesRun:
    def __init__(self, ctx, result):
        from repro import MayaCompiler
        from repro.interp import Interpreter
        from repro.macros import install_macro_library
        from repro.modules import FileSystemSources, ModuleBuilder

        self._compiler = MayaCompiler
        self._install = install_macro_library
        self._sources = FileSystemSources
        self._builder = ModuleBuilder
        self._interpreter = Interpreter
        self.ctx = ctx
        self.result = result
        self.rng = gen.make_rng("modules_edit", ctx.seed)
        self.project = None
        self.root = None

    def write_project(self, index):
        self.project = gen.Project(self.rng)
        self.root = self.ctx.path(f"project{index}")
        for name in self.project.modules():
            self.write(name)

    def write(self, name):
        path = os.path.join(self.root, self.project.path_of(name))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(self.project.source(name))

    def build(self, cache_dir, recorder=None):
        """One timed build, in spans when ``recorder`` is given; returns
        ``(ms, BuildResult)``."""
        traced = recorder is not None
        # A user's build runs in a fresh ``mayac`` process; here the
        # garbage of earlier builds and of the untimed checks would be
        # collected inside whichever later build crossed the collector's
        # threshold, and which builds those are shifts from run to run.
        gc.collect()
        started = time.perf_counter()
        op = recorder.new_op() if traced else None
        with common.maybe_span(recorder, "op", traced, op):
            with common.maybe_span(recorder, "core.setup", traced):
                compiler = self._compiler()
                self._install(compiler)
                builder = self._builder(self._sources([self.root]),
                                        cache_dir=cache_dir,
                                        options=OPTIONS, env=compiler.env)
            with common.maybe_span(recorder, "modules.build", traced):
                built = builder.build(ROOTS, need_bodies=True)
        return (time.perf_counter() - started) * 1000.0, built

    def verify(self, built, expected_recompiled, what):
        """Untimed: the recompiled set and the program's output."""
        interp = self._interpreter(built.program)
        interp.run_static("Main")
        recompiled = sorted(built.recompiled)
        ok = (recompiled == sorted(expected_recompiled)
              and list(interp.output) == self.project.expected_stdout())
        return self.result.check(
            ok, f"{what}: recompiled {recompiled[:4]}..., "
                f"stdout {list(interp.output)[:2]}")


def cache_walk(cache_dir):
    entries = 0
    size = 0
    for name in os.listdir(cache_dir):
        path = os.path.join(cache_dir, name)
        if os.path.isfile(path):
            entries += 1
            size += os.path.getsize(path)
    return entries, size


def run(ctx) -> common.Result:
    from repro.modules.cache import ModuleCache
    from repro.obs.metrics import REGISTRY

    result = common.Result()
    mods = ModulesRun(ctx, result)

    def setup(index):
        mods.write_project(index)
        cache = ctx.path(f"cache{index}")
        _, built = mods.build(cache)
        mods.verify(built, mods.project.modules(), "set-up build")
        return cache

    cache = common.repeated_setup(result, setup,
                                  discard=lambda old: shutil.rmtree(old))
    wrappers = Wrappers(ctx.recorder) if ctx.trace else None
    layers_order = list(range(mods.project.layers))
    per_op = {"recompiled": [], "reused": [], "deep_restored": [],
              "deep_fallback": [], "cache_read_ms": [], "entries": [],
              "bytes": [], "tokens": []}
    traced_delta = {}
    ops = 0
    cycles = 0
    began = time.monotonic()
    while time.monotonic() - began < ctx.seconds:
        mods.rng.shuffle(layers_order)
        # Traced runs alternate whole cycles, so traced and untraced ops
        # see the same edit mix.
        traced = ctx.trace and cycles % 2 == 1
        for layer in layers_order:
            name = mods.project.edit(mods.rng, layer)
            mods.write(name)
            ops += 1
            if traced:
                before = REGISTRY.snapshot()
                wrappers.lexed.clear()
                with wrappers:
                    wall_ms, built = mods.build(cache, ctx.recorder)
                delta = common.counter_delta(before, REGISTRY.snapshot(),
                                             traced_delta)
                per_op["tokens"].append(sum(
                    common.count_tokens(t) for t in wrappers.lexed))
                per_op["recompiled"].append(len(built.recompiled))
                per_op["reused"].append(len(built.reused))
                per_op["deep_restored"].append(common.family_sum(
                    delta, "maya_modules_deep_restored_total"))
                per_op["deep_fallback"].append(common.family_sum(
                    delta, "maya_modules_deep_fallback_total"))
                reader = ModuleCache(cache)
                started = time.perf_counter()
                for module, info in built.graph.modules.items():
                    reader.load(module, info.key)
                per_op["cache_read_ms"].append(
                    (time.perf_counter() - started) * 1000.0)
                entries, size = cache_walk(cache)
                per_op["entries"].append(entries)
                per_op["bytes"].append(size)
                ctx.traced_ms.append(wall_ms)
            else:
                wall_ms, built = mods.build(cache)
                if ctx.trace:
                    ctx.untraced_ms.append(wall_ms)
            result.op_ms.append(wall_ms)
            mods.verify(built, mods.project.cone(name), f"edit {name}")
        clean_cache = ctx.path(f"clean{cycles}")
        wall_ms, built = mods.build(clean_cache)
        result.clean_ms.append(wall_ms)
        mods.verify(built, mods.project.modules(), "clean build")
        wall_ms, built = mods.build(clean_cache)
        result.warm_ms.append(wall_ms)
        mods.verify(built, [], "warm build")
        shutil.rmtree(clean_cache)
        ops += 2
        cycles += 1
    result.window_s = time.monotonic() - began
    result.ops_done = ops
    result.peak_rss_mb = common.rss_mb_of_self()
    result.notes.append(f"modules_edit: {cycles} cycles, "
                        f"{len(mods.project.modules())} modules")

    if ctx.trace:
        traced_ops = len(ctx.traced_ms)
        common.compile_counters(result, traced_delta, traced_ops)
        for metric, key, unit in (
                ("modules.recompiled", "recompiled", "count"),
                ("modules.reused", "reused", "count"),
                ("modules.deep_restored", "deep_restored", "count"),
                ("modules.deep_fallback", "deep_fallback", "count"),
                ("modules.cache_read_ms", "cache_read_ms", "ms"),
                ("modules.cache_entries", "entries", "count"),
                ("modules.cache_bytes", "bytes", "bytes"),
                ("lexer.tokens", "tokens", "count")):
            result.layer(metric, common.median(per_op[key]), unit)
    return result
