"""``interp_run``: one ``Interpreter(program, backend="pycode")
.run_static(...)`` per op, closed loop with one caller, in process.

Set-up compiles one program per kernel (``gen.kernels``) and runs each
once, so the pycode plans exist and ops time generated-code run time
only.  A cycle is two rounds of every kernel in a seeded order, then a
clean/warm round: each kernel compiled afresh (untimed), its first run
timed as *clean* (code generation included), its second as *warm*.
"""

from __future__ import annotations

import time

import common
import gen

ROUNDS_PER_CYCLE = 2


def _compiler(kernel):
    from repro import MayaCompiler
    from repro.macros import install_macro_library
    from repro.multijava import install_multijava

    compiler = MayaCompiler()
    install_macro_library(compiler)
    if kernel.multijava:
        install_multijava(compiler)
    return compiler


def compile_kernel(kernel):
    return _compiler(kernel).compile(kernel.source, f"{kernel.name}.maya")


def run(ctx) -> common.Result:
    from repro.interp import Interpreter
    from repro.obs.metrics import REGISTRY

    result = common.Result()
    rng = gen.make_rng("interp_run", ctx.seed)
    kernels = gen.kernels(rng)

    def run_once(kernel, program):
        value = Interpreter(program, backend="pycode").run_static(
            kernel.class_name, kernel.method)
        return result.check(value == kernel.expected,
                            f"{kernel.name}: {str(value)[:60]}")

    def setup(index):
        programs = [compile_kernel(kernel) for kernel in kernels]
        for kernel, program in zip(kernels, programs):
            run_once(kernel, program)
        return programs

    programs = common.repeated_setup(result, setup)
    pairs = list(zip(kernels, programs))
    recorder = ctx.recorder
    traced_delta = {}
    codegen_delta = {}
    ops = 0
    rounds = 0
    began = time.monotonic()
    while time.monotonic() - began < ctx.seconds:
        cycle = rounds // ROUNDS_PER_CYCLE
        for position in range(ROUNDS_PER_CYCLE):
            rng.shuffle(pairs)
            # Traced runs alternate whole rounds, so traced and untraced
            # ops run the same kernel mix; which position in the cycle is
            # traced alternates too, because the round right after the
            # fresh compiles below runs slower than the next.
            rounds += 1
            traced = ctx.trace and (position + cycle) % 2 == 1
            for kernel, program in pairs:
                ops += 1
                before = REGISTRY.snapshot() if traced else None
                started = time.perf_counter()
                op = recorder.new_op() if traced else None
                with common.maybe_span(recorder, "op", traced, op), \
                        common.maybe_span(recorder, "interp", traced):
                    value = Interpreter(program, backend="pycode").run_static(
                        kernel.class_name, kernel.method)
                wall_ms = (time.perf_counter() - started) * 1000.0
                if traced:
                    common.counter_delta(before, REGISTRY.snapshot(),
                                         traced_delta)
                result.op_ms.append(wall_ms)
                if ctx.trace:
                    (ctx.traced_ms if traced else ctx.untraced_ms).append(
                        wall_ms)
                result.check(value == kernel.expected,
                             f"{kernel.name}: {str(value)[:60]}")
        for kernel, _ in pairs:
            fresh = compile_kernel(kernel)
            before = REGISTRY.snapshot()
            for sink in (result.clean_ms, result.warm_ms):
                started = time.perf_counter()
                value = Interpreter(fresh, backend="pycode").run_static(
                    kernel.class_name, kernel.method)
                sink.append((time.perf_counter() - started) * 1000.0)
                result.check(value == kernel.expected,
                             f"{kernel.name} fresh: {str(value)[:60]}")
                ops += 1
            common.counter_delta(before, REGISTRY.snapshot(), codegen_delta)
    result.window_s = time.monotonic() - began
    result.ops_done = ops
    result.peak_rss_mb = common.rss_mb_of_self()

    if ctx.trace:
        traced_ops = len(ctx.traced_ms)
        common.interp_counters(result, traced_delta, traced_ops)
        fresh_programs = max(1, len(result.clean_ms))
        result.layer("interp.codegen_compiled", common.family_sum(
            codegen_delta, "maya_interp_codegen_total", outcome="compiled")
            / fresh_programs, "count")
        result.layer("interp.codegen_fallback", common.family_sum(
            codegen_delta, "maya_interp_codegen_total", outcome="fallback")
            / fresh_programs, "count")
        result.layer("interp.codegen_ms", common.median(result.clean_ms)
                     - common.median(result.warm_ms), "ms")
    return result
