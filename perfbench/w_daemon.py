"""``daemon_warm``: one ``MayaClient.compile`` request per op, closed loop
with ``nproc`` (at least two) client threads in this process, against a
``python -m repro.server --workers 1`` child.

One worker, not ``nproc``: the daemon's workers are threads sharing one
interpreter lock, so a second worker adds no compile capacity, only
lock hand-offs whose cost follows how the host schedules its CPUs (with
two workers on two vCPUs, the throughput of two sets of runs of the
same code differed by 31%).  With ``nproc`` clients the one worker's
queue is never empty, so ``throughput_rps`` is its service rate and
each request's wall includes real queueing.

Set-up starts the daemon, waits until it serves, and sends warm-up
requests that use every macro, so LALR tables are warm before timing.
Each client has its own request stream (``gen.RequestMix``): mostly
distinct sources of 1..5 macro-using methods; two requests in ten
repeat one of the client's earlier successful ones (artifact-cache hits)
and one in ten has a type error whose line the response must name.
Distinct successful sources are the *clean* samples.  Five times in the
window the clients pause, the daemon drains, and for 0.4 s recent
successful sources are replayed one at a time: those requests,
artifact-cache hits on an otherwise idle daemon, are the *warm*
samples.  (Under load a hit waits for a compiling worker to yield the
interpreter lock or not, so its latency has two modes in proportions
that drift from run to run; the idle replay measures the cache path
alone.  Its latency also depends on where the host happens to place the
client and daemon threads, which persists for a while, so it is sampled
in slices spread over the window rather than in one block.)  Paused
time is not load time: ``throughput_rps`` counts load requests over the
load seconds only.  A traced run does not pause.

A traced run alternates one-second slices of traced and untraced
requests (per request, the two clients' queueing would tie a request's
wait to whether it is traced) and splits each traced request, from the
client side, into transport (client wall minus the daemon's
``stats.total_ms``), queueing and admission (``total_ms`` minus
``compile_ms``) and compile.  It then
replays a sample of the sources in this process, through the compiler's
public phase calls, for the lexer/parse/check rows.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
import types

import common
import gen

REPLAY_SOURCES = 60
#: Seconds of the window for the one-at-a-time warm replay, taken in
#: ``PROBE_SLICES`` slices, each after a stretch of load.
WARM_PROBE_S = 2.0
PROBE_SLICES = 5
#: A traced run switches tracing on and off every this many seconds.
TRACE_SLICE_S = 1.0
#: Daemon worker threads (see the module docstring).
WORKERS = 1


def start_daemon(ctx, index, workers):
    address_file = ctx.path(f"daemon{index}.addr")
    log = open(ctx.path(f"daemon{index}.log"), "wb")
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--port-file", address_file, "--workers", str(workers)],
            stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
    finally:
        log.close()
    deadline = time.monotonic() + 90.0
    while time.monotonic() < deadline:
        if child.poll() is not None:
            raise RuntimeError(f"daemon exited with {child.returncode}")
        try:
            with open(address_file, "r", encoding="utf-8") as handle:
                address = handle.read().strip()
        except FileNotFoundError:
            address = ""
        if address:
            return child, address
        time.sleep(0.01)
    stop_daemon(child, None)
    raise RuntimeError("daemon did not start")


def stop_daemon(child, client):
    if client is not None:
        try:
            client.shutdown()
        except Exception:
            pass
    try:
        child.wait(timeout=20.0)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()


def response_ok(request, response) -> bool:
    status = response.get("status")
    if request.error_line is None:
        return status == "ok" and response.get("classes") == request.classes
    spans = [d.get("span") or "" for d in response.get("diagnostics", ())]
    return (status == "compile-error" and len(spans) == 1
            and f":{request.error_line}:" in spans[0])


def replay(ctx, result, requests):
    """The in-process replay behind the lexer/parse/check rows: the
    daemon's per-request isolation (a fresh session, the macro library),
    then the compile's public phase calls, each in a span."""
    from repro import MayaCompiler
    from repro.core.context import CompileContext
    from repro.core.drivers import parse_compilation_unit
    from repro.core.env import CompileEnv
    from repro.diag import CompileFailed, DiagnosticError
    from repro.lexer import stream_lex
    from repro.macros import install_macro_library

    recorder = common.SpanRecorder()
    tokens = []

    def compile_one(request, traced):
        with common.maybe_span(recorder, "core.setup", traced):
            compiler = MayaCompiler(CompileEnv.fresh_session())
            install_macro_library(compiler)
            unit_env = compiler.env.child()
            unit_env.imports = list(compiler.env.imports)
            context = CompileContext(unit_env)
        try:
            with common.maybe_span(recorder, "lexer", traced):
                lexed = stream_lex(request.source, request.filename)
            with common.maybe_span(recorder, "parse", traced):
                unit = parse_compilation_unit(context, lexed)
            with common.maybe_span(recorder, "check", traced):
                unit_env.imports = list(compiler.env.imports)
                compiler.compile_checked_unit(unit, request.filename,
                                              unit_env,
                                              source=request.source)
            ok = request.error_line is None
        except (CompileFailed, DiagnosticError):
            ok = request.error_line is not None
        result.check(ok, f"replay {request.filename}")
        return lexed

    for request in gen.warmup_requests(gen.make_rng("daemon_warm", ctx.seed)):
        compile_one(request, False)
    for request in requests:
        with recorder.span("op", recorder.new_op()):
            lexed = compile_one(request, True)
        tokens.append(common.count_tokens(lexed))
    ctx.replay_recorder = recorder
    result.layer("lexer.tokens", common.median(tokens), "count")


def run(ctx) -> common.Result:
    from repro.server.client import MayaClient

    result = common.Result()
    clients = max(2, os.cpu_count() or 1)

    def setup(index):
        child, address = start_daemon(ctx, index, WORKERS)
        client = MayaClient(address)
        for request in gen.warmup_requests(gen.make_rng("daemon_warm",
                                                        ctx.seed)):
            response = client.compile(request.source, request.filename)
            result.check(response_ok(request, response),
                         f"warm-up {request.filename}")
        return child, client, address

    child, client, address = common.repeated_setup(
        result, setup, discard=lambda kept: stop_daemon(*kept[:2]))
    try:
        before = client.metrics()
        mixes = [gen.RequestMix(gen.make_rng("daemon_warm",
                                             f"{ctx.seed}:{i}"), i)
                 for i in range(clients)]
        lock = threading.Lock()
        recorder = ctx.recorder
        sent = []
        handle_ms = []
        client_ms = []
        errors = []
        # Pausing the clients for a probe slice: no request is sent while
        # ``gate.paused``; the prober waits until none is in flight.
        gate = types.SimpleNamespace(paused=False, stop=False, inflight=0,
                                     cond=threading.Condition())

        def one_request(own, mix, traced):
            request = mix.next()
            with lock:
                sent.append(request)
            started = time.monotonic()
            op = recorder.new_op() if traced else None
            with common.maybe_span(recorder, "op", traced, op), \
                    common.maybe_span(recorder, "server.client", traced):
                call_start = time.monotonic()
                response = own.compile(request.source, request.filename)
                call_end = time.monotonic()
                if traced:
                    split(recorder, response, call_start, call_end)
            # Requests a worker compiled (artifact hits carry no
            # total_ms): client wall and daemon-side total.
            total = (response.get("stats") or {}).get("total_ms")
            if traced and isinstance(total, (int, float)):
                client_ms.append((call_end - call_start) * 1000.0)
                handle_ms.append(float(total))
            wall_ms = (time.monotonic() - started) * 1000.0
            with lock:
                result.op_ms.append(wall_ms)
                if ctx.trace:
                    (ctx.traced_ms if traced
                     else ctx.untraced_ms).append(wall_ms)
                if not request.repeat and request.error_line is None:
                    result.clean_ms.append(wall_ms)
                result.check(response_ok(request, response),
                             f"{request.filename}: "
                             f"{response.get('status')}")

        def client_loop(mix):
            own = MayaClient(address)
            while True:
                with gate.cond:
                    while gate.paused and not gate.stop:
                        gate.cond.wait()
                    if gate.stop:
                        return
                    gate.inflight += 1
                traced = ctx.trace and int(
                    (time.monotonic() - began) / TRACE_SLICE_S) % 2 == 1
                try:
                    one_request(own, mix, traced)
                finally:
                    with gate.cond:
                        gate.inflight -= 1
                        gate.cond.notify_all()

        def guarded(mix):
            try:
                client_loop(mix)
            except Exception as error:  # surfaced after join
                errors.append(error)

        threads = [threading.Thread(target=guarded, args=(mix,),
                                    name=f"client{mix.client}")
                   for mix in mixes]
        probe_rng = gen.make_rng("daemon_warm", f"{ctx.seed}:warm")
        slices = 0 if ctx.trace else PROBE_SLICES
        stretch = (ctx.seconds - (WARM_PROBE_S if slices else 0.0)) \
            / max(1, slices)
        last = max(1, slices) - 1
        load_s = 0.0
        began = resumed = time.monotonic()
        for thread in threads:
            thread.start()
        for index in range(last + 1):
            time.sleep(max(0.0, resumed + stretch - time.monotonic()))
            with gate.cond:
                gate.paused = True
                gate.stop = index == last
                gate.cond.notify_all()
                while gate.inflight:
                    gate.cond.wait()
            load_s += time.monotonic() - resumed
            if gate.stop:
                for thread in threads:
                    thread.join()
                after = client.metrics()
            if slices:
                probe(client, probe_rng, sent, result,
                      time.monotonic() + WARM_PROBE_S / slices)
            with gate.cond:
                gate.paused = False
                gate.cond.notify_all()
            resumed = time.monotonic()
        if errors:
            raise errors[0]
        result.window_s = load_s
        result.ops_done = len(result.op_ms)
        result.peak_rss_mb = common.rss_mb_of_pid(child.pid)
    finally:
        stop_daemon(child, client)
    result.notes.append(f"daemon_warm: {clients} clients, {WORKERS} worker, "
                        f"{len(result.op_ms)} requests, "
                        f"{sum(m.distinct for m in mixes)} distinct "
                        f"sources")

    if ctx.trace:
        delta = common.counter_delta(before, after)
        common.compile_counters(result, delta, len(result.op_ms))
        hits = common.family_sum(
            delta, "maya_server_artifact_cache_events_total", event="hit")
        misses = common.family_sum(
            delta, "maya_server_artifact_cache_events_total", event="miss")
        result.ratio("server.artifact_hit_ratio", hits, hits + misses)
        result.layer("server.client_ms", common.median(client_ms), "ms")
        result.layer("server.handle_ms", common.median(handle_ms), "ms")
        distinct = [r for r in sent if not r.repeat][:REPLAY_SOURCES]
        replay(ctx, result, distinct)
    return result


def probe(client, rng, sent, result, until):
    """Replay recent successful sources one at a time until ``until``:
    artifact-cache hits on an idle daemon, the *warm* samples."""
    # Recent sources only: the artifact cache keeps the latest 256.
    done = [r for r in sent if not r.repeat and r.error_line is None][-64:]
    while done and time.monotonic() < until:
        request = rng.choice(done)
        started = time.monotonic()
        response = client.compile(request.source, request.filename)
        result.warm_ms.append((time.monotonic() - started) * 1000.0)
        result.check(response_ok(request, response),
                     f"warm replay {request.filename}")


def split(recorder, response, call_start, call_end):
    """Place the daemon's reported durations inside the client span:
    ``server.handle`` (``stats.total_ms``) and, within it,
    ``server.compile`` (``stats.compile_ms``), centred, so self-times
    come out as transport, queue/admission and compile."""
    stats = response.get("stats") or {}
    total = stats.get("total_ms")
    if not isinstance(total, (int, float)):
        return
    span = recorder.current()
    op = span.op
    middle = (call_start + call_end) / 2.0
    half = min(float(total) / 2000.0, (call_end - call_start) / 2.0)
    handle = recorder.add("server.handle", middle - half, middle + half,
                          op, span.id)
    compile_ms = stats.get("compile_ms")
    if isinstance(compile_ms, (int, float)):
        inner = min(float(compile_ms) / 2000.0, half)
        recorder.add("server.compile", middle - inner, middle + inner, op,
                     handle)
