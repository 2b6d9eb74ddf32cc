"""The benchmark process under test: runs one workload and writes its
result record.

``run.py`` starts this script in a fresh process with a clean
environment (no ``MAYA_*`` variables, ``HOME`` in the run's scratch
directory, ``PYTHONPATH`` at the checkout's ``src``), so the in-process
workloads measure a process that imported only what they use, and
``peak_rss_mb`` is this process's own peak.

    python perfbench/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --run-dir DIR --out FILE --trace-out FILE
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import common  # noqa: E402
import layers  # noqa: E402

WORKLOADS = {
    "cold_start": "w_cold",
    "daemon_warm": "w_daemon",
    "modules_edit": "w_modules",
    "interp_run": "w_interp",
}


class Context:
    """What a workload needs from the command line and the run dir."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.run_dir = args.run_dir
        self.trace_out = args.trace_out
        self.recorder = common.SpanRecorder()
        #: A second group of traced ops whose layers the main ops do
        #: not reach (``daemon_warm`` replays its sources in process).
        self.replay_recorder = None
        #: Op wall times of the traced run, split by tracing on/off.
        self.traced_ms = []
        self.untraced_ms = []

    def path(self, *parts: str) -> str:
        return os.path.join(self.run_dir, *parts)


def finish_traced(ctx: Context, result: common.Result) -> None:
    """Turn the recorded spans into the ledger rows of a traced run."""
    ledgers = []
    for recorder in (ctx.recorder, ctx.replay_recorder):
        if recorder is None:
            continue
        group = recorder.ledgers()
        ledgers += group
        for span_name, value in common.layer_medians(group).items():
            metric = layers.SPAN_METRIC.get(span_name)
            if metric is not None:
                result.layer(metric, value, "ms")
    result.layer("ledger.ops", len(ledgers), "count")
    result.layer("ledger.op_wall_ms",
                 common.median([l.wall_ms for l in ledgers]), "ms")
    unattributed = common.median([l.unattributed_ms for l in ledgers])
    result.layer("ledger.unattributed_ms", unattributed, "ms")
    result.layer("ledger.unattributed_pct",
                 common.median([l.unattributed_pct for l in ledgers]), "%")
    over = [l for l in ledgers
            if l.unattributed_pct > common.LEDGER_BOUND_PCT]
    result.notes.append(
        f"ledger: {len(ledgers) - len(over)}/{len(ledgers)} traced ops "
        f"have layer self-times summing to their wall within "
        f"{common.LEDGER_BOUND_PCT:g}%")
    median_pct = result.layers["ledger.unattributed_pct"][0]
    if not ledgers or median_pct > common.LEDGER_BOUND_PCT:
        result.ledger_ok = False
        result.failures.append(
            f"ledger: median unattributed {median_pct:.2f}% of the op wall "
            f"over {len(ledgers)} traced ops exceeds the "
            f"{common.LEDGER_BOUND_PCT:g}% bound")
    traced = common.median(ctx.traced_ms)
    untraced = common.median(ctx.untraced_ms)
    result.layer("obs.trace_overhead_pct",
                 100.0 * (traced - untraced) / untraced if untraced else 0.0,
                 "%")
    result.notes.append(f"traced op p50 {traced:.3f} ms over "
                        f"{len(ctx.traced_ms)} ops; untraced "
                        f"{untraced:.3f} ms over {len(ctx.untraced_ms)}")
    if ctx.trace_out:
        ctx.recorder.dump(ctx.trace_out)
        if ctx.replay_recorder is not None:
            ctx.replay_recorder.dump(ctx.trace_out + ".replay")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    ctx = Context(args)
    module = importlib.import_module(WORKLOADS[args.workload])
    result = module.run(ctx)
    if ctx.trace:
        finish_traced(ctx, result)
        for name in layers.NAMES:
            result.layers.setdefault(name, (0.0, layers.UNITS[name]))
    record = {
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "ledger_ok": result.ledger_ok,
        "end_to_end": result.end_to_end(),
        "layers": result.layers,
        "notes": result.notes,
    }
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(record, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
