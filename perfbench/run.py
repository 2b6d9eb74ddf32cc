"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: ``cold_start``,
``daemon_warm``, ``modules_edit``, ``interp_run`` (see ``BENCHMARK.json``
for why each is there).  With ``--trace 0`` the last line of stdout is a
JSON object whose ``metrics`` are the end-to-end metrics; with
``--trace 1`` they are the per-layer ledger (``perfbench/layers.py``).
The lines before it are the same numbers for people, with each ratio's
base and the tail percentile's sample count.  ``correct`` is false when
any output was wrong, when a process was left behind, or, in a traced
run, when the median op's layer self-times miss its wall by more than
``common.LEDGER_BOUND_PCT``.

This process never imports the program.  It

* clears every ``MAYA_*`` variable and points ``HOME``,
  ``XDG_CACHE_HOME`` and the bytecode cache at a scratch directory made
  for this run under ``.perfbench/`` (removed at the end), so anything
  the program persists by default is reused within a run and never
  leaks into the next; string hashing is seeded from ``--seed``;
* starts ``worker.py`` in its own process group, as a child subreaper,
  so every process the workload starts (``mayac`` children, the daemon)
  is reaped here; a process left behind fails the run;
* exits non-zero without a result when the checkout has no program
  (``src/repro``) or the worker fails.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402

WORKLOADS = ("cold_start", "daemon_warm", "modules_edit", "interp_run")
END_TO_END = ("setup_s", "op_p50_ms", "op_tail_ms", "throughput_rps",
              "peak_rss_mb", "success_ratio", "clean_build_ms",
              "warm_build_ms")
#: The worker must finish well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 165.0
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt orphaned descendants, so they can be found and reaped."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def clean_env(checkout: str, run_dir: str, seed: int) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MAYA_")
           and key not in ("PYTHONSTARTUP", "PYTHONINSPECT",
                           "PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE")}
    home = os.path.join(run_dir, "home")
    env["HOME"] = home
    env["XDG_CACHE_HOME"] = os.path.join(home, ".cache")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(run_dir, "pycache")
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    env["TMPDIR"] = os.path.join(run_dir, "tmp")
    # String hashing follows the seed too, so a seed repeats a run's
    # set and dict iteration orders as well as its inputs.
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    for path in (env["XDG_CACHE_HOME"], env["TMPDIR"]):
        os.makedirs(path, exist_ok=True)
    return env


def reap_leftovers(group: int) -> bool:
    """Kill every process still in the worker's group and wait until
    each has ended (reaping those adopted here); True if any was left."""
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        return False
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pid = 0
        if pid:
            continue
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return True


def host_loop_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop: the host's speed at
    the time of the run.  It is printed, never reported as a metric, so
    that when every workload's times shift together between two sets of
    runs, a shift of the host can be told from a change of the program."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for k in range(200_000):
            total += k * k % 7
        times.append((time.perf_counter() - started) * 1000.0)
    return sorted(times)[repeats // 2]


def print_notes(record: dict, trace: bool) -> None:
    for note in record.get("notes", ()):
        print(note)
    for failure in record.get("failures", ()):
        print(f"FAILED: {failure}")
    if not trace:
        for name in END_TO_END:
            value, unit = record["end_to_end"][name]
            print(f"{name} = {value:.6g} {unit}")
        return
    for row in layers.ROWS:
        value, unit = record["layers"][row.name]
        print(f"{row.name} = {value:.6g} {unit}  "
              f"[moves {row.moves} on {row.on}; ~0 on {row.zero_on}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "repro",
                                       "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    run_dir = os.path.join(checkout, ".perfbench",
                           f"run-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(run_dir)
    trace_out = os.path.join(
        checkout, ".perfbench", "traces",
        f"{args.workload}-seed{args.seed}.jsonl") if args.trace else ""
    out_path = os.path.join(run_dir, "result.json")
    host_before = host_loop_ms()
    become_subreaper()
    try:
        worker = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--run-dir", run_dir, "--out", out_path,
             "--trace-out", trace_out],
            env=clean_env(checkout, run_dir, args.seed), cwd=checkout,
            stdin=subprocess.DEVNULL, start_new_session=True)
        try:
            code = worker.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
            code = "timeout"
        left = reap_leftovers(worker.pid)
        if code != 0 or not os.path.exists(out_path):
            print(f"perfbench: worker failed ({code})", file=sys.stderr)
            return 1
        with open(out_path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    print(f"host loop {host_before:.2f} ms before the run, "
          f"{host_loop_ms():.2f} ms after (lower is a faster host)")
    print_notes(record, bool(args.trace))
    if left:
        print("FAILED: the workload left processes behind")
    metrics = record["layers"] if args.trace else record["end_to_end"]
    wanted = layers.NAMES if args.trace else END_TO_END
    line = {
        "correct": record["failed"] == 0 and record["ledger_ok"]
        and not left,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
