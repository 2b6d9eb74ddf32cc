"""Shared pieces of the benchmark: statistics, the span recorder, counter
deltas, and the result record.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The per-op layer self-times must add up to the traced op wall within
#: this share of it; the rest is ``ledger.unattributed_ms``.
LEDGER_BOUND_PCT = 5.0


# -- statistics ---------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``: the value is the order
    statistic with exactly ten larger samples.  Below eleven samples no
    percentile qualifies and the maximum is reported as p100."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0, count
    rank = count - 11
    return ordered[rank], 100.0 * (rank + 1) / count, count


# -- spans --------------------------------------------------------------------

class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op")

    def __init__(self, span_id: int, name: str, start: float, end: float,
                 parent: Optional[int], op: int):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op}


class SpanRecorder:
    """Benchmark-side spans around calls into the program's layers.

    Spans are kept in memory (one list, appended under a lock so client
    threads can share a recorder) and written out by :meth:`dump` when
    the run ends.  Each thread has its own open-span stack, so a span's
    parent is the innermost span open on the same thread.  An op's spans
    share its op id; the op's root span is the one named ``op``."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._next_op = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_op(self) -> int:
        with self._lock:
            self._next_op += 1
            return self._next_op

    def add(self, name: str, start: float, end: float, op: int,
            parent: Optional[int] = None) -> int:
        """Record a span timed elsewhere (another process, a server)."""
        with self._lock:
            self._next_id += 1
            span = Span(self._next_id, name, start, end, parent, op)
            self.spans.append(span)
        return span.id

    def span(self, name: str, op: Optional[int] = None):
        return _OpenSpan(self, name, op)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict()) + "\n")

    def ledgers(self) -> List["Ledger"]:
        by_op: Dict[int, List[Span]] = {}
        for span in self.spans:
            by_op.setdefault(span.op, []).append(span)
        return [Ledger(spans) for _, spans in sorted(by_op.items())]


def maybe_span(recorder: SpanRecorder, name: str, traced: bool,
               op: Optional[int] = None):
    """A span when the op is traced, else nothing at all."""
    return recorder.span(name, op) if traced else contextlib.nullcontext()


class _OpenSpan:
    __slots__ = ("recorder", "name", "op", "span")

    def __init__(self, recorder: SpanRecorder, name: str, op: Optional[int]):
        self.recorder = recorder
        self.name = name
        self.op = op

    def __enter__(self) -> "_OpenSpan":
        recorder = self.recorder
        stack = recorder._stack()
        parent = stack[-1] if stack else None
        op = self.op if self.op is not None \
            else (parent.op if parent is not None else 0)
        with recorder._lock:
            recorder._next_id += 1
            span_id = recorder._next_id
        self.span = Span(span_id, self.name, 0.0, 0.0,
                         parent.id if parent is not None else None, op)
        stack.append(self.span)
        self.span.start = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        self.span.end = time.monotonic()
        self.recorder._stack().pop()
        with self.recorder._lock:
            self.recorder.spans.append(self.span)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda c: c.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = max(0.0, span.end - span.start - covered)
    return out


class Ledger:
    """One traced op: its wall time, each layer's self-time, and the
    unattributed remainder (the root span's own self-time)."""

    def __init__(self, spans: List[Span]):
        own = self_times(spans)
        roots = [s for s in spans if s.parent is None]
        root = next((s for s in roots if s.name == "op"), roots[0])
        self.wall_ms = (root.end - root.start) * 1000.0
        self.layers: Dict[str, float] = {}
        for span in spans:
            if span is root:
                continue
            self.layers[span.name] = (self.layers.get(span.name, 0.0)
                                      + own[span.id] * 1000.0)
        self.unattributed_ms = own[root.id] * 1000.0

    @property
    def unattributed_pct(self) -> float:
        return 100.0 * self.unattributed_ms / self.wall_ms \
            if self.wall_ms else 0.0


def layer_medians(ledgers: Sequence[Ledger]) -> Dict[str, float]:
    """Per-op median self-time of each layer (ops without it count 0)."""
    names = sorted({name for ledger in ledgers for name in ledger.layers})
    return {name: median([ledger.layers.get(name, 0.0)
                          for ledger in ledgers]) for name in names}


def count_tokens(tokens) -> int:
    """Tokens in a stream-lexer tree, delimiter trees counted once each."""
    total = 0
    stack = list(tokens)
    while stack:
        token = stack.pop()
        total += 1
        if token.children is not None:
            stack.extend(token.children)
    return total


# -- counters -----------------------------------------------------------------

def _counter_values(snapshot: dict) -> Dict[Tuple[str, Tuple], float]:
    out: Dict[Tuple[str, Tuple], float] = {}
    for family in snapshot.get("families", ()):
        if family.get("kind") != "counter":
            continue
        for sample in family.get("samples", ()):
            labels = tuple(sorted(sample.get("labels", {}).items()))
            out[(family["name"], labels)] = float(sample.get("value", 0))
    return out


def counter_delta(before: dict, after: dict,
                  total: Optional[dict] = None) -> Dict[Tuple[str, Tuple],
                                                         float]:
    """The counter changes between two ``maya.metrics/1`` registry
    snapshots, keyed by family name and sorted label items; also added
    into ``total`` when one is given."""
    old = _counter_values(before)
    delta = {key: value - old.get(key, 0.0)
             for key, value in _counter_values(after).items()
             if value != old.get(key, 0.0)}
    if total is not None:
        for key, value in delta.items():
            total[key] = total.get(key, 0.0) + value
    return delta


def family_sum(delta: dict, family: str, **labels) -> float:
    """Sum a family's deltas over the samples matching ``labels``."""
    total = 0.0
    for (name, items), value in delta.items():
        if name != family:
            continue
        got = dict(items)
        if all(got.get(k) == v for k, v in labels.items()):
            total += value
    return total


def cache_ratio(delta: dict, cache: str) -> Tuple[float, float]:
    """``(hits, lookups)`` of one ``maya_cache_events_total`` cache."""
    hits = family_sum(delta, "maya_cache_events_total", cache=cache,
                      event="hit")
    misses = family_sum(delta, "maya_cache_events_total", cache=cache,
                        event="miss")
    return hits, hits + misses


def compile_counters(result: "Result", delta: dict, ops: int) -> None:
    """Mayan dispatch, template and table-cache rows from counter deltas
    (ratios over the whole traced window, reductions per op)."""
    result.layer("dispatch.reductions",
                 family_sum(delta, "maya_dispatch_reductions_total")
                 / max(1, ops), "count")
    for metric, cache in (("dispatch.plans_hit_ratio", "dispatch.plans"),
                          ("dispatch.orders_hit_ratio", "dispatch.orders"),
                          ("templates.compiled_hit_ratio",
                           "templates.compiled"),
                          ("lalr.tables_hit_ratio", "lalr.tables")):
        result.ratio(metric, *cache_ratio(delta, cache))


def interp_counters(result: "Result", delta: dict, ops: int) -> None:
    """Interpreter work per op, inline-cache ratio and deopts."""
    ops = max(1, ops)
    result.layer("interp.statements",
                 family_sum(delta, "maya_interp_ops_total", op="statements")
                 / ops, "count")
    result.layer("interp.calls",
                 family_sum(delta, "maya_interp_ops_total",
                            op="method_calls") / ops, "count")
    hits = family_sum(delta, "maya_interp_ic_events_total", event="hit")
    result.ratio("interp.ic_hit_ratio", hits,
                 family_sum(delta, "maya_interp_ic_events_total"))
    result.layer("interp.deopts",
                 family_sum(delta, "maya_interp_codegen_deopts_total") / ops,
                 "count")


# -- the result record ------------------------------------------------------

class Result:
    """What a workload run measured, before it becomes the JSON line."""

    def __init__(self):
        self.op_ms: List[float] = []
        self.clean_ms: List[float] = []
        self.warm_ms: List[float] = []
        self.setup_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.window_s = 0.0
        self.ops_done = 0
        self.peak_rss_mb = 0.0
        #: Per-layer metrics of a traced run: name -> (value, unit).
        self.layers: Dict[str, Tuple[float, str]] = {}
        #: False when a traced run's layers do not add up to its ops.
        self.ledger_ok = True
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a wrong output is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)
        return ok

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (float(value), unit)

    def ratio(self, name: str, hits: float, lookups: float) -> None:
        """A hit ratio with its base: ``name``, ``*_hits``, ``*_lookups``."""
        stem = name[: -len("_hit_ratio")]
        value = hits / lookups if lookups else 0.0
        self.layer(name, value, "ratio")
        self.layer(stem + "_hits", hits, "count")
        self.layer(stem + "_lookups", lookups, "count")
        self.notes.append(f"{name} {value:.4f} ({hits:g}/{lookups:g})")

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        value, pct, count = tail(self.op_ms)
        self.notes.append(f"op_tail_ms is p{pct:.2f} of {count} ops "
                          f"(10 samples beyond it)")
        attempted = max(1, self.attempted)
        self.notes.append(f"fail_ratio {self.failed / attempted:.4f} "
                          f"({self.failed}/{self.attempted}); reported as "
                          f"success_ratio, which is never 0")
        return {
            "setup_s": (median(self.setup_s), "s"),
            "op_p50_ms": (median(self.op_ms), "ms"),
            "op_tail_ms": (value, "ms"),
            "throughput_rps": (self.ops_done / self.window_s
                               if self.window_s else 0.0, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "success_ratio": ((attempted - self.failed) / attempted,
                              "ratio"),
            "clean_build_ms": (median(self.clean_ms), "ms"),
            "warm_build_ms": (median(self.warm_ms), "ms"),
        }


#: Set-up runs this many times per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def repeated_setup(result: Result, make, discard=None,
                   repeats: int = SETUP_REPEATS):
    """Run ``make(i)`` ``repeats`` times, timing each into
    ``result.setup_s``; keep the last value, hand earlier ones to
    ``discard``."""
    kept = None
    for index in range(repeats):
        started = time.perf_counter()
        value = make(index)
        result.setup_s.append(time.perf_counter() - started)
        if kept is not None and discard is not None:
            discard(kept)
        kept = value
    return kept


def rss_mb_of_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb_of_pid(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, from /proc."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
