"""The per-layer ledger: every metric a traced run reports, its unit, and
the end-to-end metric and workload it should move.

Layers are the program's modules: ``startup`` (process start and
``import repro``), ``lalr`` (table generation), ``lexer``, ``parse``,
``check`` (shape + lazy-body parse/expand + type check, which includes
Mayan dispatch and template expansion), ``interp``, ``modules`` and
``server``.  A traced run of any workload reports every row; a layer the
workload does not exercise reads 0, which is the prediction in the last
column.
"""

from __future__ import annotations

from typing import List, NamedTuple


class Row(NamedTuple):
    name: str
    unit: str
    moves: str
    on: str
    zero_on: str


_ALL = "all"
_E2E = "op_p50_ms"

ROWS: List[Row] = [
    # process start-up and the shared compiler set-up
    Row("startup.import_ms", "ms", _E2E, "cold_start", "all others"),
    Row("startup.process_ms", "ms", _E2E, "cold_start", "all others"),
    Row("core.setup_ms", "ms", _E2E, "cold_start, modules_edit",
        "interp_run"),
    # LALR table generation
    Row("lalr.base_ms", "ms", "op_p50_ms; setup_s", "cold_start; daemon_warm",
        "daemon_warm op_p50_ms, interp_run"),
    Row("lalr.extend_ms", "ms", "op_p50_ms; setup_s",
        "cold_start; daemon_warm", "daemon_warm op_p50_ms, interp_run"),
    Row("lalr.states", "count", "op_p50_ms", "cold_start", "interp_run"),
    Row("lalr.productions", "count", "op_p50_ms", "cold_start", "interp_run"),
    Row("lalr.tables_hit_ratio", "ratio", "op_tail_ms", "daemon_warm",
        "interp_run"),
    Row("lalr.tables_hits", "count", "op_tail_ms", "daemon_warm",
        "interp_run"),
    Row("lalr.tables_lookups", "count", "op_tail_ms", "daemon_warm",
        "interp_run"),
    # the front end
    Row("lexer.ms", "ms", "op_p50_ms, throughput_rps",
        "daemon_warm, modules_edit", "interp_run"),
    Row("lexer.tokens", "count", "op_p50_ms, throughput_rps",
        "daemon_warm, modules_edit", "interp_run"),
    Row("parse.ms", "ms", "op_p50_ms, throughput_rps",
        "daemon_warm, modules_edit", "interp_run"),
    Row("check.ms", "ms", "op_p50_ms, throughput_rps",
        "daemon_warm, modules_edit", "interp_run"),
    # Mayan dispatch and templates
    Row("dispatch.reductions", "count", "op_tail_ms, peak_rss_mb",
        "daemon_warm", "interp_run"),
    Row("dispatch.plans_hit_ratio", "ratio", "op_tail_ms, peak_rss_mb",
        "daemon_warm", "interp_run"),
    Row("dispatch.plans_hits", "count", "op_tail_ms, peak_rss_mb",
        "daemon_warm", "interp_run"),
    Row("dispatch.plans_lookups", "count", "op_tail_ms, peak_rss_mb",
        "daemon_warm", "interp_run"),
    Row("dispatch.orders_hit_ratio", "ratio", "op_tail_ms, peak_rss_mb",
        "daemon_warm", "interp_run"),
    Row("dispatch.orders_hits", "count", "op_tail_ms, peak_rss_mb",
        "daemon_warm", "interp_run"),
    Row("dispatch.orders_lookups", "count", "op_tail_ms, peak_rss_mb",
        "daemon_warm", "interp_run"),
    Row("templates.compiled_hit_ratio", "ratio", "op_tail_ms, peak_rss_mb",
        "daemon_warm", "interp_run"),
    Row("templates.compiled_hits", "count", "op_tail_ms, peak_rss_mb",
        "daemon_warm", "interp_run"),
    Row("templates.compiled_lookups", "count", "op_tail_ms, peak_rss_mb",
        "daemon_warm", "interp_run"),
    # the compile service
    Row("server.client_ms", "ms", "op_p50_ms, throughput_rps", "daemon_warm",
        "all in-process workloads"),
    Row("server.transport_ms", "ms", "op_p50_ms, throughput_rps",
        "daemon_warm", "all in-process workloads"),
    Row("server.handle_ms", "ms", "op_p50_ms, throughput_rps", "daemon_warm",
        "all in-process workloads"),
    Row("server.queue_ms", "ms", "op_p50_ms, throughput_rps", "daemon_warm",
        "all in-process workloads"),
    Row("server.compile_ms", "ms", "op_p50_ms, throughput_rps",
        "daemon_warm", "all in-process workloads"),
    Row("server.artifact_hit_ratio", "ratio", "op_p50_ms, throughput_rps",
        "daemon_warm", "all in-process workloads"),
    Row("server.artifact_hits", "count", "op_p50_ms, throughput_rps",
        "daemon_warm", "all in-process workloads"),
    Row("server.artifact_lookups", "count", "op_p50_ms, throughput_rps",
        "daemon_warm", "all in-process workloads"),
    # the module builder
    Row("modules.graph_ms", "ms", "op_p50_ms, clean_build_ms, warm_build_ms",
        "modules_edit", "daemon_warm, interp_run"),
    Row("modules.build_ms", "ms", "op_p50_ms, clean_build_ms, warm_build_ms",
        "modules_edit", "daemon_warm, interp_run"),
    Row("modules.cache_load_ms", "ms",
        "op_p50_ms, clean_build_ms, warm_build_ms", "modules_edit",
        "daemon_warm, interp_run"),
    Row("modules.cache_store_ms", "ms",
        "op_p50_ms, clean_build_ms, warm_build_ms", "modules_edit",
        "daemon_warm, interp_run"),
    Row("modules.recompiled", "count", "op_p50_ms", "modules_edit",
        "daemon_warm, interp_run"),
    Row("modules.reused", "count", "op_p50_ms", "modules_edit",
        "daemon_warm, interp_run"),
    Row("modules.deep_restored", "count", "op_p50_ms, warm_build_ms",
        "modules_edit", "daemon_warm, interp_run"),
    Row("modules.deep_fallback", "count", "op_p50_ms, warm_build_ms",
        "modules_edit", "daemon_warm, interp_run"),
    Row("modules.cache_read_ms", "ms", "warm_build_ms", "modules_edit",
        "daemon_warm, interp_run"),
    Row("modules.cache_bytes", "bytes", "warm_build_ms, clean_build_ms",
        "modules_edit", "daemon_warm, interp_run"),
    Row("modules.cache_entries", "count", "warm_build_ms, clean_build_ms",
        "modules_edit", "daemon_warm, interp_run"),
    # the interpreter
    Row("interp.ms", "ms", _E2E, "interp_run", "daemon_warm"),
    Row("interp.statements", "count", _E2E, "interp_run", "daemon_warm"),
    Row("interp.calls", "count", _E2E, "interp_run", "daemon_warm"),
    Row("interp.ic_hit_ratio", "ratio", _E2E, "interp_run", "daemon_warm"),
    Row("interp.ic_hits", "count", _E2E, "interp_run", "daemon_warm"),
    Row("interp.ic_lookups", "count", _E2E, "interp_run", "daemon_warm"),
    Row("interp.deopts", "count", _E2E, "interp_run", "daemon_warm"),
    Row("interp.codegen_compiled", "count", "clean_build_ms", "interp_run",
        "daemon_warm"),
    Row("interp.codegen_fallback", "count", "clean_build_ms", "interp_run",
        "daemon_warm"),
    Row("interp.codegen_ms", "ms", "clean_build_ms", "interp_run",
        "daemon_warm"),
    # the health of the ledger itself
    Row("obs.trace_overhead_pct", "%", "none", _ALL, "-"),
    Row("obs.bench_ms", "ms", "none", "cold_start", "all others"),
    Row("ledger.op_wall_ms", "ms", "none", _ALL, "-"),
    Row("ledger.unattributed_ms", "ms", "none", _ALL, "-"),
    Row("ledger.unattributed_pct", "%", "none", _ALL, "-"),
    Row("ledger.ops", "count", "none", _ALL, "-"),
]

#: Rows where a larger value is the better one; every other row is
#: better lower.
HIGHER_IS_BETTER = {"modules.reused", "modules.deep_restored",
                    "interp.codegen_compiled", "ledger.ops"}


def better(name: str) -> str:
    if name in HIGHER_IS_BETTER or name.endswith(("_hit_ratio", "_hits")):
        return "higher"
    return "lower"


NAMES = [row.name for row in ROWS]
UNITS = {row.name: row.unit for row in ROWS}

#: Span name -> the ``*_ms`` metric its self-time feeds.
SPAN_METRIC = {
    "bench": "obs.bench_ms",
    "startup.import": "startup.import_ms",
    "startup.process": "startup.process_ms",
    "core.setup": "core.setup_ms",
    "lalr.base": "lalr.base_ms",
    "lalr.extend": "lalr.extend_ms",
    "lexer": "lexer.ms",
    "parse": "parse.ms",
    "check": "check.ms",
    "interp": "interp.ms",
    "server.client": "server.transport_ms",
    "server.handle": "server.queue_ms",
    "server.compile": "server.compile_ms",
    "modules.graph": "modules.graph_ms",
    "modules.build": "modules.build_ms",
    "modules.cache_load": "modules.cache_load_ms",
    "modules.cache_store": "modules.cache_store_ms",
}
