"""Every metric the benchmark reports, with its unit and direction.

BENCHMARK.json at the repository root lists the same metrics; the
self-test checks that the two agree. Every workload reports every
metric. A per-layer metric of a layer that a workload does not use
reads 0 there (no calls, no time).
"""

from __future__ import annotations

#: Query families of scan_analytics: the E13/E15 scan families, point
#: lookups, and every QueryGenerator kind (workloads.py checks that
#: this list still names them all).
SCAN_FAMILIES = ("scan_agg", "group_by", "filter_project", "point_lookup",
                 "subtree_filter", "clade_agg", "organism_filter",
                 "property_range", "topk", "similarity", "substructure",
                 "join")

#: (name, unit, better, bound): what a user of the system sees.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("rss_peak_mb", "MB", "lower", 0.1),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms.p50", "ms", "lower", 0.25),
    ("op_ms.p99", "ms", "lower", 0.25),
    ("query_ms.p50", "ms", "lower", 0.25),
    ("query_ms.p99", "ms", "lower", 0.25),
    ("goodput", "ratio", "higher", 0.02),
)

#: Layers of the self-time table, in blocking order of a mobile tap.
LAYERS = ("serving", "mobile", "analysis", "query", "cache", "sources",
          "storage", "chem", "core")

#: (name, unit, better): one layer each, measured by the traced run.
PER_LAYER = (
    ("serving.self_us_per_tap", "us", "lower"),
    ("serving.front_hit_ratio", "ratio", "higher"),
    ("serving.shed_ratio", "ratio", "lower"),
    ("serving.queue_wait_virtual_ms.p99", "ms", "lower"),
    ("serving.tap_virtual_ms.p99", "ms", "lower"),
    ("mobile.render_ms.p50", "ms", "lower"),
    ("mobile.render_ms.p99", "ms", "lower"),
    ("mobile.query_ms.p50", "ms", "lower"),
    ("mobile.query_ms.p99", "ms", "lower"),
    ("mobile.details_ms.p50", "ms", "lower"),
    ("mobile.lod_ms.p50", "ms", "lower"),
    ("mobile.encode_ms.p50", "ms", "lower"),
    ("mobile.prefetch_hit_ratio", "ratio", "higher"),
    ("mobile.bytes_per_tap", "bytes", "lower"),
    ("analysis.check_ms.p50", "ms", "lower"),
    ("analysis.checks_per_query", "count", "lower"),
    ("query.parse_ms.p50", "ms", "lower"),
    ("query.parses_per_query", "count", "lower"),
    ("query.plan_ms.p50", "ms", "lower"),
    ("query.exec_self_ms.p50", "ms", "lower"),
    ("query.exec_self_ms.p99", "ms", "lower"),
    ("query.rows_scanned_per_row", "ratio", "lower"),
) + tuple(
    (f"query.family.{family}_ms.p50", "ms", "lower")
    for family in SCAN_FAMILIES
) + (
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.subsumed_ratio", "ratio", "higher"),
    ("cache.lookup_ms.p50", "ms", "lower"),
    ("cache.invalidations_per_write", "count", "lower"),
    ("sources.fetch_ms.p50", "ms", "lower"),
    ("sources.virtual_ms_per_tap", "ms", "lower"),
    ("sources.keys_per_roundtrip", "count", "higher"),
    ("sources.roundtrips_per_tap", "count", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.build_s", "s", "lower"),
    ("setup.integrate_s", "s", "lower"),
    ("setup.integrate_roundtrips", "count", "lower"),
    ("setup.first_request_ms", "ms", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("storage.insert_us.p50", "us", "lower"),
    ("storage.insert_us.p99", "us", "lower"),
    ("storage.delete_us.p50", "us", "lower"),
    ("storage.analyzes_per_1k_writes", "count", "lower"),
    ("storage.analyze_ms.p50", "ms", "lower"),
    ("durable.wal_bytes_per_row", "bytes", "lower"),
    ("durable.fsyncs_per_1k_writes", "count", "lower"),
    ("durable.flushes_per_1k_writes", "count", "lower"),
    ("durable.compactions_per_1k_writes", "count", "lower"),
    ("durable.recover_s", "s", "lower"),
    ("durable.space_amp", "ratio", "lower"),
    ("chem.similarity_candidate_ratio", "ratio", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
) + tuple(
    (f"{layer}.self_ms_per_op", "ms", "lower") for layer in LAYERS
)

#: Figures that repeat exactly for one seed (virtual time, bytes,
#: counts), checked by the self-test.
DETERMINISTIC = {
    "tap_stream": ("goodput", "serving.tap_virtual_ms.p99",
                   "mobile.bytes_per_tap", "sources.roundtrips_per_tap"),
    "ingest_mix": ("durable.space_amp", "durable.wal_bytes_per_row"),
}
