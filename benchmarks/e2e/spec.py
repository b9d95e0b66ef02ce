"""Names, units and bounds: the benchmark's contract in one place.

``BENCHMARK.json`` at the repo root lists exactly these workloads and
metrics (``test_harness.py`` asserts the two agree).
"""

from __future__ import annotations

from typing import NamedTuple


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: float
    what: str


WORKLOADS = (
    Workload(
        "fanout_push",
        "1 topic, 200 healthy consumers in 4 dialects, every publish matches all: "
        "per-delivery render, SOAP, HTTP, network, parse, store outcome dominate; matching ~0",
    ),
    Workload(
        "match_sparse",
        "4000 XPath/wildcard-topic subscriptions, about 1% match: index lookup and "
        "compiled-XPath evaluation dominate, deliveries are few; filters idle in fanout_push",
    ),
    Workload(
        "control_churn",
        "Table 2 as traffic: Subscribe/Renew/GetStatus/Pause/Resume/Unsubscribe over the wire "
        "in all 5 dialects on a standing population of 500; writes the index and caches others read",
    ),
    Workload(
        "degraded_pull",
        "10% loss, firewalled sinks parked and drained by pull, dead and flapping sinks, "
        "bounded queues shedding: retry, backoff, park, drain, shed instead of first-attempt success",
    ),
    Workload(
        "mesh_fanout",
        "4-shard mesh with per-shard file logs: half the publishes enter at a non-owner shard, "
        "a quarter of subscribers sit on a non-owner node; only workload where mesh does work",
    ),
)

#: timings are medians of samples at reference host speed (calibrate.py);
#: the bounds are what this host's run-to-run spread supports (README)
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "build the stack and subscribe the whole population over the wire"),
    EndToEnd("us_per_delivery", "us", "lower", 0.20,
             "wall per (publish, matching subscription) obligation, publish to drained"),
    EndToEnd("publish_ms", "ms", "lower", 0.20,
             "wall per publish including the drain"),
    EndToEnd("control_op_us", "us", "lower", 0.25,
             "wall per wire control call (control_churn: lifecycle mix; elsewhere: set-up Subscribes)"),
    EndToEnd("recovery_ms_per_krecord", "ms", "lower", 0.25,
             "recover_broker wall per 1000 event-log records"),
    EndToEnd("wire_bytes_per_op", "bytes", "lower", 0.02,
             "request+response bytes on the simulated wire per op (obligation or control call)"),
    EndToEnd("log_bytes_per_publish", "bytes", "lower", 0.03,
             "event-log bytes appended per publish"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05,
             "ru_maxrss of the workload's process"),
    EndToEnd("delivered_share", "share", "higher", 0.02,
             "obligations that reached a consumer (push or pull) / obligations opened"),
)

#: one layer per src/repro module group; order is the report order
LAYERS = (
    "xmlkit.parse", "xmlkit.serialize", "xmlkit.template", "xmlkit.xpath",
    "soap", "wsa",
    "transport.http", "transport.network", "transport.endpoint",
    "filters", "wsn", "wse", "wsrf", "messenger",
    "delivery", "qos", "store", "obs", "mesh",
)

#: counts and ratios read from public stats objects after untraced blocks
STAT_METRICS = (
    ("xmlkit.tree_serializations_per_publish", "count"),
    ("xmlkit.frozen_splices_per_publish", "count"),
    ("xmlkit.template_hit_ratio", "share"),
    ("filters.evals_per_publish", "count"),
    ("filters.index_candidates_per_publish", "count"),
    ("filters.match_ratio", "share"),
    ("filters.compile_cache_hit_ratio", "share"),
    ("transport.requests_per_delivery", "count"),
    ("transport.bytes_per_request", "bytes"),
    ("transport.lost", "count"),
    ("transport.firewall_blocked", "count"),
    ("delivery.attempts_per_delivery", "count"),
    ("delivery.retries", "count"),
    ("delivery.parked", "count"),
    ("delivery.dead_lettered", "count"),
    ("delivery.batch_size_mean", "count"),
    ("delivery.peak_pending", "count"),
    ("delivery.breaker_fast_fails", "count"),
    ("qos.shed", "count"),
    ("qos.throttled", "count"),
    ("store.records_per_publish", "count"),
    ("store.recover_records_per_s", "1/s"),
    ("obs.spans_per_publish", "count"),
    ("mesh.forward_hops_per_publish", "count"),
    ("mesh.shard_skew", "ratio"),
    ("mesh.virtual_speedup_model", "ratio"),
    ("messenger.publish_p50_ms", "ms"),
    ("messenger.publish_p95_ms", "ms"),
    ("messenger.publish_samples", "count"),
    ("host.slowdown_p50", "ratio"),
)

TRACE_METRICS = (
    ("trace.unattributed_share", "share"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.crosscheck_top5_agree", "count"),
    ("trace.crosscheck_share_gap", "share"),
    ("trace.crosscheck_sum_gap", "share"),
)

#: feature ladder on fanout_push: each rung adds one constructor argument
LADDER = ("bare", "delivery", "store", "qos", "batching", "obs")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out: list[tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.self_us_per_op", "us", "lower"))
        out.append((f"{layer}.calls_per_op", "count", "lower"))
    for name, unit in TRACE_METRICS:
        better = "higher" if name.endswith("_agree") else "lower"
        out.append((name, unit, better))
    higher = {
        "xmlkit.template_hit_ratio", "filters.compile_cache_hit_ratio",
        "delivery.batch_size_mean", "store.recover_records_per_s",
        "mesh.virtual_speedup_model", "messenger.publish_samples",
        "xmlkit.frozen_splices_per_publish",
    }
    for name, unit in STAT_METRICS:
        out.append((name, unit, "higher" if name in higher else "lower"))
    for rung in LADDER:
        out.append((f"ladder.{rung}_us", "us", "lower"))
    return out


def benchmark_json(run_seconds: int = 8) -> dict:
    """The document committed as ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_metrics()
        ],
    }
