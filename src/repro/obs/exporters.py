"""Exporters: render one instrumented run as text or deterministic JSON.

Both renderings are pure functions of the :class:`Instrumentation` state,
which itself is a pure function of the scenario under the virtual clock —
so running the same scenario twice yields byte-identical reports, which is
what lets ``python -m repro obs-report`` be diffed across commits.
"""

from __future__ import annotations

import json

from repro.obs.instrument import Instrumentation
from repro.obs.slo import slo_summary


def _base_name(key: str) -> str:
    """Metric name without the ``{label=value,...}`` suffix."""
    brace = key.find("{")
    return key if brace < 0 else key[:brace]


def _counter_family_summary(counters: dict[str, int], prefix: str) -> dict[str, int]:
    """Aggregate ``<prefix>*`` counter series across their labels."""
    totals: dict[str, int] = {}
    for key, value in counters.items():
        name = _base_name(key)
        if name.startswith(prefix):
            short = name[len(prefix):]
            totals[short] = totals.get(short, 0) + value
    return dict(sorted(totals.items()))


def _delivery_summary(counters: dict[str, int]) -> dict[str, int]:
    """Aggregate ``delivery.*`` counter series across their labels."""
    return _counter_family_summary(counters, "delivery.")


def _fanout_summary(counters: dict[str, int]) -> dict[str, int]:
    """Aggregate the fan-out fast-path counters (``fanout.*``)."""
    return _counter_family_summary(counters, "fanout.")


def caches_snapshot() -> dict:
    """The process-global fast-path cache stats, in one deterministic dict:
    envelope byte-templates, the frozen-subtree writer and the compiled-filter
    caches."""
    from repro.filters.compilecache import FILTER_COMPILE_STATS
    from repro.xmlkit.template import TEMPLATE_STATS
    from repro.xmlkit.writer import WRITER_STATS

    return {
        "templates": TEMPLATE_STATS.snapshot(),
        "writer": WRITER_STATS.snapshot(),
        "filter_compiles": FILTER_COMPILE_STATS.snapshot(),
    }


def reset_cache_stats() -> None:
    """Zero the process-global cache stats (scenario entry points call this
    so cache sections are a function of the scenario alone).  The compiled-
    filter *cache content* is dropped too — otherwise a second scenario run
    in the same process hits where the first missed and the report stops
    being deterministic; the framed control-envelope heads likewise."""
    from repro.filters.compilecache import FILTER_COMPILE_STATS, clear_caches
    from repro.render import FRAMES
    from repro.xmlkit.template import TEMPLATE_STATS
    from repro.xmlkit.writer import WRITER_STATS

    TEMPLATE_STATS.reset()
    WRITER_STATS.reset()
    clear_caches()
    FRAMES.clear()
    FILTER_COMPILE_STATS.reset()


def build_report(instrumentation: Instrumentation, *, title: str = "obs report") -> dict:
    """The canonical report document (deterministically ordered)."""
    snapshot = instrumentation.snapshot()
    spans = snapshot["spans"]
    wire_totals = snapshot["wire"]["totals"]
    summary = {
        "spans": len(spans),
        "span_errors": sum(1 for s in spans if s["status"] != "ok"),
        "metrics": len(instrumentation.metrics),
        "wire_frames": wire_totals["count"],
        "wire_request_bytes": wire_totals["request_bytes"],
        "wire_response_bytes": wire_totals["response_bytes"],
    }
    delivery = _delivery_summary(snapshot["metrics"]["counters"])
    if delivery:
        summary["delivery"] = delivery
    fanout = _fanout_summary(snapshot["metrics"]["counters"])
    if fanout:
        summary["fanout"] = fanout
    mesh = _counter_family_summary(snapshot["metrics"]["counters"], "mesh.")
    if mesh:
        summary["mesh"] = mesh
    store = _counter_family_summary(snapshot["metrics"]["counters"], "store.")
    if store:
        summary["store"] = store
    lineage = snapshot["lineage"]
    if lineage:
        totals = instrumentation.ledger.totals()
        summary["lineage"] = {"lineages": len(lineage), **totals.to_dict()}
    latency = slo_summary(instrumentation.metrics)
    report = {
        "title": title,
        "clock": snapshot["clock"],
        "summary": summary,
        "metrics": snapshot["metrics"],
        "spans": spans,
        "wire": snapshot["wire"],
        "lineage": lineage,
        "caches": caches_snapshot(),
    }
    if latency:
        report["delivery_latency"] = latency
    return report


def render_json_report(
    instrumentation: Instrumentation, *, title: str = "obs report"
) -> str:
    return json.dumps(
        build_report(instrumentation, title=title), indent=2, sort_keys=True
    )


def render_text_report(
    instrumentation: Instrumentation, *, title: str = "obs report"
) -> str:
    report = build_report(instrumentation, title=title)
    lines = [report["title"], "=" * len(report["title"]), ""]

    summary = report["summary"]
    lines.append(
        f"virtual clock {report['clock']:.4f}s | {summary['spans']} spans"
        f" ({summary['span_errors']} errored) | {summary['metrics']} metric series"
        f" | {summary['wire_frames']} wire frames"
    )
    if "fanout" in summary:
        lines.append(
            "fan-out: "
            + ", ".join(f"{k}={v}" for k, v in summary["fanout"].items())
        )
    for family in ("mesh", "store"):
        if family in summary:
            lines.append(
                f"{family}: "
                + ", ".join(f"{k}={v}" for k, v in summary[family].items())
            )
    lines.append("")

    lines.append("Metrics")
    lines.append("-------")
    counters = report["metrics"]["counters"]
    for key in counters:
        lines.append(f"  {key:<60s} {counters[key]}")
    gauges = report["metrics"]["gauges"]
    for key in gauges:
        lines.append(f"  {key:<60s} {gauges[key]:g}")
    for key, hist in report["metrics"]["histograms"].items():
        lines.append(
            f"  {key:<60s} count={hist['count']} sum={hist['sum']:g}"
            f" min={hist['min']:g} max={hist['max']:g}"
            if hist["count"]
            else f"  {key:<60s} count=0"
        )
    if not (counters or gauges or report["metrics"]["histograms"]):
        lines.append("  (none)")
    lines.append("")

    lines.append("Spans")
    lines.append("-----")
    tree = instrumentation.tracer.render_tree()
    lines.extend(
        f"  {line}" for line in (tree.splitlines() if tree else ["(none)"])
    )
    lines.append("")

    if report["lineage"]:
        lines.append("Lineage")
        lines.append("-------")
        for lineage_id, entry in report["lineage"].items():
            account = entry["account"]
            lines.append(
                f"  {lineage_id}: opened={account['opened']}"
                f" delivered={account['delivered']}"
                f" dead_lettered={account['dead_lettered']}"
                f" failed={account['failed']} pending={account['pending']}"
                f" attempts={account['attempts']}"
            )
            for event in entry["events"]:
                detail = " ".join(
                    f"{k}={v}" for k, v in event.items() if k not in ("at", "state")
                )
                lines.append(
                    f"    {event['at']:9.4f}s {event['state']}"
                    f"{(' ' + detail) if detail else ''}"
                )
        lines.append("")

    if "delivery_latency" in report:
        lines.append("Delivery latency (publish -> delivered, virtual seconds)")
        lines.append("--------------------------------------------------------")
        latency = report["delivery_latency"]
        for group_name, key_prefix in (("per_family", "family"), ("per_hops", "hops")):
            for label, stats in latency[group_name].items():
                lines.append(
                    f"  {key_prefix}={label:<12s} count={stats['count']}"
                    f" p50={stats['p50']:g} p95={stats['p95']:g}"
                    f" p99={stats['p99']:g}"
                )
        lines.append("")

    lines.append("Caches")
    lines.append("------")
    caches = report["caches"]
    lines.append(
        "  templates: "
        + ", ".join(f"{k}={v}" for k, v in caches["templates"].items())
    )
    lines.append(
        "  writer:    "
        + ", ".join(f"{k}={v}" for k, v in caches["writer"].items())
    )
    lines.append(
        "  filters:   "
        + ", ".join(f"{k}={v}" for k, v in sorted(caches["filter_compiles"].items()))
    )
    lines.append("")

    lines.append("Wire")
    lines.append("----")
    totals = report["wire"]["totals"]
    outcome = ", ".join(f"{k}={v}" for k, v in totals["by_outcome"].items()) or "none"
    lines.append(
        f"  {totals['count']} exchanges ({outcome});"
        f" {totals['request_bytes']} request bytes,"
        f" {totals['response_bytes']} response bytes"
    )
    for frame in report["wire"]["frames"]:
        response = (
            f"{frame['response_size']}B"
            if frame["response_size"] is not None
            else "-"
        )
        lines.append(
            f"  #{frame['index']:<3d} {frame['from_zone']}->"
            f"{frame['to_zone'] or '?'} {frame['address']:<44s}"
            f" {frame['request_size']}B/{response}"
            f" {frame['latency'] * 1000:.3f}ms {frame['outcome']}"
        )
    return "\n".join(lines)
