"""Delivery-latency SLOs: fixed-bucket histograms and deterministic percentiles.

Latency here is *publish-to-delivery* on the virtual clock: the gap between
a lineage's ``published`` event and each obligation's ``delivered`` event,
as recorded by :meth:`Instrumentation.lineage_delivered`.  One histogram
series per (family, hops) pair::

    slo.delivery_latency_seconds{family=wsn,hops=2}

Buckets span the simulation's dynamic range — single wire hops are a few
virtual milliseconds, retry backoff stretches into tens of virtual seconds —
and are identical across series, so per-family and per-hop summaries merge
bucket counts directly.

Percentiles are computed from bucket counts the same way Prometheus'
``histogram_quantile`` conservatively could: the **smallest bucket upper
bound** whose cumulative count reaches ``ceil(q * count)``.  With a fixed
virtual clock that makes every reported percentile bit-for-bit reproducible
— no interpolation, no float accumulation order dependence.
"""

from __future__ import annotations

from math import ceil
from typing import Optional

from repro.obs.metrics import Histogram, MetricsRegistry

#: metric name every delivery-latency observation lands under
DELIVERY_LATENCY_METRIC = "slo.delivery_latency_seconds"

#: upper bounds in virtual seconds (+Inf implied): ms-scale hops through
#: backoff-scale retries
SLO_BUCKETS: tuple[float, ...] = (
    0.005,
    0.01,
    0.02,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.0,
    5.0,
    10.0,
    30.0,
    60.0,
)

#: quantiles every summary reports
SLO_QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


def bucket_percentile(
    buckets: tuple[float, ...], counts: list[int], q: float, maximum: Optional[float]
) -> Optional[float]:
    """The smallest bucket upper bound covering quantile ``q``.

    ``counts`` has one extra trailing slot for +Inf, whose representative
    value is the observed ``maximum``.  ``None`` when the series is empty.
    """
    total = sum(counts)
    if total == 0:
        return None
    rank = max(1, ceil(q * total))
    cumulative = 0
    for bound, count in zip(buckets, counts):
        cumulative += count
        if cumulative >= rank:
            return bound
    return maximum


def _latency_series(metrics: MetricsRegistry) -> list[tuple[str, int, Histogram]]:
    """Every (family, hops, histogram) recorded under the latency metric."""
    return [
        (labels["family"], int(labels["hops"]), histogram)
        for labels, histogram in metrics.histogram_series(DELIVERY_LATENCY_METRIC)
    ]


def _merged_summary(group: list[Histogram]) -> dict:
    counts = [0] * (len(SLO_BUCKETS) + 1)
    maximum: Optional[float] = None
    total_sum = 0.0
    for histogram in group:
        for i, n in enumerate(histogram.counts):
            counts[i] += n
        if histogram.maximum is not None:
            maximum = (
                histogram.maximum
                if maximum is None
                else max(maximum, histogram.maximum)
            )
        total_sum += histogram.total
    count = sum(counts)
    summary = {
        "count": count,
        "sum": round(total_sum, 9),
    }
    for label, q in SLO_QUANTILES:
        value = bucket_percentile(SLO_BUCKETS, counts, q, maximum)
        summary[label] = round(value, 9) if value is not None else None
    return summary


def slo_summary(metrics: MetricsRegistry) -> dict:
    """Per-family and per-hop percentile summaries of delivery latency.

    Returns ``{}`` when nothing was observed, so reports can omit the
    section entirely on scenarios without deliveries.
    """
    series = _latency_series(metrics)
    if not series:
        return {}
    by_family: dict[str, list[Histogram]] = {}
    by_hops: dict[int, list[Histogram]] = {}
    for family, hops, histogram in series:
        by_family.setdefault(family, []).append(histogram)
        by_hops.setdefault(hops, []).append(histogram)
    return {
        "per_family": {
            family: _merged_summary(group)
            for family, group in sorted(by_family.items())
        },
        "per_hops": {
            str(hops): _merged_summary(group)
            for hops, group in sorted(by_hops.items())
        },
    }
