"""Metrics: labelled counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` hands out instruments keyed by ``(name, labels)``;
asking twice for the same key returns the same instrument, so hot paths can
simply call ``registry.counter("broker.requests", family="wse").inc()``.

Instruments are stored under a **structural key** — ``(name, sorted label
items)`` — and the human-readable ``name{k=v,...}`` string is only rendered
when a snapshot or aggregation asks for it (lazy label formatting).  The hot
path therefore never builds strings; it hashes a small tuple, and call sites
that run per-notification can go one step further and hold the
:class:`Counter` itself (a *pre-bound handle*, see
:meth:`Instrumentation.counter_handle`), paying one attribute increment per
event.

Snapshots are plain dicts with deterministically ordered rendered keys, and
:meth:`MetricsRegistry.reset` zeroes every instrument between benchmark
phases without invalidating references already handed out.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional

#: default histogram buckets, in virtual seconds (upper bounds; +Inf implied)
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

#: structural registry key: (name, tuple(sorted(labels.items())))
MetricKey = tuple


def metric_key(name: str, labels: dict[str, str]) -> str:
    """Render ``name{k=v,...}`` with labels sorted — the canonical key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def render_key(key: MetricKey) -> str:
    """Render a structural key into the canonical ``name{k=v,...}`` form."""
    name, items = key
    if not items:
        return name
    inner = ",".join(f"{k}={v}" for k, v in items)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value (e.g. live subscriptions)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """A fixed-bucket histogram (cumulative counts plus sum/count/min/max)."""

    __slots__ = ("buckets", "counts", "count", "total", "minimum", "maximum")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.reset()

    def reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)  # last slot is +Inf
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        buckets = {f"le={bound:g}": n for bound, n in zip(self.buckets, self.counts)}
        buckets["le=+Inf"] = self.counts[-1]
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "min": self.minimum,
            "max": self.maximum,
            "buckets": buckets,
        }


class _NullCounter(Counter):
    """Pre-bound handle handed out by ``NullInstrumentation``: inert."""

    __slots__ = ()
    #: reads 0 and ignores writes, so ``handle.value += n`` is inert too
    value = property(lambda self: 0, lambda self, value: None)

    def inc(self, amount: int = 1) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


#: shared inert instruments (safe to share: every operation is a no-op)
NULL_COUNTER = _NullCounter()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """All instruments of one instrumented run, keyed deterministically."""

    def __init__(self) -> None:
        self._counters: dict[MetricKey, Counter] = {}
        self._gauges: dict[MetricKey, Gauge] = {}
        self._histograms: dict[MetricKey, Histogram] = {}

    # --- instrument access -------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, tuple(sorted(labels.items()))) if labels else (name, ())
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, tuple(sorted(labels.items()))) if labels else (name, ())
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        *,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = (name, tuple(sorted(labels.items()))) if labels else (name, ())
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(buckets)
        return instrument

    # --- aggregation -------------------------------------------------------

    def counter_values(self, name: str) -> dict[str, int]:
        """All counter series of one metric name, keyed by rendered key."""
        values = {
            render_key(key): c.value
            for key, c in self._counters.items()
            if key[0] == name
        }
        return {k: values[k] for k in sorted(values)}

    def gauge_values(self, name: str) -> dict[str, float]:
        """All gauge series of one metric name, keyed by rendered key."""
        values = {
            render_key(key): g.value
            for key, g in self._gauges.items()
            if key[0] == name
        }
        return {k: values[k] for k in sorted(values)}

    def counter_series(self, name: str) -> Iterator[tuple[dict[str, str], Counter]]:
        """Every ``(labels, counter)`` recorded under ``name``, in
        deterministic label order."""
        for key in sorted(k for k in self._counters if k[0] == name):
            yield dict(key[1]), self._counters[key]

    def histogram_series(
        self, name: str
    ) -> Iterator[tuple[dict[str, str], Histogram]]:
        """Every ``(labels, histogram)`` recorded under ``name``, in
        deterministic label order."""
        for key in sorted(k for k in self._histograms if k[0] == name):
            yield dict(key[1]), self._histograms[key]

    def snapshot(self) -> dict:
        """A plain, deterministic dict of every instrument's state.

        Keys are rendered here — and only here — so the hot path never pays
        for label formatting (lazy label formatting).
        """
        counters = {render_key(k): c.value for k, c in self._counters.items()}
        gauges = {render_key(k): g.value for k, g in self._gauges.items()}
        histograms = {
            render_key(k): h.snapshot() for k, h in self._histograms.items()
        }
        return {
            "counters": {k: counters[k] for k in sorted(counters)},
            "gauges": {k: gauges[k] for k in sorted(gauges)},
            "histograms": {k: histograms[k] for k in sorted(histograms)},
        }

    def reset(self) -> None:
        """Zero everything; handed-out instrument references stay valid."""
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
