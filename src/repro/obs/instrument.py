"""The single handle instrumented code talks to.

Hot paths hold a :class:`SimulatedNetwork` and read its ``instrumentation``
attribute, which is either a live :class:`Instrumentation` (metrics +
tracer + wire capture on the network's virtual clock) or the module-level
:data:`NULL_INSTRUMENTATION` — a null object whose every operation is a
no-op, so uninstrumented runs pay only an attribute read and an empty
context-manager enter/exit on the hottest paths.

The live handle is built for continuous use, not just one-shot reports, so
its hot surface is deliberately cheap (``benchmarks/e2e``: ``ladder.obs_us``):

* ``count``/``gauge`` hash a small structural tuple — label strings are
  only rendered at snapshot time (lazy label formatting);
* per-notification call sites hold a :class:`BoundCounters` — the one
  handle cache — and pay one call plus an attribute increment per event;
  the null handle hands out an inert shared counter, so binding code needs
  no ``enabled`` branches;
* spans are their own context managers (no ``contextlib`` generator).

Usage::

    network = SimulatedNetwork(VirtualClock())
    instr = Instrumentation.attach(network)     # flips the network live
    ... run a scenario ...
    print(render_text_report(instr))            # repro.obs.exporters
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.capture import WireCapture
from repro.obs.lineage import LineageLedger
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.obs.tracing import Tracer

if TYPE_CHECKING:  # avoid a runtime cycle with repro.transport.network
    from repro.transport.network import SimulatedNetwork


class _NullSpan:
    """Context manager + span stand-in; every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, key: str, value: str) -> None:
        pass

    def fail(self, reason: str) -> None:
        pass


_NULL_SPAN = _NullSpan()


class BoundCounters:
    """The one cache of pre-bound metric handles, keyed on the *identity*
    of the network's instrumentation handle.

    A component that counts per notification holds one of these and calls
    ``inc(instr, 1, "delivery.attempts", "family", family)`` — the metric
    name followed by its labels as alternating names and values.  Those
    arguments *are* the cache key, so the steady state is one call: an
    identity check, one dict probe and the increment, with no label dict
    built; the first call per (handle, key) resolves the instrument through
    the registry.  Swapping the network's instrumentation (attach/uninstall,
    or a fresh handle between benchmark phases) invalidates the cache
    automatically.  Works against the null handle too — it binds inert
    instruments, so call sites stay branch-free.  :meth:`observe` is the
    same for histograms; :meth:`get` hands out the counter itself, for a
    loop that increments it many times.
    """

    __slots__ = ("_instr", "_handles")

    def __init__(self) -> None:
        self._instr = None
        self._handles: dict[tuple, object] = {}

    def inc(self, instr, amount: int, *key: str) -> None:
        if instr is self._instr:
            try:
                self._handles[key].value += amount
                return
            except KeyError:
                pass
        self._bind(instr, instr.counter_handle, key).value += amount

    def observe(self, instr, value: float, *key: str) -> None:
        if instr is self._instr:
            try:
                self._handles[key].observe(value)
                return
            except KeyError:
                pass
        self._bind(instr, instr.histogram_handle, key).observe(value)

    def get(self, instr, *key: str) -> Counter:
        if instr is self._instr:
            try:
                return self._handles[key]
            except KeyError:
                pass
        return self._bind(instr, instr.counter_handle, key)

    def _bind(self, instr, resolve, key: tuple):
        if instr is not self._instr:
            self._instr = instr
            self._handles = {}
        handle = self._handles[key] = resolve(
            key[0], **dict(zip(key[1::2], key[2::2]))
        )
        return handle


class NullInstrumentation:
    """The default: the same surface as :class:`Instrumentation`, inert."""

    enabled = False

    def span(self, name: str, *, remote=None, mint: bool = False, **attrs: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: int = 1, **labels: str) -> None:
        pass

    def gauge(self, name: str, value: float, **labels: str) -> None:
        pass

    def counter_handle(self, name: str, **labels: str):
        """An inert pre-bound counter — binding sites need no branches."""
        return NULL_COUNTER

    def histogram_handle(self, name: str, **labels: str):
        return NULL_HISTOGRAM

    def trace_context(self) -> None:
        return None

    def lineage_event(self, lineage_id, state: str, **detail) -> None:
        pass

    def lineage_delivered(
        self, lineage_id, *, family: str, hops: int, sink: str, via: str = "push"
    ) -> None:
        pass


#: shared inert instance; ``SimulatedNetwork`` starts out pointing at it
NULL_INSTRUMENTATION = NullInstrumentation()


class Instrumentation:
    """Live metrics registry + tracer + wire capture on one virtual clock."""

    enabled = True

    def __init__(self, clock, *, max_frames: Optional[int] = None) -> None:
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock)
        self.capture = WireCapture(max_frames=max_frames)
        self.ledger = LineageLedger(clock)
        # the two hottest obs entry points are the tracer's own methods,
        # bound here so a call skips a delegating frame
        self.span = self.tracer.span
        # the current span's lineage context (sender hop), or ``None``
        # exactly when no lineage-bearing span is active — which is also
        # when wire injection must not happen
        self.trace_context = self.tracer.continuation
        self._ledger_record = self.ledger.record
        # hot-path aliases: count()/gauge() write through these directly
        self._counters = self.metrics._counters
        self._gauges = self.metrics._gauges
        # pre-bound latency histograms, one per (family, hops) pair
        self._latency_histograms: dict[tuple[str, int], object] = {}

    @classmethod
    def attach(
        cls, network: "SimulatedNetwork", *, max_frames: Optional[int] = None
    ) -> "Instrumentation":
        """Create on the network's clock and install in one step."""
        return cls(network.clock, max_frames=max_frames).install(network)

    def install(self, network: "SimulatedNetwork") -> "Instrumentation":
        """Point the network (and everything holding it) at this handle."""
        network.instrumentation = self
        network.wire_observers.append(self.capture.record)
        return self

    def uninstall(self, network: "SimulatedNetwork") -> None:
        network.instrumentation = NULL_INSTRUMENTATION
        if self.capture.record in network.wire_observers:
            network.wire_observers.remove(self.capture.record)

    # --- the hot-path surface ---------------------------------------------

    def count(self, name: str, value: int = 1, **labels: str) -> None:
        # inlined registry access: one tuple, one dict probe, no strings
        key = (name, tuple(sorted(labels.items()))) if labels else (name, ())
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        counter.value += value

    def gauge(self, name: str, value: float, **labels: str) -> None:
        key = (name, tuple(sorted(labels.items()))) if labels else (name, ())
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        gauge.value = float(value)

    def counter_handle(self, name: str, **labels: str) -> Counter:
        """A pre-bound counter for per-notification sites.

        The returned handle stays valid across :meth:`reset` (reset zeroes
        in place).  Binding sites cache it keyed on the instrumentation
        *identity*, so swapping the network's handle rebinds naturally.
        """
        return self.metrics.counter(name, **labels)

    def histogram_handle(self, name: str, **labels: str):
        return self.metrics.histogram(name, **labels)

    # --- lineage -----------------------------------------------------------

    def lineage_event(self, lineage_id: Optional[str], state: str, **detail) -> None:
        """Record one ledger transition; a ``None`` lineage id is ignored
        (untraced traffic, e.g. management calls)."""
        if lineage_id is not None:
            self._ledger_record(lineage_id, state, **detail)

    def lineage_delivered(
        self,
        lineage_id: Optional[str],
        *,
        family: str,
        hops: int,
        sink: str,
        via: str = "push",
    ) -> None:
        """Close one obligation as delivered and observe its end-to-end
        latency into the SLO histograms."""
        if lineage_id is None:
            return
        published = self.ledger.published_at(lineage_id)
        self.ledger.record(
            lineage_id, "delivered", sink=sink, via=via, hops=hops
        )
        if published is not None:
            histogram = self._latency_histograms.get((family, hops))
            if histogram is None:
                from repro.obs.slo import DELIVERY_LATENCY_METRIC, SLO_BUCKETS

                histogram = self._latency_histograms[(family, hops)] = (
                    self.metrics.histogram(
                        DELIVERY_LATENCY_METRIC,
                        buckets=SLO_BUCKETS,
                        family=family,
                        hops=str(hops),
                    )
                )
            histogram.observe(self.clock.now() - published)

    # --- lifecycle ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic state of all layers (see also exporters)."""
        return {
            "clock": round(self.clock.now(), 9),
            "metrics": self.metrics.snapshot(),
            "spans": [span.to_dict() for span in self.tracer.spans],
            "wire": self.capture.snapshot(),
            "lineage": self.ledger.snapshot(),
        }

    def reset(self) -> None:
        """Zero everything between benchmark phases."""
        self.metrics.reset()
        self.tracer.reset()
        self.capture.reset()
        self.ledger.reset()
