"""repro.obs — virtual-clock-aware observability for the simulation.

The paper's contribution is *comparative measurement*; this package is the
measurement substrate the reproduction itself runs on.  Four layers:

- :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket histograms
  in a snapshot/reset-able registry (per-spec-family request counters,
  latency distributions between benchmark phases);
- :mod:`repro.obs.tracing` — spans timed on the :class:`VirtualClock`
  with parent/child propagation through nested synchronous calls, so a
  mediated publish renders as ``deliver → dispatch → mediate → notify``;
- :mod:`repro.obs.capture` — per-exchange wire frames (zones, sizes,
  round-trip latency, outcome including lost/blocked/unreachable);
- :mod:`repro.obs.exporters` — a text report and a deterministic JSON
  document, exposed via ``python -m repro obs-report``.

On top of those, message lineage connects the story *across* hops:

- :mod:`repro.obs.propagation` — the W3C-traceparent-style HTTP header
  that carries (lineage id, parent span, hop) over the wire;
- :mod:`repro.obs.lineage` — the per-lineage state ledger
  (published → mediated → enqueued → attempted → delivered/…);
- :mod:`repro.obs.slo` — publish-to-delivery latency histograms with
  deterministic per-family/per-hop percentiles;
- :mod:`repro.obs.audit` — the conservation auditor behind
  ``python -m repro obs-audit``.

Continuous health telemetry rides alongside:

- :mod:`repro.obs.probes` — :class:`GaugeProbes` backlog sweeps on the
  virtual scheduler;
- :mod:`repro.obs.health` — the scripted degraded-traffic scenario and
  anomaly probes behind ``python -m repro obs-health`` / ``obs-top``.

Everything hangs off one :class:`~repro.obs.instrument.Instrumentation`
handle installed on a :class:`~repro.transport.network.SimulatedNetwork`;
the default is a null object (:data:`NULL_INSTRUMENTATION`) so
uninstrumented runs pay near-zero cost.
"""

from repro.obs.capture import CapturedFrame, WireCapture
from repro.obs.exporters import build_report, render_json_report, render_text_report
from repro.obs.instrument import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    NullInstrumentation,
)
from repro.obs.lineage import LineageEvent, LineageLedger
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.probes import GaugeProbes
from repro.obs.propagation import LineageContext
from repro.obs.slo import slo_summary
from repro.obs.tracing import Span, Tracer

__all__ = [
    "CapturedFrame",
    "Counter",
    "Gauge",
    "GaugeProbes",
    "Histogram",
    "Instrumentation",
    "LineageContext",
    "LineageEvent",
    "LineageLedger",
    "MetricsRegistry",
    "NULL_INSTRUMENTATION",
    "NullInstrumentation",
    "Span",
    "Tracer",
    "WireCapture",
    "build_report",
    "render_json_report",
    "render_text_report",
    "slo_summary",
]
