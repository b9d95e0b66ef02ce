"""Observability overhead — the cost of the repro.obs layer, quantified.

Two questions:

1. **Null-instrumentation overhead**: with the default null object (no
   Instrumentation installed), how much slower is a mediated publish round
   than the same hot path cost before the obs layer existed?  The null
   path adds only attribute reads and no-op context managers.
2. **Full-instrumentation overhead**: with metrics + tracer + wire capture
   + lineage ledger all live, what does a fully traced publish round cost
   relative to null?  The fast-path work (splice-inject serialization,
   direct ledger records, inlined span allocation) holds this at
   ``instrumented_over_null <= 1.25`` — a hard, CI-gated ceiling.

Timing methodology (the ratio is the contract, so it must be noise-proof):

- **interleaved best-of**: the null and instrumented stacks are timed in
  alternating order across ``REPS`` repetitions, and the ratio is taken
  between the *minimum* per-publish times.  Minima estimate the true cost
  floor; interleaving cancels thermal/frequency drift between the stacks.
- the GC is collected then disabled around every timed loop, so a
  generational collection landing inside one stack's loop cannot skew the
  ratio; instrumentation state is reset after each rep to keep the
  instrumented stack's span/frame buffers from growing across reps.

The benchmark also exercises the report end-to-end (connected span tree,
per-family counters, deterministic JSON), and embeds the *deterministic*
telemetry evidence — queue-depth/lag gauge series from the scripted
``obs-health`` minute — in ``BENCH_observability.json``.
"""

from __future__ import annotations

import gc
import math
import time
from pathlib import Path

from repro.messenger import WsMessenger
from repro.obs import Instrumentation, build_report, render_json_report, slo_summary
from repro.obs.health import SAMPLE_INTERVAL, build_health_report, run_health_scenario
from repro.transport import SimulatedNetwork, VirtualClock
from repro.util.artifacts import write_artifact
from repro.wse import EventSink, WseSubscriber
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.xmlkit import parse_xml

RESULT_FILE = Path(__file__).resolve().parents[1] / "BENCH_observability.json"
ROUNDS = 400  # publishes per timed repetition
REPS = 16  # alternating-order repetitions; best-of wins
OVERHEAD_CEILING = 1.25  # hard gate on instrumented/null (CI-enforced)
#: the gauge families trended in the artifact: queue depths and lag across
#: the broker, the delivery layer, the mesh, and the store backlogs
GAUGE_PREFIXES = ("broker.", "delivery.", "mesh.", "store.")

_results: dict[str, object] = {}


def _event(n: int = 0):
    return parse_xml(f'<ev:E xmlns:ev="urn:obs-bench"><ev:n>{n}</ev:n></ev:E>')


def _mediation_stack(instrumented: bool):
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network) if instrumented else None
    broker = WsMessenger(network, "http://bench-broker")
    sink = EventSink(network, "http://bench-sink")
    WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
    consumer = NotificationConsumer(network, "http://bench-consumer")
    WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="bench")
    return network, broker, instrumentation


def _time_rounds(broker, rounds: int = ROUNDS) -> float:
    """Seconds per publish over one GC-quiesced loop of ``rounds``."""
    event = _event()
    publish = broker.publish
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(rounds):
            publish(event, topic="bench")
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    return elapsed / rounds


def _measure_overhead() -> tuple[float, float]:
    """Best-of-``REPS`` interleaved per-publish times: (null, instrumented)."""
    _, null_broker, _ = _mediation_stack(instrumented=False)
    _, broker, instrumentation = _mediation_stack(instrumented=True)
    # warm both stacks (caches, allocator arenas) before anything is timed
    _time_rounds(null_broker, 50)
    _time_rounds(broker, 50)
    instrumentation.reset()

    null_best = instrumented_best = math.inf
    for rep in range(REPS):
        if rep % 2 == 0:  # alternate order so drift hits both stacks equally
            null_best = min(null_best, _time_rounds(null_broker))
            instrumented_best = min(instrumented_best, _time_rounds(broker))
        else:
            instrumented_best = min(instrumented_best, _time_rounds(broker))
            null_best = min(null_best, _time_rounds(null_broker))
        instrumentation.reset()  # bound span/frame buffers across reps
    return null_best, instrumented_best


def test_overhead_fast_path_ratio():
    """The tentpole gate: fully-live instrumentation costs <= 1.25x null."""
    null, instrumented = _measure_overhead()
    overhead = instrumented / null
    if overhead > OVERHEAD_CEILING:  # one re-measure absorbs a noise spike
        null, instrumented = _measure_overhead()
        overhead = instrumented / null
    _results["null_seconds_per_publish"] = null
    _results["instrumented_seconds_per_publish"] = instrumented
    _results["instrumented_over_null"] = overhead
    print()
    print(f"null instrumentation:  {null * 1e6:.1f} us/publish")
    print(f"full instrumentation:  {instrumented * 1e6:.1f} us/publish ({overhead:.3f}x)")
    assert overhead <= OVERHEAD_CEILING, (
        f"instrumentation fast path regressed: {overhead:.3f}x >"
        f" {OVERHEAD_CEILING}x ceiling"
    )


def test_instrumented_report_pipeline():
    """Metrics + tracing + wire capture all live; the report works end-to-end."""
    network, broker, instrumentation = _mediation_stack(instrumented=True)
    event = _event()
    for _ in range(ROUNDS):
        broker.publish(event, topic="bench")
    assert network.instrumentation is instrumentation

    report = build_report(instrumentation)
    assert report["summary"]["spans"] > 0
    assert report["summary"]["wire_frames"] > 0
    counters = instrumentation.metrics.counter_values("notifications.delivered")
    assert any("family=wse" in key for key in counters)
    assert any("family=wsn" in key for key in counters)
    _results["spans_per_publish"] = report["summary"]["spans"] / ROUNDS
    _results["metric_series"] = len(instrumentation.metrics)
    _results["wire_frames_per_publish"] = report["summary"]["wire_frames"] / ROUNDS

    # end-to-end delivery latency (publish -> delivered on the virtual
    # clock) per family, from the lineage-fed SLO histograms
    latency = slo_summary(instrumentation.metrics)
    assert latency, "instrumented publishes must feed the latency histograms"
    for family in ("wse", "wsn"):
        assert family in latency["per_family"]
    _results["delivery_latency"] = latency["per_family"]

    # determinism: rendering twice yields byte-identical JSON
    assert render_json_report(instrumentation) == render_json_report(instrumentation)


def test_null_stack_stays_inert():
    """The default path installs no observers and reports disabled."""
    network, broker, _ = _mediation_stack(instrumented=False)
    broker.publish(_event(), topic="bench")
    assert network.instrumentation.enabled is False
    assert network.wire_observers == []


def test_gauge_series_from_the_health_minute():
    """Queue-depth/lag trajectories for the artifact — fully deterministic:
    the scripted obs-health scenario runs on the virtual clock, so these
    series are byte-stable across machines (unlike the timing fields)."""
    run = run_health_scenario()
    health = build_health_report(run)
    series = {
        key: [[round(at, 9), value] for at, value in run.probes.series(key)]
        for key in sorted(run.probes.history)
        if key.startswith(GAUGE_PREFIXES)
    }
    assert any(key.startswith("broker.sub_queue_depth") for key in series)
    assert any(
        key.startswith("delivery.oldest_queued_age_seconds") for key in series
    ), "lag series missing"
    assert any(key.startswith("mesh.") for key in series)
    assert any(key.startswith("store.parked_open") for key in series)
    assert all(len(points) == health["samples"] for points in series.values())
    _results["gauges"] = {
        "source": "obs-health scripted scenario (virtual clock, deterministic)",
        "samples": health["samples"],
        "interval_seconds": SAMPLE_INTERVAL,
        "series": series,
    }
    _results["health_anomalies"] = health["anomalies"]


def test_write_overhead_report():
    """Persist the trajectory artifact from the measurements above."""
    null = _results.get("null_seconds_per_publish")
    instrumented = _results.get("instrumented_seconds_per_publish")
    assert null and instrumented, "ordering: the ratio test must run first"
    assert "gauges" in _results, "ordering: the gauge-series test must run first"
    document = {
        "benchmark": "observability",
        "rounds": ROUNDS,
        "reps": REPS,
        "methodology": "interleaved best-of reps, GC disabled in timed loops",
        "null_seconds_per_publish": round(null, 9),
        "instrumented_seconds_per_publish": round(instrumented, 9),
        "instrumented_over_null": round(_results["instrumented_over_null"], 4),
        "overhead_ceiling": OVERHEAD_CEILING,
        "spans_per_publish": _results["spans_per_publish"],
        "wire_frames_per_publish": _results["wire_frames_per_publish"],
        "metric_series": _results["metric_series"],
        "delivery_latency": _results["delivery_latency"],
        "gauges": _results["gauges"],
        "health_anomalies": _results["health_anomalies"],
    }
    write_artifact(RESULT_FILE, document)


def test_schema_matches_committed_artifact():
    """The committed artifact must carry exactly the keys this bench writes
    (CI regenerates nothing; it rejects drift instead)."""
    import json

    committed = json.loads(RESULT_FILE.read_text())
    expected = {
        "benchmark",
        "rounds",
        "reps",
        "methodology",
        "null_seconds_per_publish",
        "instrumented_seconds_per_publish",
        "instrumented_over_null",
        "overhead_ceiling",
        "spans_per_publish",
        "wire_frames_per_publish",
        "metric_series",
        "delivery_latency",
        "gauges",
        "health_anomalies",
        "schema_version",
    }
    assert set(committed) == expected
    assert committed["instrumented_over_null"] <= OVERHEAD_CEILING
    assert set(committed["gauges"]) == {
        "source",
        "samples",
        "interval_seconds",
        "series",
    }
