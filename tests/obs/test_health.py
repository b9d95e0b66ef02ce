"""The obs-health scenario and its anomaly probes."""

import pytest

from repro.obs.health import (
    breaker_flaps,
    build_health_report,
    conservation_drift,
    queue_growth_anomalies,
    run_health_scenario,
    stale_batch_timers,
)
from repro.obs.instrument import Instrumentation
from repro.transport import SimulatedNetwork, VirtualClock


@pytest.fixture(scope="module")
def health_run():
    # module-scoped: the scripted minute is the expensive part, the probes
    # under test only read from it
    return run_health_scenario()


class TestScriptedScenario:
    def test_every_anomaly_probe_fires(self, health_run):
        report = build_health_report(health_run)
        assert report["queue_growth"], "paused/parked backlogs must trip growth"
        assert report["breaker_flaps"], "the flaky consumer must flap"
        assert report["stale_batches"], "the stranded batch must go stale"
        assert report["anomalies"] >= 3

    def test_conservation_balances_despite_the_degradation(self, health_run):
        drift = conservation_drift(
            health_run.instrumentation, health_run.brokers
        )
        assert drift["drift"] == 0
        assert drift["ledger_pending"] == drift["live_parked"]

    def test_paused_queue_is_the_growth_anomaly(self, health_run):
        gauges = [a["gauge"] for a in queue_growth_anomalies(health_run.probes)]
        assert any(g.startswith("broker.sub_queue_depth") for g in gauges)
        # the append-only store log also grows monotonically but must NOT be
        # flagged: unbounded growth is its job
        assert not any(g.startswith("store.") for g in gauges)

    def test_registry_saw_every_hot_path(self, health_run):
        metrics = health_run.instrumentation.metrics
        for name in (
            "broker.publications",
            "delivery.delivered",
            "delivery.breaker_transitions",
            "store.log_appends",
            "obs.samples_total",
        ):
            assert sum(metrics.counter_values(name).values()) > 0, name

    def test_every_watched_gauge_is_a_full_series(self, health_run):
        # queue depths and lag of the broker, the delivery layer, the mesh and
        # the store, one point per sweep
        samples = build_health_report(health_run)["samples"]
        series = {
            key: health_run.probes.series(key)
            for key in health_run.probes.history
            if key.startswith(("broker.", "delivery.", "mesh.", "store."))
        }
        for family in (
            "broker.sub_queue_depth",
            "delivery.oldest_queued_age_seconds",
            "mesh.",
            "store.parked_open",
        ):
            assert any(key.startswith(family) for key in series), family
        assert {len(points) for points in series.values()} == {samples}

    def test_mesh_rebalance_counted(self, health_run):
        counters = health_run.instrumentation.metrics.counter_values(
            "mesh.rebalances"
        )
        assert sum(counters.values()) == 1


class TestProbeUnits:
    def test_breaker_flaps_threshold(self):
        network = SimulatedNetwork(VirtualClock())
        instrumentation = Instrumentation.attach(network)
        # a sink address may itself contain the "," and "=" of a rendered
        # metric key; the probe must still see it whole
        for sink in ("http://s", "http://s/a,b=c"):
            for state in ("open", "half_open", "open"):
                instrumentation.count(
                    "delivery.breaker_transitions", sink=sink, state=state
                )
        instrumentation.count(
            "delivery.breaker_transitions", sink="http://quiet", state="open"
        )
        flaps = breaker_flaps(instrumentation, threshold=3)
        assert [flap["sink"] for flap in flaps] == ["http://s", "http://s/a,b=c"]
        for flap in flaps:
            assert flap["transitions"] == 3
            assert flap["by_state"] == {"open": 2, "half_open": 1}

    def test_stale_batch_timers_empty_on_flushed_brokers(self, health_run):
        # only the deliberately-stranded publish is stale; a freshly-pumped
        # mesh shard reports nothing
        mesh_brokers = [node.broker for node in health_run.cluster]
        assert stale_batch_timers(mesh_brokers) == []
        core = stale_batch_timers([health_run.broker])
        assert core and all(f["stale_groups"] > 0 for f in core)
