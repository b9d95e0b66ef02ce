"""Gauge probes: virtual-clock sampling, no wall leakage."""

from repro.obs.instrument import Instrumentation
from repro.obs.probes import GaugeProbes
from repro.transport import SimulatedNetwork, VirtualClock
from repro.transport.clock import ClockScheduler


def attached():
    network = SimulatedNetwork(VirtualClock())
    return network, Instrumentation.attach(network)


class TestSampling:
    def test_sample_sets_gauges_and_history_on_virtual_time(self):
        network, instrumentation = attached()
        probes = GaugeProbes(instrumentation)
        depth = {"value": 3}
        probes.add_source("delivery.pending", lambda: depth["value"], site="t")
        network.clock.advance(2.0)
        swept = probes.sample()
        assert swept == {"delivery.pending{site=t}": 3.0}
        depth["value"] = 5
        network.clock.advance(2.0)
        probes.sample()
        # history carries (virtual time, value) pairs — no wall clock
        assert probes.series("delivery.pending{site=t}") == [
            (2.0, 3.0),
            (4.0, 5.0),
        ]
        assert instrumentation.metrics.gauge_values("delivery.pending") == {
            "delivery.pending{site=t}": 5.0
        }
        assert instrumentation.metrics.gauge_values("obs.last_sample_at") == {
            "obs.last_sample_at": 4.0
        }

    def test_scheduled_sweeps_land_on_exact_interval_multiples(self):
        network, instrumentation = attached()
        probes = GaugeProbes(instrumentation)
        probes.add_source("delivery.pending", lambda: 0.0)
        scheduler = ClockScheduler(network.clock)
        probes.schedule(scheduler, interval=10.0, count=3)
        scheduler.run_until_idle()
        assert probes.samples == 3
        assert [at for at, _ in probes.series("delivery.pending")] == [
            10.0,
            20.0,
            30.0,
        ]
        assert network.clock.now() == 30.0

    def test_history_is_bounded(self):
        _, instrumentation = attached()
        probes = GaugeProbes(instrumentation, history=4)
        probes.add_source("delivery.pending", lambda: 1.0)
        for _ in range(10):
            probes.sample()
        assert len(probes.series("delivery.pending")) == 4


class TestGrowthAnomalies:
    def test_strictly_monotonic_series_flagged(self):
        _, instrumentation = attached()
        probes = GaugeProbes(instrumentation)
        backlog = {"value": 0}
        probes.add_source("broker.sub_queue_depth", lambda: backlog["value"])
        for value in (1, 2, 3, 4):
            backlog["value"] = value
            probes.sample()
        (anomaly,) = probes.growth_anomalies()
        assert anomaly == {
            "gauge": "broker.sub_queue_depth",
            "first": 1.0,
            "last": 4.0,
            "samples": 4,
        }

    def test_series_that_drains_once_is_not_flagged(self):
        _, instrumentation = attached()
        probes = GaugeProbes(instrumentation)
        backlog = {"value": 0}
        probes.add_source("broker.sub_queue_depth", lambda: backlog["value"])
        for value in (1, 2, 0, 4):  # drained at the third sample
            backlog["value"] = value
            probes.sample()
        assert probes.growth_anomalies() == []

    def test_short_series_not_flagged(self):
        _, instrumentation = attached()
        probes = GaugeProbes(instrumentation)
        backlog = {"value": 0}
        probes.add_source("broker.sub_queue_depth", lambda: backlog["value"])
        for value in (1, 2, 3):
            backlog["value"] = value
            probes.sample()
        assert probes.growth_anomalies(min_samples=4) == []
