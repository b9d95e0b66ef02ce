"""Backlog probes: gauges sampled on the virtual clock.

Counters say how much work *happened*; the health of a running broker lives
in how much work is *waiting*.  A :class:`GaugeProbes` holds a catalogue of
backlog sources — callables returning a depth, lag or age — and every
:meth:`~GaugeProbes.sample` sweep reads them all, publishes each value as a
gauge and keeps a short bounded history per series, which is what the
``obs-health`` anomaly probes (queue growth) and the benchmark gauge series
are computed from.

The standard catalogue (see the ``watch_*`` registrars) covers every
backlog in the system:

* delivery: per-sink retry queues, DLQ depth, parked message boxes,
  batcher pending sets, open breakers, scheduled retry wake-ups, and the
  age of the oldest queued task (lag);
* broker internals: WSN paused-subscription queues and WSE pull-mode
  queues (messages buffered awaiting resume/drain);
* mesh: federation links per node and tracked-key ownership per node;
* store: event-log length and settled/parked projection sizes.

Sampling runs on the :class:`~repro.transport.clock.ClockScheduler`, so
sample times are virtual, deterministic and golden-testable — no
wall-clock ever leaks into a sample (asserted by tests).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.obs.metrics import metric_key


class GaugeProbes:
    """A catalogue of backlog sources, swept into gauges on demand."""

    def __init__(self, instrumentation, *, history: int = 32) -> None:
        self.instrumentation = instrumentation
        self.history_limit = history
        #: (gauge name, labels, source) in registration order
        self._sources: list[tuple[str, dict[str, str], Callable[[], float]]] = []
        #: bounded per-series history of (virtual time, value) pairs
        self.history: dict[str, deque] = {}
        self.samples = 0

    # --- catalogue ---------------------------------------------------------

    def add_source(
        self, name: str, source: Callable[[], float], **labels: str
    ) -> None:
        """Register one backlog source; swept by every :meth:`sample`."""
        self._sources.append((name, labels, source))

    def watch_delivery_manager(self, manager, **labels: str) -> None:
        """Retry queues, DLQ, breakers, wake-ups and queue age of one
        :class:`~repro.delivery.manager.DeliveryManager`."""
        clock = manager.clock
        self.add_source("delivery.pending", manager.pending, **labels)
        self.add_source("delivery.dlq_depth", lambda: len(manager.dlq), **labels)
        self.add_source(
            "delivery.breakers_open", lambda: manager.breakers_open, **labels
        )
        self.add_source(
            "delivery.retry_wakeups", lambda: len(manager._wakeups), **labels
        )

        def oldest_age() -> float:
            oldest: Optional[float] = None
            for queue in manager._queues.values():
                for task in queue:
                    if oldest is None or task.enqueued_at < oldest:
                        oldest = task.enqueued_at
            return 0.0 if oldest is None else clock.now() - oldest

        self.add_source("delivery.oldest_queued_age_seconds", oldest_age, **labels)
        boxes = manager.message_boxes
        if boxes is not None:
            self.add_source("delivery.parked_pending", boxes.total_parked, **labels)

    def watch_batcher(self, batcher, *, family: str, **labels: str) -> None:
        self.add_source("delivery.batch_pending", batcher.pending, family=family, **labels)

    def watch_broker(self, broker, **labels: str) -> None:
        """Everything one :class:`~repro.messenger.WsMessenger` queues."""
        if broker.delivery_manager is not None:
            self.watch_delivery_manager(broker.delivery_manager, **labels)
        # wrapped batches are held in subscription queues, which the
        # broker.sub_queue_depth sources below already cover; only a WSN
        # producer's push row coalesces in a DeliveryBatcher
        for version, producer in sorted(
            broker.wsn_producers.items(), key=lambda kv: kv[0].name
        ):
            if producer.batcher is not None:
                self.watch_batcher(
                    producer.batcher,
                    family="wsn",
                    tag=version.name.lower(),
                    **labels,
                )

        def queued(family: str):
            return lambda: sum(
                len(subscription.queue)
                for held_by, _, manager in broker.subscription_managers()
                if held_by == family
                for subscription in manager.records.values()
            )

        for family in ("wse", "wsn"):
            self.add_source("broker.sub_queue_depth", queued(family), family=family, **labels)
        if broker.store is not None:
            self.watch_store(broker.store, **labels)

    def watch_store(self, store, **labels: str) -> None:
        """Event-log length and projection sizes of one broker store."""
        self.add_source("store.log_records", lambda: len(store.log), **labels)
        self.add_source(
            "store.settled_outcomes", lambda: len(store._settled), **labels
        )
        self.add_source(
            "store.parked_open", lambda: len(store._parked), **labels
        )

    def watch_node(self, node) -> None:
        """Federation link count of one mesh node (labelled by node name)."""
        self.add_source(
            "mesh.links_active",
            lambda: len(node.links.links()),
            node=node.name,
        )

    def watch_cluster(self, cluster) -> None:
        """Per-node ownership counts + link traffic of a whole mesh."""
        for node in cluster:
            self.watch_node(node)

            def owned(node=node) -> int:
                current = cluster.registry.current
                return sum(
                    1
                    for key in sorted(cluster.tracked_keys())
                    if current.owner(key) == node.name
                )

            self.add_source("mesh.owned_keys", owned, node=node.name)

            def pending(node=node) -> int:
                return node.pending_deliveries()

            self.add_source("mesh.pending_deliveries", pending, node=node.name)

    # --- sweeping ----------------------------------------------------------

    def sample(self) -> dict[str, float]:
        """Sweep every source once: set gauges, extend histories.

        Returns the swept values keyed by rendered series name (cold path —
        rendering here is fine).
        """
        instr = self.instrumentation
        now = instr.clock.now()
        swept: dict[str, float] = {}
        for name, labels, source in self._sources:
            value = float(source())
            instr.gauge(name, value, **labels)
            key = metric_key(name, labels)
            series = self.history.get(key)
            if series is None:
                series = self.history[key] = deque(maxlen=self.history_limit)
            series.append((now, value))
            swept[key] = value
        self.samples += 1
        instr.count("obs.samples_total")
        instr.gauge("obs.last_sample_at", now)
        return swept

    def schedule(self, scheduler, *, interval: float, count: int) -> None:
        """Arm ``count`` sweeps, ``interval`` apart, starting one interval
        from now — all on the virtual scheduler, so sample times are exact
        multiples and runs are deterministic."""
        base = self.instrumentation.clock.now()
        for i in range(1, count + 1):
            scheduler.call_at(base + i * interval, self.sample)

    # --- reading -----------------------------------------------------------

    def series(self, key: str) -> list[tuple[float, float]]:
        return list(self.history.get(key, ()))

    def last_values(self) -> dict[str, float]:
        return {
            key: series[-1][1] for key, series in sorted(self.history.items())
        }

    def growth_anomalies(self, *, min_samples: int = 4) -> list[dict]:
        """Series that grew monotonically across the whole retained window.

        A backlog that rises on *every* sample of the window — never once
        draining — is the unbounded-growth signature; transient spikes that
        drain in between samples do not trip this.
        """
        anomalies = []
        for key, series in sorted(self.history.items()):
            if len(series) < min_samples:
                continue
            values = [value for _, value in series]
            if all(b > a for a, b in zip(values, values[1:])):
                anomalies.append(
                    {
                        "gauge": key,
                        "first": values[0],
                        "last": values[-1],
                        "samples": len(values),
                    }
                )
        return anomalies
