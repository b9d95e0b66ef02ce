"""Adaptive QoS on the delivery pipeline: bounded queues, pacing, shedding.

Each shed message is an *accounted* broker decision: the lineage ledger
closes its obligation with a ``shed`` event, so the conservation audit
(``opened == delivered + dead_lettered + failed + shed + pending``) keeps
balancing even while the broker is dropping load on the floor.
"""

import pytest

from repro.delivery import (
    DeliveryItem,
    DeliveryManager,
    DeliveryPolicy,
    MessageBoxRegistry,
    TaskStatus,
)
from repro.messenger import WsMessenger
from repro.obs.audit import audit
from repro.obs.instrument import Instrumentation
from repro.qos import AdaptiveQosController, AdaptiveQosPolicy, DiscardPolicy, QosProfile
from repro.transport import FirewallBlocked, MessageLost, SimulatedNetwork, VirtualClock
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.xmlkit import parse_xml


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:aq"><e:n>{n}</e:n></e:V>')


class StuckSend:
    """Always fails: keeps the sink queue backed up."""

    def __init__(self, error=MessageLost):
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        raise self.error("injected")


def make_manager(
    *,
    qos_policy=None,
    policy=None,
    boxes=False,
    box_capacity=10_000,
    instrument=False,
):
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network) if instrument else None
    registry = (
        MessageBoxRegistry(network, "http://broker/msgbox", capacity=box_capacity)
        if boxes
        else None
    )
    controller = (
        AdaptiveQosController(network.clock, policy=qos_policy)
        if qos_policy is not None
        else None
    )
    manager = DeliveryManager(
        network,
        policy=policy or DeliveryPolicy(max_attempts=3, base_backoff=1.0, jitter=0.0),
        message_boxes=registry,
        qos=controller,
    )
    return network, manager, instrumentation


def submit_traced(manager, instrumentation, sink, send, n=1, priority=0):
    """Submit one lineage-bearing item so the ledger opens an obligation."""
    with instrumentation.span("publish", mint=True) as span:
        instrumentation._ledger_record(span.lineage, "published", family="test")
        return manager.submit(
            sink,
            send,
            items=[DeliveryItem(event(n), lineage=instrumentation.trace_context())],
            family="test",
            priority=priority,
        )


class TestBoundedQueues:
    def test_fifo_shed_keeps_queue_bounded(self):
        _, manager, _ = make_manager(
            qos_policy=AdaptiveQosPolicy(max_sink_queue=3)
        )
        send = StuckSend()
        tasks = [manager.submit("http://slow", send, items=[DeliveryItem(event(n))]) for n in range(8)]
        assert manager.pending() <= 3
        assert manager.stats.shed == 5
        shed = [t for t in tasks if t.status is TaskStatus.SHED]
        assert len(shed) == 5
        assert all(t.last_error == "queue_full" for t in shed)

    def test_lifo_policy_rejects_newest(self):
        _, manager, _ = make_manager(
            qos_policy=AdaptiveQosPolicy(
                max_sink_queue=2, discard_policy=DiscardPolicy.LIFO_ORDER
            )
        )
        send = StuckSend()
        first = manager.submit("http://slow", send, items=[DeliveryItem(event(0))])
        second = manager.submit("http://slow", send, items=[DeliveryItem(event(1))])
        third = manager.submit("http://slow", send, items=[DeliveryItem(event(2))])
        assert (first.status, second.status) == (TaskStatus.QUEUED, TaskStatus.QUEUED)
        assert third.status is TaskStatus.SHED

    def test_priority_policy_sheds_lowest_waiting(self):
        _, manager, _ = make_manager(
            qos_policy=AdaptiveQosPolicy(
                max_sink_queue=2, discard_policy=DiscardPolicy.PRIORITY_ORDER
            )
        )
        send = StuckSend()
        manager.submit("http://slow", send, priority=5)
        low = manager.submit("http://slow", send, priority=1)
        vip = manager.submit("http://slow", send, priority=9)
        assert low.status is TaskStatus.SHED
        assert vip.status is TaskStatus.QUEUED

    def test_consumer_profile_overrides_policy_bound(self):
        _, manager, _ = make_manager(
            qos_policy=AdaptiveQosPolicy(max_sink_queue=50)
        )
        manager.qos.register_consumer(
            "http://slow", QosProfile({"MaxEventsPerConsumer": 1})
        )
        send = StuckSend()
        manager.submit("http://slow", send)
        overflow = manager.submit("http://slow", send)
        assert overflow.status is TaskStatus.SHED

    def test_shed_closes_the_obligation_books(self):
        _, manager, instrumentation = make_manager(
            qos_policy=AdaptiveQosPolicy(max_sink_queue=2),
            instrument=True,
        )
        send = StuckSend()
        for n in range(6):
            submit_traced(manager, instrumentation, "http://slow", send, n)
        manager.run_until_idle()
        result = audit(instrumentation)
        assert result.passed, [f.render() for f in result.findings]
        assert result.opened == 6
        assert result.shed == manager.stats.shed > 0
        assert result.pending == 0
        counters = instrumentation.metrics.snapshot()["counters"]
        assert (
            counters["qos.shed_total{family=test,reason=queue_full}"]
            == manager.stats.shed
        )

    @pytest.mark.parametrize("bounded", [False, True], ids=["no_qos", "adaptive"])
    def test_an_outage_backlog_stays_under_the_cap_only_with_qos(self, bounded):
        """Three consumers dark while 120 publishes arrive at 20/s, then back."""
        qos = AdaptiveQosPolicy(max_sink_queue=4, per_sink_rate=25.0, per_sink_burst=5.0)
        network = SimulatedNetwork(VirtualClock(), seed=20060813)
        instrumentation = Instrumentation.attach(network)
        broker = WsMessenger(
            network,
            "http://aq-broker",
            # retries outlast the outage: without QoS the backlog queues, it is not dead-lettered
            delivery=DeliveryPolicy(
                max_attempts=30, base_backoff=0.25, max_backoff=0.5, jitter=0.0,
                breaker_failure_threshold=100,
            ),
            delivery_seed=20060813,
            qos=qos if bounded else None,
        )
        consumers = [NotificationConsumer(network, f"http://aq-c/{n}") for n in range(3)]
        for consumer in consumers:
            WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="aq")
        dark = {consumer.address for consumer in consumers}

        def outage(address, request):
            if address in dark:
                raise MessageLost(address)

        network.observers.append(outage)
        manager = broker.delivery_manager
        backlog = []
        manager.backlog_listeners.append(backlog.append)
        for n in range(120):
            broker.publish(event(n), topic="aq")
            network.clock.advance(1.0 / 20.0)
            manager.run_due()
        dark.clear()
        broker.run_deliveries_until_idle()

        ceiling = qos.max_sink_queue * len(consumers)
        assert (max(backlog) <= ceiling) is bounded
        assert (manager.stats.shed > 0) is bounded
        delivered = sum(len(consumer.received) for consumer in consumers)
        assert delivered + manager.stats.shed == 120 * len(consumers)
        result = audit(instrumentation)
        assert result.passed, [f.render() for f in result.findings]
        assert (result.shed, result.pending) == (manager.stats.shed, 0)


class TestBoxOverflowAccounting:
    def test_overflow_at_capacity_is_shed_not_lost(self):
        # conservation at capacity: items the full box drops must close as
        # shed (reason=box_overflow), not dangle as pending forever
        _, manager, instrumentation = make_manager(
            boxes=True, box_capacity=2, instrument=True
        )
        send = StuckSend(error=FirewallBlocked)
        for n in range(5):
            submit_traced(manager, instrumentation, "http://firewalled", send, n)
        box = manager.message_boxes.get("http://firewalled")
        assert box is not None and len(box) == 2
        assert box.overflowed == 3
        assert manager.stats.parked == 2
        assert manager.stats.shed == 3
        result = audit(instrumentation)
        assert result.passed, [f.render() for f in result.findings]
        assert result.pending == 2  # the parked two await pull
        assert result.shed == 3
        counters = instrumentation.metrics.snapshot()["counters"]
        assert counters["qos.shed_total{family=test,reason=box_overflow}"] == 3

    def test_mixed_park_and_overflow_in_one_task(self):
        _, manager, instrumentation = make_manager(
            boxes=True, box_capacity=1, instrument=True
        )
        send = StuckSend(error=FirewallBlocked)
        with instrumentation.span("publish", mint=True) as span:
            instrumentation._ledger_record(span.lineage, "published", family="test")
            lineage = instrumentation.trace_context()
            task = manager.submit(
                "http://firewalled",
                send,
                items=[DeliveryItem(event(n), lineage=lineage) for n in range(3)],
                family="test",
            )
        assert task.status is TaskStatus.PARKED  # at least one item parked
        assert manager.stats.parked == 1 and manager.stats.shed == 2
        result = audit(instrumentation)
        assert result.passed, [f.render() for f in result.findings]
        assert (result.pending, result.shed) == (1, 2)


class TestPacing:
    def test_token_bucket_levels_the_send_rate(self):
        network, manager, _ = make_manager(
            qos_policy=AdaptiveQosPolicy(per_sink_rate=1.0, per_sink_burst=1.0),
        )
        delivered_at = []

        def send():
            delivered_at.append(network.clock.now())

        for n in range(3):
            manager.submit("http://paced", send, items=[DeliveryItem(event(n))])
        manager.run_until_idle()
        assert delivered_at == [0.0, 1.0, 2.0]
        assert manager.stats.throttled >= 2
        assert manager.stats.delivered == 3

    def test_throttled_attempts_consume_no_retry_budget(self):
        network, manager, _ = make_manager(
            qos_policy=AdaptiveQosPolicy(per_sink_rate=0.5, per_sink_burst=1.0),
            policy=DeliveryPolicy(max_attempts=1),
        )
        sends = []
        for n in range(4):
            manager.submit(
                "http://paced", lambda: sends.append(1), items=[DeliveryItem(event(n))]
            )
        manager.run_until_idle()
        # max_attempts=1, yet every message eventually goes out: waiting for
        # tokens is load leveling, not a failed attempt
        assert len(sends) == 4
        assert manager.stats.dead_lettered == 0

    def test_throttle_counter_is_published(self):
        _, manager, instrumentation = make_manager(
            qos_policy=AdaptiveQosPolicy(per_sink_rate=1.0, per_sink_burst=1.0),
            instrument=True,
        )
        for n in range(2):
            submit_traced(manager, instrumentation, "http://paced", lambda: None, n)
        manager.run_until_idle()
        counters = instrumentation.metrics.snapshot()["counters"]
        assert counters["qos.throttled_total{family=test}"] == manager.stats.throttled
        assert manager.stats.throttled >= 1


class TestBacklogListeners:
    def test_listeners_see_growth_and_drain(self):
        network, manager, _ = make_manager(
            policy=DeliveryPolicy(max_attempts=2, base_backoff=1.0, jitter=0.0)
        )
        seen = []
        manager.backlog_listeners.append(seen.append)
        flaky = [True]

        def send():
            if flaky[0]:
                flaky[0] = False
                raise MessageLost("injected")

        manager.submit("http://sink", send, items=[DeliveryItem(event())])
        assert seen and seen[-1] == 1  # growth observed at submit
        manager.run_until_idle()
        assert seen[-1] == 0  # drain observed after the retry delivered
