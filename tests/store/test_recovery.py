"""Crash recovery from the event log: replayable projections end to end."""

import dataclasses

import pytest

from repro.delivery import BatchingPolicy, DeliveryPolicy, drain_message_box_wse
from repro.delivery.manager import DeliveryManager
from repro.delivery.task import DeliveryTask
from repro.mesh import MeshCluster
from repro.messenger import WsMessenger
from repro.obs import Instrumentation
from repro.obs.audit import audit
from repro.qos import AdaptiveQosPolicy, DiscardPolicy, QosProfile
from repro.store import BrokerStore, FileEventLog, MemoryEventLog, recover_broker
from repro.store.records import OutcomeRecorded, PublishRecorded
from repro.subscriptions import SubscriptionService
from repro.transport import SimulatedNetwork, VirtualClock
from repro.util.xstime import format_datetime
from repro.wsa.epr import EndpointReference
from repro.wse import DeliveryMode, EventSink, WseSubscriber, WseVersion
from repro.wsn import NotificationConsumer, WsnSubscriber, WsnVersion
from repro.xmlkit import parse_xml
from repro.xmlkit.element import text_element
from repro.xmlkit.names import Namespaces, QName
from repro.xmlkit.template import TEMPLATE_STATS
from repro.xmlkit.writer import WRITER_STATS


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:rc"><e:n>{n}</e:n></e:V>')


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


def _broker(network, log=None, **kwargs):
    # explicit None check: an empty FileEventLog is falsy but very much a log
    store = BrokerStore(log if log is not None else MemoryEventLog())
    return WsMessenger(network, "http://rc-broker", store=store, **kwargs)


def _recover(network, log, **kwargs):
    return recover_broker(network, "http://rc-broker", log, **kwargs)


class TestIdentityPreservation:
    def test_subscription_ids_survive_the_crash(self, network):
        broker = _broker(network)
        sink = EventSink(network, "http://rc-sink")
        consumer = NotificationConsumer(network, "http://rc-consumer")
        wse_handle = WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        wsn_handle = WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="rc")
        projection = broker.store.projection(broker)
        broker.close()
        recovered = _recover(network, broker.store.log)
        assert recovered.store.projection(recovered) == projection
        keys = set(recovered.store.projection(recovered)["subscriptions"])
        assert f"wse:v2004_08:{wse_handle.sub_id}" in keys
        assert f"wsn:v1_3:{wsn_handle.sub_id}" in keys

    def test_old_manager_eprs_still_work(self, network):
        broker = _broker(network)
        sink = EventSink(network, "http://rc-sink")
        consumer = NotificationConsumer(network, "http://rc-consumer")
        wse_subscriber = WseSubscriber(network)
        wsn_subscriber = WsnSubscriber(network)
        wse_handle = wse_subscriber.subscribe(broker.epr(), notify_to=sink.epr())
        wsn_handle = wsn_subscriber.subscribe(broker.epr(), consumer.epr(), topic="rc")
        broker.close()
        recovered = _recover(network, broker.store.log)
        # the manager EPRs minted before the crash address the new broker's
        # managers and carry the same subscription identity
        assert wse_subscriber.get_status(wse_handle)
        wse_subscriber.renew(wse_handle, "PT2H")
        wsn_subscriber.renew(wsn_handle, "PT2H")
        wse_subscriber.unsubscribe(wse_handle)
        wsn_subscriber.unsubscribe(wsn_handle)
        assert recovered.subscription_count() == 0

    def test_granted_expiry_preserved_not_regranted(self, network):
        broker = _broker(network)
        sink = EventSink(network, "http://rc-sink")
        subscriber = WseSubscriber(network)
        handle = subscriber.subscribe(broker.epr(), notify_to=sink.epr(), expires="PT1H")
        subscriber.renew(handle, "PT4H")
        network.clock.advance(1800.0)  # recovery happens half an hour in
        broker.close()
        recovered = _recover(network, broker.store.log)
        projection = recovered.store.projection(recovered)
        [entry] = projection["subscriptions"].values()
        # absolute expiry from the Renew grant, not 4h from recovery time
        assert entry["expires"] == pytest.approx(4 * 3600.0, abs=1.0)

    def test_unsubscribed_subscriptions_stay_gone(self, network):
        broker = _broker(network)
        sink = EventSink(network, "http://rc-sink")
        keeper = EventSink(network, "http://rc-keeper")
        subscriber = WseSubscriber(network)
        handle = subscriber.subscribe(broker.epr(), notify_to=sink.epr())
        kept = subscriber.subscribe(broker.epr(), notify_to=keeper.epr())
        subscriber.unsubscribe(handle)
        broker.close()
        recovered = _recover(network, broker.store.log)
        assert recovered.subscription_count() == 1
        keys = set(recovered.store.projection(recovered)["subscriptions"])
        assert keys == {f"wse:v2004_08:{kept.sub_id}"}


class TestObligationRecovery:
    def test_no_duplicate_deliveries_on_replay(self, network):
        instrumentation = Instrumentation.attach(network)
        broker = _broker(network)
        sink = EventSink(network, "http://rc-sink")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        for n in range(4):
            broker.publish(event(n), topic="rc")
        broker.run_deliveries_until_idle()
        assert len(sink.received) == 4
        broker.close()
        recovered = _recover(network, broker.store.log)
        recovered.run_deliveries_until_idle()
        # settled deliveries replay as suppressed obligations, never re-sent
        assert len(sink.received) == 4
        assert recovered.store.stats.suppressed == 4
        recovered.publish(event(9), topic="rc")
        recovered.run_deliveries_until_idle()
        assert len(sink.received) == 5
        assert audit(instrumentation, scenario="recovery").passed

    def test_parked_obligations_survive_and_drain(self, network):
        network.add_zone("rc-dmz", blocks_inbound=True)
        broker = _broker(network)
        sink = EventSink(network, "http://rc-inside", zone="rc-dmz")
        WseSubscriber(network, zone="rc-dmz").subscribe(broker.epr(), notify_to=sink.epr())
        broker.publish(event(1), topic="rc")
        broker.publish(event(2), topic="rc")
        broker.run_deliveries_until_idle()
        projection = broker.store.projection(broker)
        assert projection["boxes"]["http://rc-inside"]["pending"] == 2
        broker.close()
        recovered = _recover(network, broker.store.log)
        recovered.run_deliveries_until_idle()
        assert recovered.store.stats.reparked == 2
        assert recovered.store.projection(recovered) == projection
        box = recovered.message_boxes.get("http://rc-inside")
        payloads = drain_message_box_wse(network, box.epr(), zone="rc-dmz")
        assert [p.full_text() for p in payloads] == ["1", "2"]

    def test_dead_letters_survive_and_replay(self, network):
        policy = DeliveryPolicy(max_attempts=2, base_backoff=1.0, jitter=0.0)
        broker = _broker(network, delivery=policy)
        consumer = NotificationConsumer(network, "http://rc-dark")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="rc")
        consumer.close()
        broker.publish(event(1), topic="rc")
        broker.run_deliveries_until_idle()
        assert len(broker.delivery_manager.dlq) == 1
        broker.close()
        recovered = _recover(network, broker.store.log, delivery=policy)
        recovered.run_deliveries_until_idle()
        assert recovered.store.stats.redead == 1
        assert len(recovered.delivery_manager.dlq) == 1
        # the consumer comes back; DLQ replay delivers exactly once
        revived = NotificationConsumer(network, "http://rc-dark")
        assert recovered.delivery_manager.dlq.replay(recovered.delivery_manager) == 1
        recovered.run_deliveries_until_idle()
        assert len(revived.received) == 1

    def test_pull_queue_trimmed_to_undrained_suffix(self, network):
        broker = _broker(network)
        subscriber = WseSubscriber(network)
        handle = subscriber.subscribe(broker.epr(), mode=DeliveryMode.PULL)
        for n in range(4):
            broker.publish(event(n), topic="rc")
        broker.run_deliveries_until_idle()
        assert len(subscriber.pull(handle, max_messages=2)) == 2
        projection = broker.store.projection(broker)
        [entry] = projection["subscriptions"].values()
        assert entry["queued"] == 2
        broker.close()
        recovered = _recover(network, broker.store.log)
        recovered.run_deliveries_until_idle()
        assert recovered.store.projection(recovered) == projection
        # only the undrained suffix is still pullable
        remaining = subscriber.pull(handle)
        assert [p.full_text() for p in remaining] == ["2", "3"]

    def test_a_half_pulled_batch_re_parks_only_what_is_owed(self, network):
        """A wrapped batch of two parked at a firewalled sink, its first item
        pulled before the crash: the replayed batch re-parks the second only."""
        network.add_zone("rc-dmz", blocks_inbound=True)
        config = dict(batching=BatchingPolicy(window=0.0, max_batch=2))
        broker = _broker(network, **config)
        sink = EventSink(network, "http://rc-inside", zone="rc-dmz")
        WseSubscriber(network, zone="rc-dmz").subscribe(
            broker.epr(), notify_to=sink.epr(), mode=DeliveryMode.WRAPPED
        )
        for n in range(2):
            broker.publish(event(n), topic="rc")
        broker.run_deliveries_until_idle()
        box = broker.message_boxes.get("http://rc-inside")
        pulled = drain_message_box_wse(network, box.epr(), zone="rc-dmz", max_messages=1)
        assert [p.full_text() for p in pulled] == ["0"]
        projection = broker.store.projection(broker)
        assert projection["boxes"]["http://rc-inside"]["pending"] == 1
        broker.close()
        recovered = _recover(network, broker.store.log, **config)
        assert recovered.store.stats.reparked == 1
        assert recovered.store.projection(recovered) == projection
        box = recovered.message_boxes.get("http://rc-inside")
        assert [p.full_text() for p in drain_message_box_wse(network, box.epr(), zone="rc-dmz")] == ["1"]

    def test_wsn_pause_state_survives(self, network):
        broker = _broker(network)
        consumer = NotificationConsumer(network, "http://rc-consumer")
        subscriber = WsnSubscriber(network)
        handle = subscriber.subscribe(broker.epr(), consumer.epr(), topic="rc")
        subscriber.pause(handle)
        broker.publish(event(1), topic="rc")
        broker.run_deliveries_until_idle()
        assert consumer.received == []
        broker.close()
        recovered = _recover(network, broker.store.log)
        recovered.run_deliveries_until_idle()
        [entry] = recovered.store.projection(recovered)["subscriptions"].values()
        assert entry["paused"] is True

    def test_dangling_obligations_fail_closed(self, network):
        """A crash strands an unsettled obligation; recovery closes the books."""
        instrumentation = Instrumentation.attach(network)
        policy = DeliveryPolicy(max_attempts=5, base_backoff=10.0, jitter=0.0)
        broker = _broker(network, delivery=policy)
        consumer = NotificationConsumer(network, "http://rc-dark")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="rc")
        consumer.close()
        broker.publish(event(1), topic="rc")
        # crash while the retry is still backing off: no outcome was logged
        broker.close()
        recovered = _recover(network, broker.store.log, delivery=policy)
        recovered.run_deliveries_until_idle()
        assert recovered.store.stats.crash_failures == 1
        result = audit(instrumentation, scenario="dangling")
        assert result.passed
        assert result.failed == 1


class TestShedIsTerminal:
    def test_shed_obligations_stay_shed_across_recovery(self, network):
        """Six publishes at a dark sink behind a two-deep queue: four are
        shed, two are in flight when the broker dies.  A shed obligation is
        settled — replay must neither re-attempt it nor turn its ``dead`` /
        ``shed:`` record into a dead letter, and the books it closed must
        count as closed (they used to be failed a second time)."""
        instrumentation = Instrumentation.attach(network)
        config = dict(
            delivery=DeliveryPolicy(max_attempts=3, base_backoff=5, jitter=0.0),
            qos=AdaptiveQosPolicy(max_sink_queue=2),
        )
        broker = _broker(network, **config)
        sink = EventSink(network, "http://rc-dark")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        sink.close()
        for n in range(6):
            broker.publish(event(n), topic="rc")
        manager = broker.delivery_manager
        assert (manager.stats.shed, manager.pending(), len(manager.dlq)) == (4, 2, 0)
        live = broker.store.projection(broker)
        log_before = len(broker.store.log)
        broker.close()
        sink = EventSink(network, "http://rc-dark")  # back before the restart
        recovered = _recover(network, broker.store.log, **config)
        assert recovered.store.projection(recovered)["dead_letters"] == live["dead_letters"] == 0
        stats = recovered.store.stats
        assert (stats.suppressed, stats.redead, stats.crash_failures) == (4, 0, 2)
        recovered.run_deliveries_until_idle()
        # only the two genuinely in flight went out, once each; the log gained
        # their two outcomes and nothing for the shed four
        assert [item.payload.full_text() for item in sink.received] == ["0", "5"]
        assert len(recovered.store.log) == log_before + 2
        result = audit(instrumentation, scenario="shed-replay")
        assert result.passed, result.render()
        assert (result.shed, result.failed, result.delivered, result.pending) == (4, 2, 2, 0)


def _flushes(broker) -> int:
    """Batches the broker's push batchers have flushed."""
    return sum(s.batcher.stats.flushes for _, _, s in broker.services() if s.batcher)


def _count_work(monkeypatch) -> dict:
    """Count, from now on, every call of a family's push row (the callable
    each service hands its route) and of ``DeliveryManager.submit``."""
    work = {"push": 0, "submit": 0}
    route, submit = SubscriptionService._route, DeliveryManager.submit

    def counted_route(service, payload, topic, push):
        def counted_push(*args):
            work["push"] += 1
            return push(*args)

        return route(service, payload, topic, counted_push)

    def counted_submit(manager, *args, **kwargs):
        work["submit"] += 1
        return submit(manager, *args, **kwargs)

    monkeypatch.setattr(SubscriptionService, "_route", counted_route)
    monkeypatch.setattr(DeliveryManager, "submit", counted_submit)
    return work


class TestReplayPaysOnlyForWhatIsOwed:
    """The route asks the log before it pushes: an obligation settled as
    delivered replays as nothing — no submission, no task, no batch — while
    every other verdict still reaches the delivery manager."""

    def test_a_delivered_history_replays_as_nothing(self, network, monkeypatch):
        publishes, config = 4, dict(batching=BatchingPolicy(window=0.0, max_batch=100))
        broker = _broker(network, **config)
        sinks = [EventSink(network, f"http://rc-sink-{n}") for n in range(3)]
        consumers = [NotificationConsumer(network, f"http://rc-consumer-{n}") for n in range(3)]
        for sink in sinks:
            WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        for consumer in consumers:
            WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="rc")
        for n in range(publishes):
            broker.publish(event(n), topic="rc")
        broker.run_deliveries_until_idle()
        receivers = sinks + consumers
        assert [len(r.received) for r in receivers] == [publishes] * len(receivers)
        # live, every WSN push went through the batcher: one group per sink
        assert _flushes(broker) == publishes * len(consumers)
        broker.close()
        work = {"submit": 0, "task": 0}
        submit, init = DeliveryManager.submit, DeliveryTask.__init__

        def counted_submit(manager, *args, **kwargs):
            work["submit"] += 1
            return submit(manager, *args, **kwargs)

        def counted_init(task, *args, **kwargs):
            work["task"] += 1
            init(task, *args, **kwargs)

        monkeypatch.setattr(DeliveryManager, "submit", counted_submit)
        monkeypatch.setattr(DeliveryTask, "__init__", counted_init)
        recovered = _recover(network, broker.store.log, **config)
        assert work == {"submit": 0, "task": 0}
        assert _flushes(recovered) == 0
        # one suppression per settled (message id, sink) key, as before
        assert recovered.store.stats.suppressed == publishes * len(receivers)
        recovered.run_deliveries_until_idle()
        assert [len(r.received) for r in receivers] == [publishes] * len(receivers)
        recovered.publish(event(9), topic="rc")
        recovered.run_deliveries_until_idle()
        assert [len(r.received) for r in receivers] == [publishes + 1] * len(receivers)

    def test_a_sink_subscribed_twice_counts_once_per_publish(self, network):
        """Suppression counts settled ``(message id, sink)`` keys, not the
        subscriptions that share one: a WSE sink with two subscriptions and a
        WSN consumer whose two subscriptions share each batch count one each."""
        publishes, config = 3, dict(batching=BatchingPolicy(window=0.0, max_batch=100))
        broker = _broker(network, **config)
        sink = EventSink(network, "http://rc-twice-sink")
        consumer = NotificationConsumer(network, "http://rc-twice-consumer")
        for _ in range(2):
            WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
            WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="rc")
        for n in range(publishes):
            broker.publish(event(n), topic="rc")
        broker.run_deliveries_until_idle()
        assert len(sink.received) == len(consumer.received) == 2 * publishes
        broker.close()
        recovered = _recover(network, broker.store.log, **config)
        assert recovered.store.stats.suppressed == 2 * publishes
        recovered.run_deliveries_until_idle()
        assert len(sink.received) == len(consumer.received) == 2 * publishes

    def test_a_mixed_publish_replays_only_its_open_obligation(self, network, tmp_path):
        """One publish, six fates: delivered, parked, drained (parked, then
        pulled), shed (a LIFO queue of one already full), dead (two failed
        attempts) and still in retry (queued behind a task that died).  The
        restart reproduces the projection, the DLQ and the box addresses,
        writes nothing to the log, and sends only the obligation in retry."""
        network.add_zone("rc-dmz", blocks_inbound=True)
        config = dict(
            delivery=DeliveryPolicy(max_attempts=2, base_backoff=10.0, jitter=0.0),
            qos=AdaptiveQosPolicy(),
        )
        broker = _broker(network, FileEventLog(tmp_path / "broker.log"), **config)
        client, inside = WseSubscriber(network), WseSubscriber(network, zone="rc-dmz")
        healthy = EventSink(network, "http://rc-healthy")
        parked = EventSink(network, "http://rc-parked", zone="rc-dmz")
        drained = EventSink(network, "http://rc-drained", zone="rc-dmz")
        retried = EventSink(network, "http://rc-retried")
        shed = EventSink(network, "http://rc-shed")
        client.subscribe(broker.epr(), notify_to=healthy.epr())
        inside.subscribe(broker.epr(), notify_to=parked.epr())
        inside.subscribe(broker.epr(), notify_to=drained.epr())
        client.subscribe(broker.epr(), notify_to=retried.epr())
        lifo = QosProfile({"MaxEventsPerConsumer": 1, "DiscardPolicy": DiscardPolicy.LIFO_ORDER})
        client.subscribe(broker.epr(), notify_to=shed.epr(), qos=lifo)
        retried.close()
        shed.close()
        broker.publish(event(0), topic="rc")  # its tasks at the dark sinks back off
        dead = EventSink(network, "http://rc-dead")
        client.subscribe(broker.epr(), notify_to=dead.epr())
        dead.close()
        broker.publish(event(1), topic="rc")  # the publish of six fates
        network.clock.advance(10.0)
        broker.delivery_manager.run_due()  # the second attempts: three tasks die
        box = broker.message_boxes.get("http://rc-drained")
        pulled = drain_message_box_wse(network, box.epr(), zone="rc-dmz")
        assert [p.full_text() for p in pulled] == ["0", "1"]
        records = list(broker.store.log.records())
        _, message_id = [r.message_id for r in records if isinstance(r, PublishRecorded)]
        fates = {
            r.sink: (r.outcome, r.reason)
            for r in records
            if isinstance(r, OutcomeRecorded) and r.message_id == message_id
        }
        assert fates == {
            "http://rc-healthy": ("delivered", ""),
            "http://rc-parked": ("parked", ""),
            "http://rc-drained": ("drained", ""),
            "http://rc-shed": ("dead", "shed:queue_full"),
            "http://rc-dead": ("dead", "max_attempts"),
        }  # and nothing yet for http://rc-retried: its task is backing off
        assert broker.delivery_manager.pending() == 1

        def dead_letters(b):
            return [
                (entry.task.sink, entry.reason, [i.payload.full_text() for i in entry.task.items])
                for entry in b.delivery_manager.dlq.entries
            ]

        live, letters = broker.store.projection(broker), dead_letters(broker)
        assert letters == [
            ("http://rc-retried", "max_attempts", ["0"]),
            ("http://rc-shed", "max_attempts", ["0"]),
            ("http://rc-dead", "max_attempts", ["1"]),
        ]
        log_bytes = broker.store.log.path.read_bytes()
        broker.close()
        recovered = _recover(network, broker.store.log, **config)
        assert recovered.store.projection(recovered) == live
        assert dead_letters(recovered) == letters
        # the one re-attempt replay made failed at a still-dark sink: no record
        assert broker.store.log.path.read_bytes() == log_bytes
        assert recovered.delivery_manager.pending() == 1
        receivers = {
            address: EventSink(network, address)
            for address in ("http://rc-retried", "http://rc-shed", "http://rc-dead")
        }
        recovered.run_deliveries_until_idle()
        assert {a: [i.payload.full_text() for i in r.received] for a, r in receivers.items()} == {
            "http://rc-retried": ["1"], "http://rc-shed": [], "http://rc-dead": [],
        }
        assert [len(healthy.received), len(parked.received), len(drained.received)] == [2, 0, 0]
        assert len(broker.store.log) == len(log_bytes.splitlines()) + 1  # its delivery


    def test_a_delivered_fanout_reaches_no_push_row(self, network, monkeypatch):
        """A fan-out every sink got — WSE sinks, one of them subscribed
        through both WSE versions, and WSN consumers behind the push batcher
        — replays without one push-row call, submission or batch flush, and
        each delivered sink counts once, across the services that share it."""
        config = dict(batching=BatchingPolicy(window=0.0, max_batch=100))
        broker = _broker(network, **config)
        sinks = [EventSink(network, f"http://rc-fan-sink-{n}") for n in range(2)]
        consumers = [NotificationConsumer(network, f"http://rc-fan-consumer-{n}") for n in range(2)]
        for sink in sinks:
            WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        WseSubscriber(network, version=WseVersion.V2004_01).subscribe(
            broker.epr(), notify_to=sinks[0].epr()
        )
        for consumer in consumers:
            WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="rc")
        broker.publish(event(1), topic="rc")
        broker.run_deliveries_until_idle()
        assert [len(r.received) for r in sinks + consumers] == [2, 1, 1, 1]
        assert _flushes(broker) == len(consumers)
        # one settled obligation per (publish, sink), not one per publish
        assert broker.store.snapshot()["settled"] == 4
        broker.close()
        work = _count_work(monkeypatch)
        recovered = _recover(network, broker.store.log, **config)
        assert work == {"push": 0, "submit": 0}
        assert _flushes(recovered) == 0
        assert recovered.store.stats.suppressed == len(sinks) + len(consumers)
        assert recovered.store.snapshot()["settled"] == 4
        recovered.run_deliveries_until_idle()
        assert [len(r.received) for r in sinks + consumers] == [2, 1, 1, 1]

    def test_a_lease_lapsed_since_its_delivery_is_neither_pushed_nor_counted(
        self, network, monkeypatch
    ):
        """Replay matches as live does, expiry first: a subscription whose
        lease lapsed after its publish was delivered is not a match, so the
        route neither pushes it nor counts it as suppressed."""
        broker = _broker(network)
        lasting, lapsing = EventSink(network, "http://rc-lasting"), EventSink(network, "http://rc-lapsing")
        client = WseSubscriber(network)
        client.subscribe(broker.epr(), notify_to=lasting.epr())
        client.subscribe(broker.epr(), notify_to=lapsing.epr(), expires="PT60S")
        broker.publish(event(1), topic="rc")
        broker.run_deliveries_until_idle()
        assert len(lasting.received) == len(lapsing.received) == 1
        broker.close()
        network.clock.advance(120.0)
        work = _count_work(monkeypatch)
        recovered = _recover(network, broker.store.log)
        assert work == {"push": 0, "submit": 0}
        assert recovered.store.stats.suppressed == 1  # the lasting sink's key only
        recovered.run_deliveries_until_idle()
        assert len(lasting.received) == len(lapsing.received) == 1

    def test_a_paused_copy_still_parks_beside_a_delivered_push(self, network):
        """One consumer, two subscriptions, one of them paused: the delivered
        push replays as nothing, and the paused copy queues again."""
        broker = _broker(network)
        consumer = NotificationConsumer(network, "http://rc-both")
        client = WsnSubscriber(network)
        client.subscribe(broker.epr(), consumer.epr(), topic="rc")
        client.pause(client.subscribe(broker.epr(), consumer.epr(), topic="rc"))
        for n in range(2):
            broker.publish(event(n), topic="rc")
        broker.run_deliveries_until_idle()
        assert len(consumer.received) == 2
        live = broker.store.projection(broker)
        assert sorted(entry["queued"] for entry in live["subscriptions"].values()) == [0, 2]
        broker.close()
        recovered = _recover(network, broker.store.log)
        assert recovered.store.projection(recovered) == live
        assert recovered.store.stats.suppressed == 2
        recovered.run_deliveries_until_idle()
        assert len(consumer.received) == 2

    def test_a_dead_letter_reopened_by_its_replay_resolves_as_before(self, network):
        """``dead`` then ``replayed`` reopens an obligation.  Delivered by the
        DLQ replay before the crash, the restart suppresses it; still in
        retry at the crash, the restart attempts it again, once."""
        policy = DeliveryPolicy(max_attempts=2, base_backoff=10.0, jitter=0.0)
        broker = _broker(network, delivery=policy)
        for address in ("http://rc-revived", "http://rc-retrying"):
            consumer = NotificationConsumer(network, address)
            WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="rc")
            consumer.close()
        broker.publish(event(1), topic="rc")
        broker.run_deliveries_until_idle()
        manager = broker.delivery_manager
        assert len(manager.dlq) == 2
        revived = NotificationConsumer(network, "http://rc-revived")
        assert manager.dlq.replay(manager) == 2
        # the revived consumer has it; the other's replay backs off again
        assert (len(revived.received), manager.pending(), len(manager.dlq)) == (1, 1, 0)
        assert broker.store.snapshot()["settled"] == 1
        broker.close()
        retrying = NotificationConsumer(network, "http://rc-retrying")
        recovered = _recover(network, broker.store.log, delivery=policy)
        recovered.run_deliveries_until_idle()
        stats = recovered.store.stats
        assert (stats.suppressed, stats.redead) == (1, 0)
        assert len(recovered.delivery_manager.dlq) == 0
        assert (len(revived.received), len(retrying.received)) == (1, 1)
        assert recovered.store.snapshot()["settled"] == 2


class TestAForwardedPublishReplaysAsNothing:
    """A publish that enters a mesh at a shard which does not own its topic
    is forwarded to the owner, whose link push re-enters the entry shard as
    a federated publish of its own, nested inside the first.  The outer
    publish keeps its message id across the nesting, so its ``routed`` mark
    is logged, and a restart of every shard sends nothing."""

    def test_every_shard_recovers_without_a_send(self, network):
        config = dict(delivery=DeliveryPolicy(), wsn_versions=[WsnVersion.V1_3])
        cluster = MeshCluster(
            network, 2, base_address="http://rc-mesh",
            store_factory=lambda name: BrokerStore(MemoryEventLog()), **config,
        )
        owner = cluster.owner_node_of_topic("rc")
        entry = next(node for node in cluster if node is not owner)
        consumer = NotificationConsumer(network, "http://rc-mesh-consumer")
        cluster.subscribe_wsn(consumer.address, topic="rc", home=entry.name)
        cluster.publish(event(1), topic="rc", via=entry.name)
        cluster.quiesce()
        assert len(consumer.received) == 1
        records = list(entry.broker.store.log.records())
        forwarded, ingress = [r.message_id for r in records if isinstance(r, PublishRecorded)]
        outcomes = {
            (r.message_id, r.outcome)
            for r in records
            if isinstance(r, OutcomeRecorded)
        }
        assert outcomes == {(forwarded, "routed"), (ingress, "delivered")}
        shards = [(node.address, node.broker.store.log) for node in cluster]
        cluster.close()
        requests = network.stats.requests
        recovered = {
            address: recover_broker(network, address, log, **config)
            for address, log in shards
        }
        assert network.stats.requests == requests
        assert len(consumer.received) == 1
        # the entry shard replays the federated copy only, the owner its own
        assert recovered[entry.address].store.stats.replayed_publishes == 1
        assert recovered[owner.address].store.stats.replayed_publishes == 1
        for broker in recovered.values():
            broker.run_deliveries_until_idle()
        assert network.stats.requests == requests and len(consumer.received) == 1

    def test_a_nested_publish_gives_the_outer_one_its_id_back(self, network):
        """A consumer that publishes back into the broker from inside a
        delivery nests one publish in another: the outer publish's later
        deliveries still carry its own id."""
        broker = _broker(network)
        store = broker.store
        seen = []

        def record_and_echo(address, request):
            seen.append((address, store.current_message_id))
            if address == "http://rc-echo" and len(seen) == 1:
                broker.publish(event(2), topic="rc-echo")

        for address in ("http://rc-echo", "http://rc-after"):
            consumer = NotificationConsumer(network, address)
            WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="rc")
        network.observers.append(record_and_echo)
        broker.publish(event(1), topic="rc")
        broker.run_deliveries_until_idle()
        assert seen == [("http://rc-echo", "msg-1"), ("http://rc-after", "msg-1")]
        assert store.current_message_id is None
        outcomes = [
            (r.message_id, r.sink, r.outcome)
            for r in store.log.records()
            if isinstance(r, OutcomeRecorded)
        ]
        assert outcomes == [
            ("msg-1", "http://rc-echo", "delivered"), ("msg-1", "http://rc-after", "delivered"),
        ]


class TestDrainedBoxSurvivesRecovery:
    def test_drained_box_is_re_minted_at_its_address(self, network):
        """A firewalled sink's box, drained before the crash, is still the
        address its consumer pulls at: recovery re-mints it (it used to come
        back as no box at all — the old address unreachable, and ``box-1``
        handed to the next stranger to park)."""
        network.add_zone("rc-dmz", blocks_inbound=True)
        broker = _broker(network, delivery=DeliveryPolicy())
        sink = EventSink(network, "http://rc-inside", zone="rc-dmz")
        subscriber = WseSubscriber(network, zone="rc-dmz")
        subscriber.subscribe(broker.epr(), notify_to=sink.epr())
        broker.publish(event(1), topic="rc")
        box = broker.message_boxes.get("http://rc-inside")
        assert len(drain_message_box_wse(network, box.epr(), zone="rc-dmz")) == 1
        live = broker.store.projection(broker)
        assert live["boxes"] == {"http://rc-inside": {"address": box.address, "pending": 0}}
        broker.close()
        recovered = _recover(network, broker.store.log, delivery=DeliveryPolicy())
        assert recovered.store.projection(recovered) == live
        # the address the consumer holds answers, with nothing left to hand out
        assert drain_message_box_wse(network, box.epr(), zone="rc-dmz") == []
        other = EventSink(network, "http://rc-other", zone="rc-dmz")
        subscriber.subscribe(recovered.epr(), notify_to=other.epr())
        recovered.publish(event(2), topic="rc")
        boxes = recovered.store.projection(recovered)["boxes"]
        assert boxes["http://rc-other"]["address"].endswith("/box-2")
        assert boxes["http://rc-inside"] == {"address": box.address, "pending": 1}


class TestRecoveryOffTheWire:
    def test_recovery_does_not_ride_the_loss_model(self):
        """A restart is in-process: with nine requests in ten lost on the
        wire, every logged Subscribe still replays, ids and expiries as
        recorded (it used to re-post them through ``send_request``, where
        one ``MessageLost`` aborted the whole recovery)."""
        network = SimulatedNetwork(VirtualClock(), seed=7)
        broker = _broker(network)
        wse, wsn = WseSubscriber(network), WsnSubscriber(network)
        keys = []
        for index in range(20):
            if index % 2:
                sink = EventSink(network, f"http://rc-sink-{index}")
                wse_handle = wse.subscribe(
                    broker.epr(), notify_to=sink.epr(), expires=f"PT{index + 1}H"
                )
                keys.append(f"wse:v2004_08:{wse_handle.sub_id}")
            else:
                consumer = NotificationConsumer(network, f"http://rc-consumer-{index}")
                handle = wsn.subscribe(broker.epr(), consumer.epr(), topic="rc")
                keys.append(f"wsn:v1_3:{handle.sub_id}")
        wse.renew(wse_handle, "PT90M")
        projection = broker.store.projection(broker)
        expected = {key: projection["subscriptions"][key]["expires"] for key in keys}
        assert len(set(expected.values())) > 5
        broker.close()
        requests = network.stats.requests
        network.loss_rate = 0.9
        recovered = _recover(network, broker.store.log)
        network.loss_rate = 0.0
        assert recovered.store.stats.recovered_subscriptions == 20
        rebuilt = recovered.store.projection(recovered)
        assert rebuilt == projection
        assert {k: v["expires"] for k, v in rebuilt["subscriptions"].items()} == expected
        # nothing went over the wire, lost or not
        assert (network.stats.requests, network.stats.lost) == (requests, 0)
        # and the manager EPRs minted before the crash still reach it
        wse.renew(wse_handle, "PT3H")


# --- recovery replays grants: no request, no wire, no family code -----------------------


def _copy(log, change=lambda index, record: record):
    """A log of its own holding ``log``'s records, each through ``change``."""
    copy = MemoryEventLog()
    for index, record in enumerate(log.records()):
        copy.append(change(index, record))
    copy.commit()
    return copy


def _restored(broker) -> dict:
    """Everything a Subscribe's options decide, per subscription."""
    return {
        (family, tag, sub.key): (
            service.manager_address,
            sub.filter.describe(),
            sub.termination_time,
            sub.mode,
            sub.paused,
            sub.use_raw,
            sub.topic_expression,
            sub.consumer,
            sub.end_to,
            sub.qos and sorted(sub.qos.values.items()),
            sub.priority,
            len(sub.queue),
        )
        for family, tag, service in broker.services()
        for sub in service.subscriptions.records.values()
    }


def _counter(instrumentation, name) -> int:
    return sum(instrumentation.metrics.counter_values(name).values())


def _unrestored(instrumentation, site="replay_subscribe") -> dict:
    values = instrumentation.metrics.counter_values("obs.swallowed_errors_total")
    return {k: v for k, v in values.items() if f"site=store.recovery.{site}" in k}


def _with_reference(address, local, text):
    """An EPR whose address is not all of it: one reference parameter."""
    return EndpointReference(address).with_parameter(text_element(QName("urn:rc", local), text))


class TestRecoveryBelowTheWire:
    def _population(self, network, broker):
        """Every store-backed dialect x the Subscribe options that reach the
        record: ``(family, tag) -> (client, handles)``, in Subscribe order."""
        lease = lambda offset: format_datetime(network.clock.now() + offset)  # noqa: E731
        profile = QosProfile({"Priority": 7, "MaxEventsPerConsumer": 3})
        namespaces = {"e": "urn:rc"}
        granted = {}
        for version in WseVersion:
            tag = version.name.lower()
            client = WseSubscriber(network, version=version)
            sink = EventSink(network, f"http://rc-sink/{tag}", version=version)
            ender = EventSink(network, f"http://rc-ender/{tag}", version=version)
            to = {"notify_to": sink.epr()}
            requests = [
                dict(to, end_to=ender.epr(), expires="PT2H",
                     filter="/e:V[e:n > 0]", filter_namespaces=namespaces),
                dict(to, expires=lease(900.0), qos=profile),
            ]
            if version is WseVersion.V2004_08:  # 01/2004 has push only
                requests += [
                    dict(mode=DeliveryMode.PULL),
                    dict(to, mode=DeliveryMode.WRAPPED),
                    # the one record that logs its EPRs whole
                    dict(notify_to=_with_reference(sink.address, "Tenant", "a & <b>"),
                         end_to=_with_reference(ender.address, "Ended", "1")),
                ]
            granted["wse", tag] = client, [
                client.subscribe(broker.epr(), **request) for request in requests
            ]
        for version in WsnVersion:
            tag = version.name.lower()
            client = WsnSubscriber(network, version=version)
            consumer = NotificationConsumer(network, f"http://rc-consumer/{tag}", version=version)
            requests = [
                dict(topic="rc", initial_termination=lease(1800.0)),
                dict(topic="rc//*", topic_dialect=Namespaces.DIALECT_TOPIC_FULL,
                     message_content="/e:V/e:n = 1", namespaces=namespaces, use_raw=True),
                dict(topic="rc", qos=profile),
            ]
            if version.supports_duration_expiry:
                requests.append(dict(initial_termination="PT45M"))
            granted["wsn", tag] = client, [
                client.subscribe(broker.epr(), consumer.epr(), **request) for request in requests
            ]
        return granted

    def test_a_restart_restores_what_was_live(self, network):
        broker = _broker(network)
        population = self._population(network, broker)
        subscribed = len(broker.store.log)
        assert subscribed == broker.subscription_count() == 2 + 5 + 3 + 3 + 4
        # the other lifecycle records, and a backlog for the pull queue
        wse, (filtered, _, pulling, _, _) = population["wse", "v2004_08"]
        wsn, (paused, *_) = population["wsn", "v1_3"]
        wse.renew(filtered, "PT6H")
        wsn.pause(paused)
        gone = NotificationConsumer(network, "http://rc-gone")
        wsn.unsubscribe(wsn.subscribe(broker.epr(), gone.epr(), topic="rc"))
        for n in range(3):
            broker.publish(event(n), topic="rc")
        broker.run_deliveries_until_idle()
        assert len(wse.pull(pulling, max_messages=1)) == 1
        live = _restored(broker), broker.store.projection(broker)
        assert len(live[0]) == subscribed
        broker.close()
        network.clock.advance(600.0)  # a duration re-granted now would end later
        recovered = _recover(network, _copy(broker.store.log))
        assert recovered.store.stats.recovered_subscriptions == subscribed + 1
        granted = _restored(recovered), recovered.store.projection(recovered)
        assert granted == live
        # the ids and manager EPRs clients hold address what came back
        for (family, tag), (_, handles) in population.items():
            for handle in handles:
                manager_address = granted[0][family, tag, handle.sub_id][0]
                if tag != "v2004_01":  # whose handle is the address it subscribed at
                    assert manager_address == handle.manager.address
        assert [p.full_text() for p in wse.pull(pulling)] == ["1", "2"]

    def test_a_restart_is_not_traffic(self, network):
        instrumentation = Instrumentation.attach(network)
        broker = _broker(network)
        self._population(network, broker)
        log = broker.store.log
        broker.close()

        def traffic():
            return (
                network.stats.requests,
                _counter(instrumentation, "endpoint.requests"),
                _counter(instrumentation, "broker.requests"),
                WRITER_STATS.snapshot(),
                TEMPLATE_STATS.snapshot(),
            )

        before = traffic()
        recovered = _recover(network, log)
        assert traffic() == before
        assert recovered.stats.detected == {} and recovered.stats.detection_failures == 0
        assert recovered.store.stats.recovered_subscriptions == len(log) == 17
        assert _unrestored(instrumentation) == {}

    def test_an_unrestorable_subscribe_is_counted_and_the_rest_come_back(self, network):
        """One garbled Subscribe record among good ones — its consumer EPR
        cut in half: counted once, by why; every other subscription
        restored, fixpoint on the rest."""
        instrumentation = Instrumentation.attach(network)
        broker = _broker(network)
        self._population(network, broker)
        projection = broker.store.projection(broker)
        broker.close()
        [victim] = [r for r in broker.store.log.records() if r.consumer_epr is not None]
        garbled = _copy(
            broker.store.log,
            lambda index, record: (
                dataclasses.replace(record, consumer_epr=record.consumer_epr[:40])
                if record is victim else record
            ),
        )
        recovered = _recover(network, garbled)
        [(labels, count)] = _unrestored(instrumentation).items()
        assert count == 1 and "reason=unparseable" in labels and "subcode=" not in labels
        assert recovered.store.stats.recovered_subscriptions == len(garbled) - 1
        del projection["subscriptions"][f"{victim.family}:{victim.tag}:{victim.sub_id}"]
        assert recovered.store.projection(recovered) == projection

    def test_a_refused_replay_says_why_and_does_not_name_the_next_subscribe(self, network):
        """A logged grant is not re-validated, but the restarted broker
        still accepts its QoS profile: one it refuses is counted with the
        family's subcode, and the id the grant pinned is not minted."""
        instrumentation = Instrumentation.attach(network)
        broker = _broker(network)
        sink = EventSink(network, "http://rc-sink")
        WseSubscriber(network).subscribe(
            broker.epr(), notify_to=sink.epr(), qos=QosProfile({"Priority": 3})
        )
        broker.close()
        log = _copy(
            broker.store.log,
            lambda _, r: dataclasses.replace(
                r, sub_id="recorded-41", qos={"PacingInterval": "1.5"}
            ),
        )
        recovered = _recover(network, log)
        assert recovered.subscription_count() == 0
        [(labels, count)] = _unrestored(instrumentation).items()
        assert count == 1 and "reason=fault" in labels
        assert "subcode=UnsupportedQoS" in labels
        assert recovered.store.stats.recovered_subscriptions == 0
        fresh = WseSubscriber(network).subscribe(recovered.epr(), notify_to=sink.epr())
        assert fresh.sub_id != "recorded-41"

    def test_a_lapsed_lease_comes_back_lapsed_and_ends_once(self, network):
        """A lease that lapsed before the restart is restored as granted, not
        refused.  Ended and logged before the crash, replay forgets it
        silently — even with publishes replayed after its expiry; lapsed but
        never swept, the first sweep after recovery ends it, announced once."""
        broker = _broker(network)
        client = WsnSubscriber(network)
        swept = NotificationConsumer(network, "http://rc-swept")
        lapsed = NotificationConsumer(network, "http://rc-lapsed")
        for consumer, seconds in ((swept, 60.0), (lapsed, 80.0)):
            client.subscribe(
                broker.epr(), consumer.epr(), topic="rc",
                initial_termination=format_datetime(network.clock.now() + seconds),
            )
        broker.publish(event(1), topic="rc")
        network.clock.advance(70.0)
        broker.publish(event(2), topic="rc")  # sweeps the first lease: its notice
        broker.run_deliveries_until_idle()
        assert (len(swept.termination_notices), len(lapsed.termination_notices)) == (1, 0)
        broker.close()
        network.clock.advance(30.0)  # the second lapses before the restart
        recovered = _recover(network, broker.store.log)
        recovered.run_deliveries_until_idle()
        assert recovered.store.stats.recovered_subscriptions == 2
        assert (len(swept.termination_notices), len(lapsed.termination_notices)) == (1, 0)
        assert recovered.subscription_count() == 0  # restored, but not live
        recovered.publish(event(3), topic="rc")  # the first sweep after recovery
        recovered.run_deliveries_until_idle()
        assert (len(swept.termination_notices), len(lapsed.termination_notices)) == (1, 1)
        recovered.close()
        again = _recover(network, recovered.store.log)  # both ended, both logged
        again.publish(event(4), topic="rc")
        again.run_deliveries_until_idle()
        assert (len(swept.termination_notices), len(lapsed.termination_notices)) == (1, 1)
        assert [item.payload.full_text() for item in lapsed.received] == ["1", "2"]

    def test_a_bug_inside_grant_surfaces(self, network, monkeypatch):
        """Only what a logged grant can earn is swallowed — a garbled record,
        a fault; anything else stops the restart, loudly."""
        from repro.subscriptions import SubscriptionManager

        broker = _broker(network)
        WseSubscriber(network).subscribe(
            broker.epr(), notify_to=EventSink(network, "http://rc-sink").epr()
        )
        broker.close()

        def broken(self, grant, expires_text=None):
            raise AttributeError("a bug, not a refusal")

        monkeypatch.setattr(SubscriptionManager, "subscribe", broken)
        with pytest.raises(AttributeError):
            _recover(network, broker.store.log)


class TestFileBackedRecovery:
    def test_fresh_process_recovery_from_disk(self, network, tmp_path):
        path = tmp_path / "broker.log"
        broker = _broker(network, log=FileEventLog(str(path)))
        sink = EventSink(network, "http://rc-sink")
        handle = WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        broker.publish(event(1), topic="rc")
        broker.run_deliveries_until_idle()
        projection = broker.store.projection(broker)
        broker.close()
        broker.store.log.close()
        # a "fresh process": re-open the log purely from its on-disk bytes
        recovered = _recover(network, FileEventLog(str(path)))
        recovered.run_deliveries_until_idle()
        assert recovered.store.projection(recovered) == projection
        assert len(sink.received) == 1  # no duplicate delivery
        recovered.publish(event(2), topic="rc")
        recovered.run_deliveries_until_idle()
        assert len(sink.received) == 2
        keys = set(recovered.store.projection(recovered)["subscriptions"])
        assert keys == {f"wse:v2004_08:{handle.sub_id}"}

    def test_an_unparseable_publish_is_counted_and_the_rest_replay(self, network, tmp_path):
        """Only a log written before the writer refused the characters XML 1.0
        forbids can hold a payload that does not parse back: replay skips that
        one publish and counts it, and the restart goes on."""
        path = tmp_path / "broker.log"
        broker = _broker(network, log=FileEventLog(str(path)))
        sink = EventSink(network, "http://rc-sink")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        broker.publish(event(1), topic="rc")
        broker.run_deliveries_until_idle()
        broker.close()
        broker.store.log.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                '{"at":1.0,"kind":"publish","lineage":null,"message_id":"msg-2",'
                '"payload":"<e:V xmlns:e=\\"urn:rc\\">bad\\u0001char</e:V>","topic":"rc"}\n'
            )
        instrumentation = Instrumentation.attach(network)
        recovered = _recover(network, FileEventLog(str(path)))
        [(labels, count)] = _unrestored(instrumentation, "replay_publish").items()
        assert count == 1 and "reason=unparseable" in labels
        assert recovered.store.stats.replayed_publishes == 1
        recovered.run_deliveries_until_idle()
        assert len(sink.received) == 1
        recovered.publish(event(3), topic="rc")
        recovered.run_deliveries_until_idle()
        assert [note.payload.full_text() for note in sink.received] == ["1", "3"]
        publishes = [r for r in recovered.store.log.records() if isinstance(r, PublishRecorded)]
        assert publishes[-1].message_id == "msg-3"  # the skipped id is not minted again
