"""Transactional-outbox semantics: append first, settle each sink once."""

import pytest

from repro.delivery import DeliveryPolicy
from repro.messenger import WsMessenger
from repro.store import (
    BrokerStore,
    FileEventLog,
    MemoryEventLog,
    OutcomeRecorded,
    PublishRecorded,
)
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import DeliveryMode, EventSink, WseSubscriber
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.xmlkit import parse_xml
from repro.xmlkit.writer import serialize_xml


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:ob"><e:n>{n}</e:n></e:V>')


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


@pytest.fixture
def store():
    return BrokerStore(MemoryEventLog())


@pytest.fixture
def broker(network, store):
    return WsMessenger(network, "http://ob-broker", store=store)


def _kinds(store):
    return [record.kind for record in store.log.records()]


class TestOutbox:
    def test_publish_appended_before_any_outcome(self, network, store, broker):
        sink = EventSink(network, "http://ob-sink")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        broker.publish(event(), topic="ob")
        broker.run_deliveries_until_idle()
        kinds = _kinds(store)
        assert kinds.index("publish") < kinds.index("outcome")
        publish = next(r for r in store.log.records() if isinstance(r, PublishRecorded))
        outcome = next(r for r in store.log.records() if isinstance(r, OutcomeRecorded))
        assert outcome.message_id == publish.message_id
        assert outcome.outcome == "delivered"
        assert outcome.sink == "http://ob-sink"

    def test_message_ids_are_serial(self, network, store, broker):
        sink = EventSink(network, "http://ob-sink")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        for n in range(3):
            broker.publish(event(n), topic="ob")
        broker.run_deliveries_until_idle()
        publishes = [r for r in store.log.records() if isinstance(r, PublishRecorded)]
        assert [p.message_id for p in publishes] == ["msg-1", "msg-2", "msg-3"]

    def test_one_outcome_per_sink(self, network, store, broker):
        sink = EventSink(network, "http://ob-sink")
        consumer = NotificationConsumer(network, "http://ob-consumer")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="ob")
        broker.publish(event(), topic="ob")
        broker.run_deliveries_until_idle()
        outcomes = [r for r in store.log.records() if isinstance(r, OutcomeRecorded)]
        assert {(o.sink, o.outcome) for o in outcomes} == {
            ("http://ob-sink", "delivered"),
            ("http://ob-consumer", "delivered"),
        }
        assert len(outcomes) == 2  # idempotent: exactly one per (message, sink)

    def test_a_wrapped_batch_settles_each_publish_under_its_own_id(
        self, network, store, broker
    ):
        """The route stamps the item, not the submit that flushes a batch: ten
        publishes held for one WS-Eventing ``Wrap`` batch settle as ten keys."""
        sink = EventSink(network, "http://ob-wrapped")
        WseSubscriber(network).subscribe(
            broker.epr(), notify_to=sink.epr(), mode=DeliveryMode.WRAPPED
        )
        for n in range(10):
            broker.publish(event(n), topic="ob")
        broker.run_deliveries_until_idle()
        assert len(sink.received) == 10
        outcomes = [
            (r.message_id, r.sink, r.outcome)
            for r in store.log.records()
            if isinstance(r, OutcomeRecorded)
        ]
        assert outcomes == [
            (f"msg-{n}", "http://ob-wrapped", "delivered") for n in range(1, 11)
        ]

    def test_stamping_keeps_every_other_field(self, store):
        """``stamp_items`` builds the route's one item itself, under the
        in-flight publish's id; every other field is the route's (a field
        added to ``DeliveryItem`` has to be carried there too)."""
        import dataclasses

        from repro.delivery import DeliveryItem
        from repro.obs.propagation import LineageContext

        assert [f.name for f in dataclasses.fields(DeliveryItem)] == [
            "payload", "topic", "lineage", "message_id",
        ]
        lineage = LineageContext(lineage_id="lin-1", parent_span=2, hop=3)
        payload = event()
        fresh = DeliveryItem(payload, topic="ob", lineage=lineage)
        assert store.stamp_items(payload, "ob", lineage) == [fresh]  # no publish in flight
        store.current_message_id = "msg-7"
        [stamped] = store.stamp_items(payload, "ob", lineage)
        assert stamped == dataclasses.replace(fresh, message_id="msg-7")
        assert stamped.payload is payload and stamped.lineage is lineage

    def test_duplicate_terminal_outcome_suppressed(self, store):
        store._record_outcome("msg-1", "http://s", "delivered")
        store._record_outcome("msg-1", "http://s", "delivered")
        store._record_outcome("msg-1", "http://s", "dead", "late")
        outcomes = [r for r in store.log.records() if isinstance(r, OutcomeRecorded)]
        assert len(outcomes) == 1

    def test_dead_letter_settles_as_dead(self, network, store):
        policy = DeliveryPolicy(max_attempts=2, base_backoff=1.0, jitter=0.0)
        broker = WsMessenger(network, "http://ob-broker", store=store, delivery=policy)
        consumer = NotificationConsumer(network, "http://ob-dark")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="ob")
        consumer.close()  # goes dark before the publish
        broker.publish(event(), topic="ob")
        broker.run_deliveries_until_idle()
        outcomes = [r for r in store.log.records() if isinstance(r, OutcomeRecorded)]
        assert [(o.sink, o.outcome) for o in outcomes] == [("http://ob-dark", "dead")]
        assert outcomes[0].reason

    def test_parked_then_drained_settles_in_two_steps(self, network, store):
        network.add_zone("ob-dmz", blocks_inbound=True)
        broker = WsMessenger(network, "http://ob-broker", store=store)
        sink = EventSink(network, "http://ob-inside", zone="ob-dmz")
        WseSubscriber(network, zone="ob-dmz").subscribe(broker.epr(), notify_to=sink.epr())
        broker.publish(event(), topic="ob")
        broker.run_deliveries_until_idle()
        assert [
            (o.outcome) for o in store.log.records() if isinstance(o, OutcomeRecorded)
        ] == ["parked"]
        from repro.delivery import drain_message_box_wse

        box = broker.message_boxes.get("http://ob-inside")
        drain_message_box_wse(network, box.epr(), zone="ob-dmz")
        assert [
            (o.outcome) for o in store.log.records() if isinstance(o, OutcomeRecorded)
        ] == ["parked", "drained"]

    def test_subscription_lifecycle_recorded(self, network, store, broker):
        sink = EventSink(network, "http://ob-sink")
        subscriber = WseSubscriber(network)
        handle = subscriber.subscribe(broker.epr(), notify_to=sink.epr())
        subscriber.renew(handle, "PT2H")
        subscriber.unsubscribe(handle)
        assert _kinds(store) == ["subscribe", "renew", "remove"]
        subscribe, renew, remove = store.log.records()
        assert subscribe.sub_id == renew.sub_id == remove.sub_id == handle.sub_id
        assert subscribe.family == "wse"
        assert renew.expires is not None and renew.expires > subscribe.expires


def _deliveries(log):
    """What 20 consumers receive of 8 publishes, and the records ``log`` holds."""
    network = SimulatedNetwork(VirtualClock())
    store = BrokerStore(log) if log is not None else None
    broker = WsMessenger(network, "http://ob-broker", delivery=DeliveryPolicy(), store=store)
    consumers = [NotificationConsumer(network, f"http://ob-c/{i}") for i in range(20)]
    for consumer in consumers:
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="ob")
    for n in range(8):
        broker.publish(event(n), topic="ob")
    broker.run_deliveries_until_idle()
    if store is not None:
        store.log.close()
    received = [
        [(serialize_xml(item.payload), item.topic) for item in consumer.received]
        for consumer in consumers
    ]
    return received, len(log) if log is not None else 0


def test_the_outbox_is_invisible_to_what_is_delivered(tmp_path):
    bare, _ = _deliveries(None)
    in_memory, memory_records = _deliveries(MemoryEventLog())
    on_disk, file_records = _deliveries(FileEventLog(str(tmp_path / "ob.log")))
    assert sum(map(len, bare)) == 20 * 8
    assert in_memory == on_disk == bare
    assert memory_records == file_records > 0
