"""Formerly-silent exception swallows now surface as a counter.

Each site still skips the failing element (an unparsable frame must not
break a figure trace; an upstream subscription the publisher already ended
must not strand a registration's teardown) — but the skip is recorded in
``obs.swallowed_errors_total{site=...}`` so it can never again hide a
broker losing publishers or a figure silently losing edges.
"""

from types import SimpleNamespace

from repro.comparison.figures import _Recorder
from repro.obs.instrument import Instrumentation
from repro.transport import SimulatedNetwork, VirtualClock


def counter_total(instrumentation, site):
    values = instrumentation.metrics.counter_values("obs.swallowed_errors_total")
    return sum(v for k, v in values.items() if f"site={site}" in k)


def test_an_unparsable_topic_filter_faults_and_adds_no_demand():
    """Demand is read off the index, which holds compiled filters only: an
    unparsable one is refused at Subscribe, so there is nothing to skip."""
    import pytest

    from repro.messenger import WsMessenger
    from repro.soap import SoapFault
    from repro.wsn import NotificationConsumer, WsnSubscriber

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    broker = WsMessenger(network, "http://swallow-broker")
    consumer = NotificationConsumer(network, "http://swallow-consumer")
    with pytest.raises(SoapFault) as refused:
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="")
    assert refused.value.subcode.local == "InvalidTopicExpressionFault"
    assert broker.subscription_count() == 0
    assert broker.publishers.demand("jobs") == 0
    assert not instrumentation.metrics.counter_values("obs.swallowed_errors_total")


def test_figure_recorder_counts_unparsable_frames():
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    recorder = _Recorder(network, labels={})
    recorder._observe(
        SimpleNamespace(ok=True, request=b"not an http request", address="x")
    )
    assert recorder.interactions == []
    assert counter_total(instrumentation, "comparison.figures.recorder") == 1


def test_destroy_registration_counts_upstream_unsubscribe_fault():
    from repro.messenger import WsMessenger
    from repro.wsn import NotificationProducer

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    broker = WsMessenger(network, "http://swallow-broker")
    publisher = NotificationProducer(network, "http://swallow-publisher")
    registration = broker.publishers.register(publisher.epr(), topic="jobs", demand=True)
    # the publisher ends the broker's subscription behind its back
    publisher.subscriptions.destroy(registration.upstream.sub_id, "unsubscribed")

    broker.publishers.destroy(registration.key)
    assert list(broker.publishers) == []  # the registration is still torn down...
    assert not network.is_registered(registration.ingest.address)
    assert counter_total(instrumentation, "messenger.registration.destroy") == 1


def test_delivery_failure_skips_an_already_ended_subscription():
    """The one failure row ends only the subscriptions that have not already
    ended, so there is nothing to swallow: one that died before its delivery
    failed (e.g. swept mid-delivery) is skipped — no exception, no second
    end notice, no count."""
    from repro.delivery.task import DeliveryItem
    from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
    from repro.xmlkit import parse_xml

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    producer = NotificationProducer(network, "http://swallow-producer")
    consumer = NotificationConsumer(network, "http://swallow-consumer")
    handle = WsnSubscriber(network).subscribe(
        producer.epr(), consumer.epr(), topic="t"
    )
    subscription = producer.subscriptions.lookup(handle.sub_id)
    removals = []
    producer.subscriptions.listeners.append(
        lambda event, ended, detail: event == "removed" and removals.append(detail["reason"])
    )
    # the resource dies first, then the consumer: the delivery that fails
    # carried a subscription that has already ended
    producer.subscriptions.destroy(subscription.key, "unsubscribed")
    consumer.close()
    producer._deliver(subscription, [DeliveryItem(parse_xml("<e/>"), "t")])
    assert removals == ["unsubscribed"]
    # the failed delivery is recorded; no TerminationNotification followed it
    assert [failure.stage for failure in producer.delivery_failures] == ["notify"]
    assert counter_total(instrumentation, "wsn.producer.destroy_after_failure") == 0


def test_convergence_counts_unreachable_end_to():
    from repro.convergence.service import ConvergedConsumer, ConvergedSource, ConvergedSubscriber
    from repro.xmlkit import parse_xml

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    source = ConvergedSource(network, "http://swallow-source")
    consumer = ConvergedConsumer(network, "http://swallow-sink")
    end_sink = ConvergedConsumer(network, "http://swallow-end")
    ConvergedSubscriber(network).subscribe(
        source.epr(), consumer=consumer.epr(), topic="t", end_to=end_sink.epr()
    )
    # both the consumer and the EndTo sink vanish: delivery fails, and the
    # SubscriptionEnd notice cannot be delivered either — both failures are
    # recorded by the shared settle stage, neither is swallowed
    consumer.close()
    end_sink.close()
    source.publish(parse_xml("<e/>"), topic="t")
    assert [failure.stage for failure in source.delivery_failures] == [
        "notify", "subscription_end",
    ]
    failed = instrumentation.metrics.counter_values("delivery.failed_total")
    assert sum(v for k, v in failed.items() if "family=wsen" in k) == 2
    assert counter_total(instrumentation, "convergence.send_end") == 0


def test_jms_consumer_double_close_is_counted():
    from repro.baselines.jms.provider import JmsProvider
    from repro.baselines.jms.session import Connection

    provider = JmsProvider()
    provider.instrumentation = instrumentation = Instrumentation(provider.clock)
    session = Connection(provider, "client-1").create_session()
    consumer = session.create_consumer(provider.topic("t"))
    # detach the subscription behind the consumer's back, then close
    provider.topic("t")._subscribers.remove(consumer._subscription)
    consumer.close()
    assert counter_total(instrumentation, "jms.consumer.close") == 1


def test_uninstrumented_runs_still_skip_silently():
    network = SimulatedNetwork(VirtualClock())  # null instrumentation
    recorder = _Recorder(network, labels={})
    recorder._observe(
        SimpleNamespace(ok=True, request=b"garbage", address="x")
    )
    assert recorder.interactions == []  # no crash, no counter, no trace


def test_pullpoint_overflow_drop_is_counted():
    from repro.soap.envelope import SoapEnvelope, SoapVersion
    from repro.wsn.pullpoint import PullPoint
    from repro.wsn.versions import WsnVersion
    from repro.xmlkit.element import XElem

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    version = WsnVersion.V1_3
    pull_point = PullPoint(network, "http://pp-overflow", version, capacity=2)
    notify = XElem(version.qname("Notify"))
    for _ in range(5):
        notify.append(XElem(version.qname("NotificationMessage")))
    envelope = SoapEnvelope(SoapVersion.V11)
    envelope.add_body(notify)

    pull_point._handle_notify(envelope, None)
    assert len(pull_point.queue) == 2  # the queue keeps what fits...
    # ...and the three dropped messages are on the record
    assert counter_total(instrumentation, "wsn.pullpoint.capacity_overflow") == 3


def test_jms_drain_does_not_strand_messages_behind_a_poisoned_one():
    import pytest

    from repro.baselines.jms.messages import TextMessage
    from repro.baselines.jms.provider import JmsProvider
    from repro.messenger.adapters import JmsBackbone
    from repro.xmlkit import parse_xml

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    backbone = JmsBackbone(JmsProvider(network.clock))
    backbone.network = network  # what WsMessenger does when mounting it
    delivered = []

    def deliver(payload, topic):
        if payload.name.local == "bad":
            raise ValueError("poison")
        delivered.append((payload.name.local, topic))

    backbone.start(deliver)
    # two poisoned messages are already buffered when the drain runs
    backbone._producer.send(TextMessage(text="<bad/>"))
    backbone._producer.send(TextMessage(text="<bad/>"))
    with pytest.raises(ValueError):
        backbone.publish(parse_xml("<good/>"), "t")

    assert delivered == [("good", "t")]  # nothing stranded behind the poison
    # the first error surfaced (raised above); only the second was swallowed
    assert counter_total(instrumentation, "messenger.adapters.jms_drain") == 1


def test_store_recovery_counts_failed_subscribe_replay():
    from repro.messenger.broker import WsMessenger
    from repro.store.core import BrokerStore
    from repro.store.log import MemoryEventLog
    from repro.store.records import SubscribeRecorded
    from repro.store.recovery import _replay_subscribe

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    store = BrokerStore(MemoryEventLog())
    broker = WsMessenger(network, "http://replay-broker", store=store)
    # a logged grant whose consumer EPR is no EPR: nothing to grant
    record = SubscribeRecorded(
        at=0.0,
        family="wsn",
        tag="v1_3",
        sub_id="sub-bogus",
        expires=None,
        consumer="http://consumer",
        consumer_epr="<bogus/>",
        end_to=None,
        end_to_epr=None,
        filter={"topic": "t"},
        qos=None,
        mode="Push",
        use_raw=False,
        topic="t",
    )
    _replay_subscribe(broker, store, record)
    assert store.stats.recovered_subscriptions == 0  # the replay moved on...
    assert counter_total(instrumentation, "store.recovery.replay_subscribe") == 1


def test_corba_batch_push_does_not_strand_events_behind_a_poisoned_one():
    import pytest

    from repro.baselines.corba.events import StructuredEvent
    from repro.messenger.adapters import CorbaBackbone

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    backbone = CorbaBackbone()
    backbone.network = network
    delivered = []

    def deliver(payload, topic):
        if payload.name.local == "bad":
            raise ValueError("poison")
        delivered.append(payload.name.local)

    backbone.start(deliver)
    servant = next(iter(backbone.orb._servants.values()))
    batch = [
        StructuredEvent(
            domain_name="d", type_name="t", filterable_data={}, payload=payload
        ).to_wire()
        for payload in ("<bad/>", "<bad/>", "<ok/>")
    ]
    with pytest.raises(ValueError):
        servant("push_structured_events", [batch])

    assert delivered == ["ok"]
    assert counter_total(instrumentation, "messenger.adapters.corba_push") == 1
