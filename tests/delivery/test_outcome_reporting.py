"""Failed notifications are reported, never silently dropped (even with
reliability disabled: the historical best-effort paths now record outcomes
and count ``delivery.failed_total``)."""

from repro.obs.instrument import Instrumentation
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import EventSink, EventSource, WseSubscriber
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
from repro.xmlkit import parse_xml


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:out"><e:n>{n}</e:n></e:V>')


class TestWseOutcomes:
    def test_failed_push_is_recorded(self):
        network = SimulatedNetwork(VirtualClock())
        source = EventSource(network, "http://src")
        sink = EventSink(network, "http://snk")
        WseSubscriber(network).subscribe(source.epr(), notify_to=sink.epr())
        sink.close()
        source.publish(event())
        stages = [f.stage for f in source.delivery_failures]
        assert "notify" in stages
        failure = source.delivery_failures[0]
        assert failure.family == "wse"
        assert failure.sink == "http://snk"
        assert failure.kind == "AddressUnreachable"

    def test_failed_subscription_end_is_recorded(self):
        network = SimulatedNetwork(VirtualClock())
        source = EventSource(network, "http://src")
        sink = EventSink(network, "http://snk")
        WseSubscriber(network).subscribe(
            source.epr(), notify_to=sink.epr(), end_to=sink.epr()
        )
        sink.close()
        # delivery failure ends the subscription; the SubscriptionEnd
        # message itself also fails — both must surface
        source.publish(event())
        stages = [f.stage for f in source.delivery_failures]
        assert stages == ["notify", "subscription_end"]

    def test_failed_total_counter_without_reliability(self):
        network = SimulatedNetwork(VirtualClock())
        instrumentation = Instrumentation.attach(network)
        source = EventSource(network, "http://src")
        sink = EventSink(network, "http://snk")
        WseSubscriber(network).subscribe(source.epr(), notify_to=sink.epr())
        sink.close()
        source.publish(event())
        counters = instrumentation.metrics.snapshot()["counters"]
        key = (
            "delivery.failed_total"
            "{family=wse,kind=AddressUnreachable,stage=notify}"
        )
        assert counters[key] == 1


class TestWsnOutcomes:
    def test_failed_notify_is_recorded_and_subscription_still_reaped(self):
        network = SimulatedNetwork(VirtualClock())
        producer = NotificationProducer(network, "http://prod")
        consumer = NotificationConsumer(network, "http://cons")
        WsnSubscriber(network).subscribe(producer.epr(), consumer.epr(), topic="t")
        consumer.close()
        producer.publish(event(), topic="t")
        # destroying the subscription fires a TerminationNotification at the
        # same dead consumer, so both failures surface
        assert [f.stage for f in producer.delivery_failures] == [
            "notify",
            "termination_notification",
        ]
        assert producer.delivery_failures[0].family == "wsn"
        # unmanaged behavior is unchanged: the dead consumer's subscription
        # is destroyed so later publishes stop attempting it
        assert producer.publish(event(), topic="t") == 0

    def test_failed_termination_notification_is_recorded(self):
        network = SimulatedNetwork(VirtualClock())
        producer = NotificationProducer(network, "http://prod")
        consumer = NotificationConsumer(network, "http://cons")
        WsnSubscriber(network).subscribe(
            producer.epr(), consumer.epr(), topic="t", initial_termination="PT10S"
        )
        consumer.close()
        network.clock.advance(20.0)
        producer.sweep()  # expiry fires a TerminationNotification: refused
        assert [f.stage for f in producer.delivery_failures] == [
            "termination_notification"
        ]

    def test_failure_counts_aggregates(self):
        network = SimulatedNetwork(VirtualClock())
        producer = NotificationProducer(network, "http://prod")
        subscriber = WsnSubscriber(network)
        for n in range(2):
            consumer = NotificationConsumer(network, f"http://cons-{n}")
            subscriber.subscribe(producer.epr(), consumer.epr(), topic="t")
            consumer.close()
        producer.publish(event(), topic="t")
        records = sorted(
            (f.family, f.stage, f.kind) for f in producer.delivery_failures
        )
        assert records == [
            ("wsn", "notify", "AddressUnreachable"),
            ("wsn", "notify", "AddressUnreachable"),
            ("wsn", "termination_notification", "AddressUnreachable"),
            ("wsn", "termination_notification", "AddressUnreachable"),
        ]
