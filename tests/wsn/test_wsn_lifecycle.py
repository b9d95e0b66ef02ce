"""End-to-end WS-Notification tests across versions 1.0, 1.2 and 1.3."""

import pytest

from repro.soap import SoapFault
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wsn import (
    NotificationConsumer,
    NotificationProducer,
    WsnSubscriber,
    WsnVersion,
)
from repro.wsn.producer import PROP_STATUS
from repro.xmlkit import parse_xml

NS = {"ev": "urn:grid:events"}


def event(progress=50):
    return parse_xml(
        f'<ev:Status xmlns:ev="urn:grid:events"><ev:progress>{progress}</ev:progress></ev:Status>'
    )


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


@pytest.fixture(params=list(WsnVersion), ids=lambda v: v.name)
def version(request):
    return request.param


@pytest.fixture
def stack(network, version):
    producer = NotificationProducer(network, "http://producer", version=version)
    consumer = NotificationConsumer(network, "http://consumer", version=version)
    subscriber = WsnSubscriber(network, version=version)
    return producer, consumer, subscriber


class TestSubscribeNotify:
    def test_topic_subscription_wrapped_delivery(self, stack):
        producer, consumer, subscriber = stack
        subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs/status")
        assert producer.publish(event(), topic="jobs/status") == 1
        assert len(consumer.received) == 1
        received = consumer.received[0]
        assert received.wrapped  # Notify wrapper is the default
        assert received.topic == "jobs/status"
        assert received.payload.name.local == "Status"

    def test_topic_mismatch_not_delivered(self, stack):
        producer, consumer, subscriber = stack
        subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs/status")
        assert producer.publish(event(), topic="jobs/errors") == 0
        assert consumer.received == []

    def test_raw_delivery(self, stack):
        producer, consumer, subscriber = stack
        subscriber.subscribe(
            producer.epr(), consumer.epr(), topic="jobs/status", use_raw=True
        )
        producer.publish(event(), topic="jobs/status")
        assert len(consumer.received) == 1
        assert not consumer.received[0].wrapped

    def test_wrapped_message_carries_subscription_reference(self, stack):
        producer, consumer, subscriber = stack
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs")
        producer.publish(event(), topic="jobs")
        assert consumer.received[0].subscription_address == handle.manager.address

    def test_topic_required_pre_13(self, network):
        for version in (WsnVersion.V1_0, WsnVersion.V1_2):
            producer = NotificationProducer(network, f"http://p-{version.name}", version=version)
            consumer = NotificationConsumer(network, f"http://c-{version.name}", version=version)
            subscriber = WsnSubscriber(network, version=version)
            with pytest.raises(SoapFault) as excinfo:
                subscriber.subscribe(producer.epr(), consumer.epr())
            assert "Topic" in excinfo.value.subcode.local

    def test_topicless_subscription_allowed_13(self, network):
        producer = NotificationProducer(network, "http://p13", version=WsnVersion.V1_3)
        consumer = NotificationConsumer(network, "http://c13", version=WsnVersion.V1_3)
        subscriber = WsnSubscriber(network, version=WsnVersion.V1_3)
        subscriber.subscribe(producer.epr(), consumer.epr())
        assert producer.publish(event(), topic="anything") == 1

    def test_full_dialect_wildcard_subscription(self, stack, version):
        producer, consumer, subscriber = stack
        from repro.xmlkit.names import Namespaces

        subscriber.subscribe(
            producer.epr(),
            consumer.epr(),
            topic="jobs//.",
            topic_dialect=Namespaces.DIALECT_TOPIC_FULL,
        )
        assert producer.publish(event(), topic="jobs/status/progress") == 1
        assert producer.publish(event(), topic="system/alerts") == 0

    def test_message_content_filter_13(self, network):
        producer = NotificationProducer(network, "http://p13", version=WsnVersion.V1_3)
        consumer = NotificationConsumer(network, "http://c13", version=WsnVersion.V1_3)
        subscriber = WsnSubscriber(network, version=WsnVersion.V1_3)
        subscriber.subscribe(
            producer.epr(),
            consumer.epr(),
            topic="jobs",
            message_content="/ev:Status[ev:progress > 60]",
            namespaces=NS,
        )
        assert producer.publish(event(50), topic="jobs") == 0
        assert producer.publish(event(80), topic="jobs") == 1

    def test_producer_properties_filter(self, network):
        producer = NotificationProducer(
            network,
            "http://p13",
            version=WsnVersion.V1_3,
            producer_properties={"cluster": "A"},
        )
        consumer = NotificationConsumer(network, "http://c13", version=WsnVersion.V1_3)
        subscriber = WsnSubscriber(network, version=WsnVersion.V1_3)
        subscriber.subscribe(
            producer.epr(),
            consumer.epr(),
            topic="jobs",
            producer_properties="/*[cluster='A']",
        )
        assert producer.publish(event(), topic="jobs") == 1

    def test_all_three_filters_conjoin(self, network):
        producer = NotificationProducer(
            network,
            "http://p13",
            version=WsnVersion.V1_3,
            producer_properties={"cluster": "A"},
        )
        consumer = NotificationConsumer(network, "http://c13", version=WsnVersion.V1_3)
        subscriber = WsnSubscriber(network, version=WsnVersion.V1_3)
        subscriber.subscribe(
            producer.epr(),
            consumer.epr(),
            topic="jobs",
            message_content="/ev:Status[ev:progress > 60]",
            producer_properties="/*[cluster='A']",
            namespaces=NS,
        )
        assert producer.publish(event(80), topic="jobs") == 1
        assert producer.publish(event(40), topic="jobs") == 0
        assert producer.publish(event(80), topic="other") == 0

    def test_invalid_topic_expression_faults(self, stack):
        producer, consumer, subscriber = stack
        with pytest.raises(SoapFault):
            subscriber.subscribe(producer.epr(), consumer.epr(), topic="  ")

    def test_bad_content_filter_faults(self, network):
        producer = NotificationProducer(network, "http://p13", version=WsnVersion.V1_3)
        consumer = NotificationConsumer(network, "http://c13", version=WsnVersion.V1_3)
        subscriber = WsnSubscriber(network, version=WsnVersion.V1_3)
        with pytest.raises(SoapFault) as excinfo:
            subscriber.subscribe(
                producer.epr(), consumer.epr(), topic="jobs", message_content="///"
            )
        assert "MessageContent" in excinfo.value.subcode.local


class TestSubscriptionIdentifierStyle:
    """Section V.4 category 1: ReferenceProperties vs ReferenceParameters."""

    def test_10_uses_reference_properties(self, network):
        producer = NotificationProducer(network, "http://p10", version=WsnVersion.V1_0)
        consumer = NotificationConsumer(network, "http://c10", version=WsnVersion.V1_0)
        subscriber = WsnSubscriber(network, version=WsnVersion.V1_0)
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs")
        assert handle.manager.reference_properties
        assert not handle.manager.reference_parameters

    def test_13_uses_reference_parameters(self, network):
        producer = NotificationProducer(network, "http://p13", version=WsnVersion.V1_3)
        consumer = NotificationConsumer(network, "http://c13", version=WsnVersion.V1_3)
        subscriber = WsnSubscriber(network, version=WsnVersion.V1_3)
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs")
        assert handle.manager.reference_parameters
        assert not handle.manager.reference_properties


class TestLifetimeManagement:
    def test_native_renew_13(self, network):
        producer = NotificationProducer(network, "http://p13", version=WsnVersion.V1_3)
        consumer = NotificationConsumer(network, "http://c13", version=WsnVersion.V1_3)
        subscriber = WsnSubscriber(network, version=WsnVersion.V1_3)
        handle = subscriber.subscribe(
            producer.epr(), consumer.epr(), topic="jobs", initial_termination="PT60S"
        )
        network.clock.advance(30.0)
        subscriber.renew(handle, "PT120S")
        network.clock.advance(100.0)
        assert producer.publish(event(), topic="jobs") == 1

    def test_native_unsubscribe_13(self, network):
        producer = NotificationProducer(network, "http://p13", version=WsnVersion.V1_3)
        consumer = NotificationConsumer(network, "http://c13", version=WsnVersion.V1_3)
        subscriber = WsnSubscriber(network, version=WsnVersion.V1_3)
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs")
        subscriber.unsubscribe(handle)
        assert producer.publish(event(), topic="jobs") == 0

    @pytest.mark.parametrize("old", [WsnVersion.V1_0, WsnVersion.V1_2], ids=lambda v: v.name)
    def test_native_ops_not_defined_pre_13(self, network, old):
        producer = NotificationProducer(network, f"http://p-{old.name}", version=old)
        consumer = NotificationConsumer(network, f"http://c-{old.name}", version=old)
        subscriber = WsnSubscriber(network, version=old)
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs")
        with pytest.raises(SoapFault):
            subscriber.unsubscribe(handle)
        with pytest.raises(SoapFault):
            subscriber.renew(handle, "2006-01-01T01:00:00Z")

    def test_wsrf_destroy_is_the_old_unsubscribe(self, stack):
        """Refutes [16]'s claim that WSN cannot unsubscribe (paper sec. II)."""
        producer, consumer, subscriber = stack
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs")
        subscriber.destroy(handle)
        assert producer.publish(event(), topic="jobs") == 0

    def test_wsrf_set_termination_time_is_the_old_renew(self, stack, network):
        producer, consumer, subscriber = stack
        handle = subscriber.subscribe(
            producer.epr(),
            consumer.epr(),
            topic="jobs",
            initial_termination="2006-01-01T00:01:00Z",
        )
        subscriber.set_termination_time(handle, "2006-01-01T00:10:00Z")
        network.clock.advance(120.0)
        assert producer.publish(event(), topic="jobs") == 1

    def test_duration_termination_rejected_pre_13(self, network):
        producer = NotificationProducer(network, "http://p10", version=WsnVersion.V1_0)
        consumer = NotificationConsumer(network, "http://c10", version=WsnVersion.V1_0)
        subscriber = WsnSubscriber(network, version=WsnVersion.V1_0)
        with pytest.raises(SoapFault) as excinfo:
            subscriber.subscribe(
                producer.epr(), consumer.epr(), topic="jobs", initial_termination="PT60S"
            )
        assert "UnacceptableInitialTerminationTime" in excinfo.value.subcode.local

    def test_duration_termination_accepted_13(self, network):
        producer = NotificationProducer(network, "http://p13", version=WsnVersion.V1_3)
        consumer = NotificationConsumer(network, "http://c13", version=WsnVersion.V1_3)
        subscriber = WsnSubscriber(network, version=WsnVersion.V1_3)
        handle = subscriber.subscribe(
            producer.epr(), consumer.epr(), topic="jobs", initial_termination="PT60S"
        )
        assert handle.expires_text.startswith("2006-")

    def test_expiry_fires_termination_notification_pre_13(self, network):
        producer = NotificationProducer(network, "http://p10", version=WsnVersion.V1_0)
        consumer = NotificationConsumer(network, "http://c10", version=WsnVersion.V1_0)
        subscriber = WsnSubscriber(network, version=WsnVersion.V1_0)
        subscriber.subscribe(
            producer.epr(),
            consumer.epr(),
            topic="jobs",
            initial_termination="2006-01-01T00:01:00Z",
        )
        network.clock.advance(120.0)
        producer.sweep()
        assert consumer.termination_notices == ["expired"]

    def test_get_status_via_wsrf(self, stack):
        producer, consumer, subscriber = stack
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs")
        assert subscriber.get_status(handle) == "Active"

    def test_unknown_subscription_faults(self, stack, network):
        producer, consumer, subscriber = stack
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs")
        subscriber.destroy(handle)
        with pytest.raises(SoapFault):
            subscriber.pause(handle)


class TestPauseResume:
    def test_pause_queues_resume_flushes(self, stack):
        producer, consumer, subscriber = stack
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs")
        subscriber.pause(handle)
        assert subscriber.get_status(handle) == "Paused"
        assert producer.publish(event(1), topic="jobs") == 1  # matched, queued
        assert producer.publish(event(2), topic="jobs") == 1
        assert consumer.received == []
        subscriber.resume(handle)
        assert len(consumer.received) == 2
        assert subscriber.get_status(handle) == "Active"

    def test_resume_without_backlog(self, stack):
        producer, consumer, subscriber = stack
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs")
        subscriber.pause(handle)
        subscriber.resume(handle)
        producer.publish(event(), topic="jobs")
        assert len(consumer.received) == 1


class TestGetCurrentMessage:
    def test_returns_last_message_on_topic(self, stack):
        producer, consumer, subscriber = stack
        subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs")
        producer.publish(event(10), topic="jobs")
        producer.publish(event(99), topic="jobs")
        current = subscriber.get_current_message(producer.epr(), "jobs")
        assert "99" in current.full_text()

    def test_no_message_faults(self, stack):
        producer, consumer, subscriber = stack
        with pytest.raises(SoapFault) as excinfo:
            subscriber.get_current_message(producer.epr(), "quiet/topic")
        assert "NoCurrentMessage" in excinfo.value.subcode.local


class TestDeliveryFailure:
    def test_dead_consumer_subscription_destroyed(self, stack):
        producer, consumer, subscriber = stack
        subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs")
        consumer.close()
        assert producer.publish(event(), topic="jobs") == 1
        assert producer.publish(event(), topic="jobs") == 0  # gone now

    def test_resource_property_document(self, stack):
        producer, consumer, subscriber = stack
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="jobs")
        values = subscriber.get_resource_property(handle, PROP_STATUS)
        assert values and values[0].full_text().strip() == "Active"
