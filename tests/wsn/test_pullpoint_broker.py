"""Tests for WSN 1.3 pull points and WS-BrokeredNotification on the broker."""

import pytest

from repro.messenger import WsMessenger
from repro.soap import SoapFault
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wsa import EndpointReference
from repro.wsn import (
    NotificationConsumer,
    NotificationProducer,
    PullPointClient,
    PullPointFactory,
    WsnSubscriber,
    WsnVersion,
)
from repro.xmlkit import parse_xml


def event(n=1):
    return parse_xml(f'<ev:E xmlns:ev="urn:grid:events"><ev:n>{n}</ev:n></ev:E>')


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


class TestPullPoint:
    def test_create_subscribe_pull(self, network):
        """The section V.3 pattern: create pull point, subscribe it as the
        consumer, poll it — the producer sees an ordinary push consumer."""
        producer = NotificationProducer(network, "http://producer")
        factory = PullPointFactory(network, "http://pp-factory")
        client = PullPointClient(network)
        subscriber = WsnSubscriber(network)
        pull_point = client.create(factory.epr())
        subscriber.subscribe(producer.epr(), pull_point, topic="jobs")
        producer.publish(event(1), topic="jobs")
        producer.publish(event(2), topic="jobs")
        received = client.get_messages(pull_point)
        assert len(received) == 2
        assert received[0].topic == "jobs"
        assert client.get_messages(pull_point) == []

    def test_maximum_number(self, network):
        producer = NotificationProducer(network, "http://producer")
        factory = PullPointFactory(network, "http://pp-factory")
        client = PullPointClient(network)
        subscriber = WsnSubscriber(network)
        pull_point = client.create(factory.epr())
        subscriber.subscribe(producer.epr(), pull_point, topic="jobs")
        for i in range(5):
            producer.publish(event(i), topic="jobs")
        assert len(client.get_messages(pull_point, maximum=2)) == 2
        assert len(client.get_messages(pull_point)) == 3

    def test_firewalled_consumer_polls(self, network):
        network.add_zone("lan", blocks_inbound=True)
        producer = NotificationProducer(network, "http://producer")
        factory = PullPointFactory(network, "http://pp-factory")
        client = PullPointClient(network, zone="lan")
        subscriber = WsnSubscriber(network, zone="lan")
        pull_point = client.create(factory.epr())
        subscriber.subscribe(producer.epr(), pull_point, topic="jobs")
        producer.publish(event(), topic="jobs")
        assert len(client.get_messages(pull_point)) == 1

    def test_destroy_pull_point(self, network):
        factory = PullPointFactory(network, "http://pp-factory")
        client = PullPointClient(network)
        pull_point = client.create(factory.epr())
        client.destroy(pull_point)
        from repro.transport import AddressUnreachable

        with pytest.raises(AddressUnreachable):
            client.get_messages(pull_point)

    def test_factory_rejected_pre_13(self, network):
        with pytest.raises(SoapFault):
            PullPointFactory(network, "http://pp", version=WsnVersion.V1_0)

    def test_distinct_pull_points(self, network):
        factory = PullPointFactory(network, "http://pp-factory")
        client = PullPointClient(network)
        first = client.create(factory.epr())
        second = client.create(factory.epr())
        assert first.address != second.address


class TestBroker:
    def test_decouples_publisher_and_consumer(self, network):
        broker = WsMessenger(network, "http://broker")
        consumer = NotificationConsumer(network, "http://consumer")
        subscriber = WsnSubscriber(network)
        subscriber.subscribe(broker.epr(), consumer.epr(), topic="jobs/status")
        broker.publish(event(), topic="jobs/status")
        assert len(consumer.received) == 1

    def test_notify_interface_accepts_publications(self, network):
        """A publisher pushes a wrapped Notify at the broker over the wire."""
        from repro.soap.envelope import SoapVersion
        from repro.transport.endpoint import SoapClient
        from repro.wsn import messages
        from repro.wsn.messages import NotificationMessage

        broker = WsMessenger(network, "http://broker")
        consumer = NotificationConsumer(network, "http://consumer")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="jobs")
        version = WsnVersion.V1_3
        notify = messages.build_notify(
            version, [NotificationMessage(event(7), topic="jobs")]
        )
        client = SoapClient(network, wsa_version=version.wsa_version, soap_version=SoapVersion.V11)
        client.call(broker.epr(), version.action("Notify"), [notify], expect_reply=False)
        assert len(consumer.received) == 1
        assert "7" in consumer.received[0].payload.full_text()

    def test_register_publisher(self, network):
        broker = WsMessenger(network, "http://broker")
        registration = broker.publishers.register(
            EndpointReference("http://some-publisher"), topic="jobs"
        )
        assert registration in list(broker.publishers)
        broker.publishers.destroy(registration.key)
        assert registration not in list(broker.publishers)

    def test_demand_registration_requires_publisher_and_topic(self, network):
        broker = WsMessenger(network, "http://broker")
        with pytest.raises(SoapFault):
            broker.publishers.register(None, topic="jobs", demand=True)


class TestDemandBasedPublishing:
    def _setup(self, network):
        # the demand publisher exposes its own producer endpoint
        publisher = NotificationProducer(network, "http://publisher")
        broker = WsMessenger(network, "http://broker")
        registration = broker.publishers.register(publisher.epr(), topic="jobs", demand=True)
        return publisher, broker, registration

    def test_paused_until_demand(self, network):
        publisher, broker, registration = self._setup(network)
        assert registration.paused_upstream  # no consumers yet
        # the publisher's messages are queued at the publisher, not delivered
        publisher.publish(event(1), topic="jobs")
        consumer = NotificationConsumer(network, "http://consumer")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="jobs")
        assert not registration.paused_upstream  # demand appeared -> resumed
        # the queued message flushed through the broker to the consumer
        assert len(consumer.received) == 1

    def test_demand_drops_to_zero_pauses_again(self, network):
        publisher, broker, registration = self._setup(network)
        consumer = NotificationConsumer(network, "http://consumer")
        subscriber = WsnSubscriber(network)
        handle = subscriber.subscribe(broker.epr(), consumer.epr(), topic="jobs")
        assert not registration.paused_upstream
        subscriber.unsubscribe(handle)
        assert registration.paused_upstream

    def test_demand_counts_only_matching_topics(self, network):
        publisher, broker, registration = self._setup(network)
        consumer = NotificationConsumer(network, "http://consumer")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="system/alerts")
        assert registration.paused_upstream  # interest is in a different topic
        assert broker.publishers.demand("jobs") == 0
        assert broker.publishers.demand("system/alerts") == 1

    def test_paused_subscription_carries_no_demand(self, network):
        publisher, broker, registration = self._setup(network)
        consumer = NotificationConsumer(network, "http://consumer")
        subscriber = WsnSubscriber(network)
        handle = subscriber.subscribe(broker.epr(), consumer.epr(), topic="jobs")
        assert not registration.paused_upstream
        subscriber.pause(handle)
        assert registration.paused_upstream
        subscriber.resume(handle)
        assert not registration.paused_upstream

    def test_live_flow_through_demand_chain(self, network):
        publisher, broker, registration = self._setup(network)
        consumer = NotificationConsumer(network, "http://consumer")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="jobs")
        publisher.publish(event(42), topic="jobs")
        assert len(consumer.received) == 1
        assert "42" in consumer.received[0].payload.full_text()
