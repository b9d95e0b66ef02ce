"""Wire-level tests for WS-BrokeredNotification publisher registration."""

import pytest

from repro.soap import SoapFault
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wsn import (
    NotificationBroker,
    NotificationConsumer,
    NotificationProducer,
    WsnSubscriber,
)
from repro.wsn.broker import BrokeredClient
from repro.xmlkit import parse_xml


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:bw"><e:n>{n}</e:n></e:V>')


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


@pytest.fixture
def broker(network):
    return NotificationBroker(network, "http://broker")


@pytest.fixture
def client(network):
    return BrokeredClient(network)


class TestRegisterPublisherOverTheWire:
    def test_plain_registration(self, network, broker, client):
        handle = client.register_publisher(
            broker.epr(), publisher=None, topic="jobs", demand=False
        )
        assert handle.key
        assert any(r.key == handle.key for r in broker.registrations())

    def test_demand_registration_full_chain(self, network, broker, client):
        publisher = NotificationProducer(network, "http://publisher")
        handle = client.register_publisher(
            broker.epr(), publisher=publisher.epr(), topic="jobs", demand=True
        )
        registration = next(
            r for r in broker.registrations() if r.key == handle.key
        )
        assert registration.demand and registration.paused_upstream
        # consumer demand appears -> upstream resumed -> events flow
        consumer = NotificationConsumer(network, "http://consumer")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="jobs")
        assert not registration.paused_upstream
        publisher.publish(event(), topic="jobs")
        assert len(consumer.received) == 1

    def test_demand_without_publisher_faults(self, broker, client):
        with pytest.raises(SoapFault):
            client.register_publisher(broker.epr(), topic="jobs", demand=True)

    def test_destroy_registration(self, network, broker, client):
        publisher = NotificationProducer(network, "http://publisher")
        handle = client.register_publisher(
            broker.epr(), publisher=publisher.epr(), topic="jobs", demand=True
        )
        client.destroy_registration(handle)
        assert all(r.key != handle.key for r in broker.registrations())
        # the broker's upstream subscription at the publisher is gone too
        assert len(publisher.subscriptions) == 0

    def test_destroy_twice_faults(self, network, broker, client):
        handle = client.register_publisher(broker.epr(), topic="jobs")
        client.destroy_registration(handle)
        with pytest.raises(SoapFault):
            client.destroy_registration(handle)

    def test_registration_reference_targets_manager_endpoint(self, broker, client):
        handle = client.register_publisher(broker.epr(), topic="jobs")
        assert handle.reference.address == broker.registration_address
