"""Wire-level tests for WS-BrokeredNotification publisher registration: the
two rows of WS-Messenger's WSN 1.3 table, driven by ``WsnSubscriber``."""

import pytest

from repro.messenger import WsMessenger
from repro.soap import SoapFault
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber, WsnVersion
from repro.wsn.messages import REGISTRATION_ID
from repro.xmlkit import parse_xml


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:bw"><e:n>{n}</e:n></e:V>')


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


@pytest.fixture
def broker(network):
    return WsMessenger(network, "http://broker")


@pytest.fixture
def client(network):
    return WsnSubscriber(network)


def registration_of(broker, reference):
    key = reference.parameter_text(REGISTRATION_ID)
    return next((r for r in broker.publishers if r.key == key), None)


class TestRegisterPublisherOverTheWire:
    def test_plain_registration(self, network, broker, client):
        reference = client.register_publisher(broker.epr(), topic="jobs", demand=False)
        assert reference.parameter_text(REGISTRATION_ID)
        assert registration_of(broker, reference) is not None

    def test_demand_registration_full_chain(self, network, broker, client):
        publisher = NotificationProducer(network, "http://publisher")
        reference = client.register_publisher(
            broker.epr(), publisher=publisher.epr(), topic="jobs", demand=True
        )
        registration = registration_of(broker, reference)
        assert registration.demand and registration.paused_upstream
        # consumer demand appears -> upstream resumed -> events flow
        consumer = NotificationConsumer(network, "http://consumer")
        client.subscribe(broker.epr(), consumer.epr(), topic="jobs")
        assert not registration.paused_upstream
        publisher.publish(event(), topic="jobs")
        assert len(consumer.received) == 1

    def test_demand_without_publisher_faults(self, broker, client):
        with pytest.raises(SoapFault):
            client.register_publisher(broker.epr(), topic="jobs", demand=True)
        assert list(broker.publishers) == []

    def test_destroy_registration(self, network, broker, client):
        publisher = NotificationProducer(network, "http://publisher")
        reference = client.register_publisher(
            broker.epr(), publisher=publisher.epr(), topic="jobs", demand=True
        )
        client.destroy_registration(reference)
        assert registration_of(broker, reference) is None
        # the broker's upstream subscription at the publisher is gone too
        assert len(publisher.subscriptions) == 0

    def test_destroy_twice_faults(self, network, broker, client):
        reference = client.register_publisher(broker.epr(), topic="jobs")
        client.destroy_registration(reference)
        with pytest.raises(SoapFault) as refused:
            client.destroy_registration(reference)
        assert refused.value.subcode.local == "ResourceNotDestroyedFault"

    def test_registration_reference_targets_manager_endpoint(self, broker, client):
        """The registrations' manager is the broker's WSN 1.3 service."""
        reference = client.register_publisher(broker.epr(), topic="jobs")
        assert reference.address == broker.wsn_producers[WsnVersion.V1_3].address
