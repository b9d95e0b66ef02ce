"""WS-BrokeredNotification on WS-Messenger: the broker of both families.

Publisher registration is two rows of the broker's WSN 1.3 table, reached at
the front door; demand is read off the topic index of *every* subscription
manager, so a WS-Eventing sink's interest resumes a WS-Notification demand
publisher (section VII's mediation applied to section V.5's demand); the
adaptive-QoS lag marks are honoured by the broker that accepts them; a
registration that cannot be made is a fault, never a crash in the sender's
stack and never a half-made registration; and a restart forgets every
registration without letting a pre-crash upstream reach the new broker.
"""

import pytest

from repro.delivery import DeliveryPolicy
from repro.messenger import WsMessenger
from repro.qos import AdaptiveQosPolicy
from repro.soap import FaultCode, SoapFault
from repro.store.core import BrokerStore
from repro.store.log import MemoryEventLog
from repro.store.recovery import recover_broker
from repro.subscriptions import OperationNotAvailable
from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
from repro.transport.endpoint import SoapClient
from repro.wsa import EndpointReference
from repro.wse import EventSink, WseSubscriber
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber, WsnVersion
from repro.wsn.messages import BROKERED_NS, brokered_action
from repro.wsn.producer import operations
from repro.wsdl.generator import WSDL_NS
from repro.xmlkit import parse_xml
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import QName


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:br"><e:n>{n}</e:n></e:V>')


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


def register_request(publisher=None, topic="jobs", demand=None) -> XElem:
    """A RegisterPublisher body as any sender may shape it: ``publisher`` is
    the PublisherReference element, ``demand`` the Demand text."""
    body = XElem(QName(BROKERED_NS, "RegisterPublisher"))
    if publisher is not None:
        body.append(publisher)
    body.append(text_element(WsnVersion.V1_3.qname("Topic"), topic))
    if demand is not None:
        body.append(text_element(QName(BROKERED_NS, "Demand"), demand))
    return body


def send(network, broker, body):
    return SoapClient(network).request(
        broker.epr(), brokered_action("RegisterPublisher"), body, "RegisterPublisher"
    )


class TestOneBroker:
    def test_a_wse_subscribers_interest_resumes_a_wsn_demand_publisher(self, network):
        broker = WsMessenger(network, "http://broker")
        publisher = NotificationProducer(network, "http://publisher")
        WsnSubscriber(network).register_publisher(
            broker.epr(), publisher=publisher.epr(), topic="jobs", demand=True
        )
        (registration,) = broker.publishers
        assert registration.paused_upstream
        publisher.publish(event(1), topic="jobs")  # held at the publisher

        sink = EventSink(network, "http://wse-sink")
        handle = WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        assert not registration.paused_upstream
        # the held event flushed through the broker to the WS-Eventing sink
        assert [item.payload.full_text() for item in sink.received] == ["1"]
        publisher.publish(event(2), topic="jobs")
        assert len(sink.received) == 2

        WseSubscriber(network).unsubscribe(handle)
        assert registration.paused_upstream

    def test_pause_pending_above_pauses_the_publisher_and_a_drain_resumes_it(self, network):
        broker = WsMessenger(
            network,
            "http://broker",
            delivery=DeliveryPolicy(base_backoff=5.0, jitter=0.0, breaker_failure_threshold=100),
            qos=AdaptiveQosPolicy(pause_pending_above=3, resume_pending_below=1),
        )
        publisher = NotificationProducer(network, "http://publisher")
        registration = broker.publishers.register(publisher.epr(), topic="jobs", demand=True)
        sink = EventSink(network, "http://wse-sink")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        assert not registration.paused_upstream
        dark = {"on": True}

        def drop(address, request):
            if dark["on"] and address == sink.address:
                raise MessageLost(address)

        network.observers.append(drop)
        for n in range(3):
            publisher.publish(event(n), topic="jobs")
        assert broker.delivery_manager.pending() == 3
        assert registration.paused_upstream and broker.publishers.lag_paused
        publisher.publish(event(3), topic="jobs")  # held at the publisher
        assert broker.delivery_manager.pending() == 3

        dark["on"] = False
        broker.run_deliveries_until_idle()
        assert not registration.paused_upstream and not broker.publishers.lag_paused
        assert (broker.publishers.pauses, broker.publishers.resumes) == (1, 1)
        assert len(sink.received) == 4

    def test_demand_reads_the_index_without_touching_content_evals(self, network):
        broker = WsMessenger(network, "http://broker")
        sink = EventSink(network, "http://wse-sink")
        WseSubscriber(network).subscribe(
            broker.epr(), notify_to=sink.epr(), filter="/e:V", filter_namespaces={"e": "urn:br"}
        )
        index = next(m for f, _, m in broker.subscription_managers() if len(m)).index
        broker.publish(event(), topic="jobs")
        assert index.content_evals == 1
        assert broker.publishers.demand("jobs") == 1  # a content filter is not evaluated
        assert index.content_evals == 1

    def test_registration_is_served_by_the_broker_alone(self, network):
        broker = WsMessenger(network, "http://broker")
        service = broker.wsn_producers[WsnVersion.V1_3]
        plain = NotificationProducer(network, "http://plain")
        names = lambda table: {row.name for row in table.rows}  # noqa: E731
        assert {"RegisterPublisher", "DestroyRegistration"} <= names(service.operations)
        assert not {"RegisterPublisher", "DestroyRegistration"} & names(plain.operations)
        assert service.operations == operations(WsnVersion.V1_3, brokered=True)
        described = {
            operation.attrs[QName("", "name")]
            for port_type in parse_xml(service.wsdl()).find_all(QName(WSDL_NS, "portType"))
            for operation in port_type.find_all(QName(WSDL_NS, "operation"))
        }
        assert {"RegisterPublisher", "DestroyRegistration"} <= described

    def test_a_pre_13_client_has_no_registration_verb_and_sends_nothing(self, network):
        broker = WsMessenger(network, "http://broker")
        client = WsnSubscriber(network, version=WsnVersion.V1_2)
        sent = network.stats.requests
        with pytest.raises(OperationNotAvailable):
            client.register_publisher(broker.epr(), topic="jobs")
        with pytest.raises(OperationNotAvailable):
            client.destroy_registration(EndpointReference("http://broker/wsn-1.3"))
        assert network.stats.requests == sent


class TestRegistrationFaults:
    def test_an_unreachable_demand_publisher_is_a_registration_failed_fault(self, network):
        broker = WsMessenger(network, "http://broker")
        with pytest.raises(SoapFault) as refused:
            WsnSubscriber(network).register_publisher(
                broker.epr(), publisher=EndpointReference("http://nowhere"), topic="jobs", demand=True
            )
        assert refused.value.subcode == QName(BROKERED_NS, "PublisherRegistrationFailedFault")
        assert list(broker.publishers) == []  # nothing half-made is kept
        assert not network.is_registered("http://broker/ingest-1")

    def test_a_publisher_reference_with_no_address_is_a_sender_fault(self, network):
        broker = WsMessenger(network, "http://broker")
        reference = XElem(QName(BROKERED_NS, "PublisherReference"))
        with pytest.raises(SoapFault) as refused:
            send(network, broker, register_request(reference, demand="true"))
        assert refused.value.code is FaultCode.SENDER
        assert list(broker.publishers) == []

    def test_demand_is_read_as_an_xsd_boolean(self, network):
        broker = WsMessenger(network, "http://broker")
        publisher = NotificationProducer(network, "http://publisher")
        reference = publisher.epr().to_element(
            WsnVersion.V1_3.wsa_version, QName(BROKERED_NS, "PublisherReference")
        )
        for text, demand in ((" 1 ", True), ("0", False), ("true", True), (" false", False)):
            send(network, broker, register_request(reference.copy(), demand=text))
            assert list(broker.publishers)[-1].demand is demand, text
        with pytest.raises(SoapFault) as refused:
            send(network, broker, register_request(reference.copy(), demand="yes"))
        assert refused.value.code is FaultCode.SENDER
        assert len(list(broker.publishers)) == 4


class TestRestart:
    def test_a_restart_forgets_registrations_and_no_pre_crash_upstream_reaches_it(self, network):
        """Registrations are not logged.  The forgotten bridge's subscription
        at the publisher pushes to an ingest no recovered broker mounts, so
        the publisher ends it at its next push; the publisher re-registers."""
        store = BrokerStore(MemoryEventLog())
        broker = WsMessenger(network, "http://broker", store=store)
        publisher = NotificationProducer(network, "http://publisher")
        consumer = NotificationConsumer(network, "http://consumer")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="jobs")
        before = broker.publishers.register(publisher.epr(), topic="jobs", demand=True)
        assert not before.paused_upstream
        broker.close()  # the crash

        recovered = recover_broker(network, "http://broker", store.log)
        assert list(recovered.publishers) == []
        assert recovered.subscription_count() == 1
        after = recovered.publishers.register(publisher.epr(), topic="jobs", demand=True)
        assert after.ingest.address != before.ingest.address
        publisher.publish(event(7), topic="jobs")
        assert len(consumer.received) == 1  # through the new bridge only
        # the orphan's push found no endpoint: the publisher ended it
        assert [s.key for s in publisher.subscriptions.live_resources()] == [after.upstream.sub_id]
