"""Read once: a receiver owns the tree it parsed.

A payload read off the wire belongs to its reader and is taken by reference:
a consumer records the parsed payload itself and the subscription address
from the ``wsa:Address`` text, building no ``EndpointReference`` unless one
is asked for; ingress freezes what it read in place, and the broker freezes
an in-process payload once, at its door.  A hostile Notify is a Sender fault
at whoever reads it, never an exception in the sender's stack.
"""

import pytest

from repro.convergence.profile import WSEN_NS
from repro.convergence.service import ConvergedConsumer, ConvergedSource, ConvergedSubscriber
from repro.delivery import BatchingPolicy
from repro.mesh.cluster import MeshCluster
from repro.messenger import WsMessenger
from repro.obs import Instrumentation
from repro.soap.fault import FaultCode, SoapFault
from repro.soap.codec import parse_envelope
from repro.subscriptions import SubscriptionService
from repro.transport import SimulatedNetwork, VirtualClock
from repro.transport.endpoint import SoapClient
from repro.transport.http import parse_request
from repro.wsa.epr import EndpointReference
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
from repro.wsn import messages
from repro.wsn.versions import WsnVersion
from repro.xmlkit import parse_xml
from repro.xmlkit.element import XElem

WSN = WsnVersion.V1_3
WSNT = "http://docs.oasis-open.org/wsn/b-2"
WSA = "http://www.w3.org/2005/08/addressing"


def event(n: int):
    return parse_xml(f'<r:E xmlns:r="urn:read-once"><r:n>{n}</r:n></r:E>')


def notify_of(*messages_xml: str):
    return parse_xml(
        f'<wsnt:Notify xmlns:wsnt="{WSNT}" xmlns:wsa="{WSA}">{"".join(messages_xml)}</wsnt:Notify>'
    )


NO_MESSAGE = "<wsnt:NotificationMessage><wsnt:Topic>t</wsnt:Topic></wsnt:NotificationMessage>"
NO_ADDRESS = (
    "<wsnt:NotificationMessage><wsnt:SubscriptionReference><wsa:ReferenceParameters/>"
    "</wsnt:SubscriptionReference><wsnt:Message><e/></wsnt:Message></wsnt:NotificationMessage>"
)
HEALTHY = "<wsnt:NotificationMessage><wsnt:Message><e/></wsnt:Message></wsnt:NotificationMessage>"


def send_notify(network, address: str, body):
    return SoapClient(network).call(EndpointReference(address), WSN.action("Notify"), [body])


# --- a hostile Notify is a fault where it is read ------------------------------------


@pytest.mark.parametrize("hostile", [NO_MESSAGE, NO_ADDRESS], ids=["no-message", "no-address"])
def test_a_hostile_notify_is_a_sender_fault_at_the_consumer(hostile):
    network = SimulatedNetwork(VirtualClock())
    consumer = NotificationConsumer(network, "http://c")
    with pytest.raises(SoapFault) as raised:
        send_notify(network, consumer.address, notify_of(HEALTHY, hostile))
    assert raised.value.code is FaultCode.SENDER
    assert consumer.received == []  # read whole before anything is recorded


def test_a_notify_with_no_message_is_a_sender_fault_at_the_front_door():
    network = SimulatedNetwork(VirtualClock())
    broker = WsMessenger(network, "http://b")
    with pytest.raises(SoapFault) as raised:
        send_notify(network, broker.address, notify_of(HEALTHY, NO_MESSAGE))
    assert raised.value.code is FaultCode.SENDER
    assert broker.stats.publications == 0


def test_the_front_door_reads_no_reference_so_one_without_an_address_is_published():
    network = SimulatedNetwork(VirtualClock())
    broker = WsMessenger(network, "http://b")
    assert send_notify(network, broker.address, notify_of(NO_ADDRESS)) is None
    assert broker.stats.publications == 1


def test_a_reference_with_no_address_faults_when_it_is_asked_for():
    (item,) = messages.parse_notify(notify_of(NO_ADDRESS), WSN)
    assert item.producer_reference is None
    for read in (lambda: item.subscription_reference, lambda: item.subscription_address):
        with pytest.raises(SoapFault) as raised:
            read()
        assert raised.value.code is FaultCode.SENDER


def test_a_converged_notification_with_no_message_is_a_sender_fault():
    network = SimulatedNetwork(VirtualClock())
    consumer = ConvergedConsumer(network, "http://cc")
    body = parse_xml(
        f'<n:Notifications xmlns:n="{WSEN_NS}">'
        "<n:Notification><n:Topic>t</n:Topic></n:Notification></n:Notifications>"
    )
    with pytest.raises(SoapFault) as raised:
        SoapClient(network).call(consumer.epr(), f"{WSEN_NS}/Notify", [body])
    assert raised.value.code is FaultCode.SENDER
    assert consumer.received == []


# --- reading rebuilds nothing --------------------------------------------------------


def counting(monkeypatch, calls: list, owner, name: str) -> None:
    """Record each call of ``owner.name`` (a method, or a classmethod called
    on the class) in ``calls``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def notify_body(wire: bytes):
    """The Notify body of a captured request."""
    return parse_envelope(parse_request(wire).body).body_element()


def test_a_consumer_reads_a_batched_notify_without_copying_or_building_references(monkeypatch):
    network = SimulatedNetwork(VirtualClock())
    producer = NotificationProducer(
        network, "http://p", batching=BatchingPolicy(window=0.0, max_batch=10)
    )
    consumer = NotificationConsumer(network, "http://c")
    for _ in range(4):
        WsnSubscriber(network).subscribe(producer.epr(), consumer.epr(), topic="t")
    requests = []
    network.wire_observers.append(lambda observation: requests.append(bytes(observation.request)))
    producer.publish(event(1), topic="t")
    (wire,) = requests
    consumer.received.clear()
    calls: list = []
    counting(monkeypatch, calls, XElem, "copy")
    counting(monkeypatch, calls, EndpointReference, "from_element")
    network.send_request(consumer.address, wire)
    monkeypatch.undo()
    assert calls == []
    assert len(consumer.received) == 4
    # asked for, the references are what an eager read gives
    body = notify_body(wire)
    elements = body.find_all(WSN.qname("NotificationMessage"))
    for item, element, received in zip(messages.parse_notify(body, WSN), elements, consumer.received):
        for local, reference in (
            ("SubscriptionReference", item.subscription_reference),
            ("ProducerReference", item.producer_reference),
        ):
            eager = EndpointReference.from_element(element.find(WSN.qname(local)), WSN.wsa_version)
            assert reference == eager
        assert received.subscription_address == item.subscription_reference.address
        assert received.payload == event(1)


def test_a_notify_mediated_at_the_front_door_is_not_copied():
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    broker = WsMessenger(network, "http://b")
    consumer = NotificationConsumer(network, "http://c")
    WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="t")
    body = messages.build_notify(WSN, [messages.NotificationMessage(event(1), topic="t")])
    send_notify(network, broker.address, body)
    assert [item.payload for item in consumer.received] == [event(1)]
    copies = instrumentation.metrics.counter_values("fanout.payload_copies")
    assert sum(copies.values()) == 0


def test_a_mesh_owner_shares_one_frozen_instance_with_its_exchange_and_services(monkeypatch):
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    mesh = MeshCluster(network, 3)
    topic = "jobs/status"
    owner = mesh.owner_node_of_topic(topic)
    other = next(node for node in mesh if node is not owner)
    local = NotificationConsumer(network, "http://local")
    remote = NotificationConsumer(network, "http://remote")
    mesh.subscribe_wsn(local.address, topic=topic)
    mesh.subscribe_wsn(remote.address, topic=topic, home=other.name)
    routed = []
    original = SubscriptionService._route

    def spying(self, payload, *args):
        routed.append((self, payload))
        return original(self, payload, *args)

    monkeypatch.setattr(SubscriptionService, "_route", spying)
    mesh.publish(event(1), topic=topic, via=other.name)  # forwarded to the owner
    mesh.quiesce()
    at_owner = [payload for service, payload in routed if service.address.startswith(owner.address)]
    assert any(service is owner.exchange for service, _ in routed)
    assert len(at_owner) >= 2 and all(payload is at_owner[0] for payload in at_owner)
    assert at_owner[0].frozen
    assert sum(instrumentation.metrics.counter_values("fanout.payload_copies").values()) == 1
    assert [len(local.received), len(remote.received)] == [1, 1]


def test_an_in_process_publish_is_frozen_once_at_the_door():
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    broker = WsMessenger(network, "http://b")
    consumer = NotificationConsumer(network, "http://c")
    WsnSubscriber(network).subscribe(broker.epr(), consumer.epr())
    payload = event(1)
    broker.publish(payload, topic="t")
    assert not payload.frozen  # the publisher's tree is copied, never frozen under it
    copies = instrumentation.metrics.counter_values("fanout.payload_copies")
    assert copies == {"fanout.payload_copies{family=broker}": 1}


def test_converged_readers_take_payloads_as_parsed(monkeypatch):
    network = SimulatedNetwork(VirtualClock())
    source = ConvergedSource(network, "http://cs")
    consumer = ConvergedConsumer(network, "http://cc")
    ConvergedSubscriber(network).subscribe(source.epr(), consumer=consumer.epr())
    requests = []
    network.wire_observers.append(lambda observation: requests.append(bytes(observation.request)))
    source.publish(event(1), topic="t")
    (wire,) = requests
    consumer.received.clear()
    calls: list = []
    counting(monkeypatch, calls, XElem, "copy")
    network.send_request(consumer.address, wire)
    monkeypatch.undo()
    assert calls == []
    assert [(item.payload, item.topic) for item in consumer.received] == [(event(1), "t")]
