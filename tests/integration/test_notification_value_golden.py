"""Wire and ledger digests of every path a notification value travels.

Each scenario drives one path between match and wire — a batched WSN Notify,
a resumed WSN backlog (wrapped and raw), WS-Eventing push / wrapped / pull,
the converged prototype's push / wrapped / pull, the message-box drains in
both dialects, a mesh forward hop and federation ingress — with
instrumentation on.  The digests pin the exact request and response bytes,
frame by frame (the HTTP head carries the lineage header), and the
lineage-ledger event sequence: how a notification is carried inside the
broker may change, what it puts on the wire and in the books may not.  A
third digest pins what the receiving side read off that wire: every
consumer's records (serialized payload, topic, ``wrapped``, subscription
address) and every pulled batch — how a reader holds what it parsed may
change, what it hands its caller may not.
"""

import functools
import hashlib
import json
import re

import pytest

from repro.convergence.service import (
    MODE_PULL,
    MODE_WRAP,
    ConvergedConsumer,
    ConvergedSource,
    ConvergedSubscriber,
)
from repro.delivery import BatchingPolicy, DeliveryPolicy, drain_message_box_wse
from repro.mesh.cluster import MeshCluster
from repro.messenger import WsMessenger
from repro.obs import Instrumentation
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wsa.headers import reset_message_counter
from repro.wse import EventSink, EventSource, WseSubscriber
from repro.wse.model import DeliveryMode
from repro.wsn import NotificationConsumer, NotificationProducer, PullPointClient, WsnSubscriber
from repro.xmlkit import parse_xml, serialize_xml

ZONE = "golden-lan"


def event(n: int):
    return parse_xml(f'<g:E xmlns:g="urn:golden"><g:n>{n}</g:n><g:t>a &amp; b</g:t></g:E>')


def wsn_batched(network):
    """Three subscriptions at one sink coalesce into one Notify per publish."""
    producer = NotificationProducer(
        network, "http://g-producer", batching=BatchingPolicy(window=0.0, max_batch=10)
    )
    consumer = NotificationConsumer(network, "http://g-consumer")
    client = WsnSubscriber(network)
    for _ in range(3):
        client.subscribe(producer.epr(), consumer.epr(), topic="t")
    for n in range(2):
        producer.publish(event(n), topic="t")
    producer.publish(event(9), topic="u")
    assert len(consumer.received) == 6
    return [consumer]


def wsn_resume(network):
    """A paused backlog of mixed topics, resumed wrapped and raw."""
    producer = NotificationProducer(network, "http://g-producer")
    wrapped = NotificationConsumer(network, "http://g-wrapped")
    raw = NotificationConsumer(network, "http://g-raw")
    client = WsnSubscriber(network)
    handles = [
        client.subscribe(producer.epr(), wrapped.epr()),
        client.subscribe(producer.epr(), raw.epr(), use_raw=True),
    ]
    for handle in handles:
        client.pause(handle)
    producer.publish(event(1), topic="a")
    producer.publish(event(2), topic="b")
    producer.publish(event(3))
    for handle in handles:
        client.resume(handle)
    producer.publish(event(4), topic="a")
    assert [len(wrapped.received), len(raw.received)] == [4, 4]
    return [wrapped, raw]


def wse_paths(network):
    """WS-Eventing push, a wrapped batch (size trigger and flush) and pull."""
    source = EventSource(network, "http://g-source", batching=BatchingPolicy(max_batch=3))
    push = EventSink(network, "http://g-push")
    wrapped = EventSink(network, "http://g-wrapped")
    client = WseSubscriber(network)
    client.subscribe(source.epr(), notify_to=push.epr())
    client.subscribe(source.epr(), notify_to=wrapped.epr(), mode=DeliveryMode.WRAPPED)
    pull = client.subscribe(source.epr(), mode=DeliveryMode.PULL)
    for n in range(5):
        source.publish(event(n), topic="a" if n % 2 else None)
    source.flush()
    pulled = [client.pull(pull, 2), client.pull(pull)]
    assert [len(batch) for batch in pulled] == [2, 3]
    assert [len(push.received), len(wrapped.received)] == [5, 5]
    return [push, wrapped, *pulled]


def converged_paths(network):
    """The converged prototype: push (wrapped and raw), a paused push resumed,
    a wrapped batch and pull."""
    source = ConvergedSource(network, "http://g-conv", batching=BatchingPolicy(max_batch=3))
    push = ConvergedConsumer(network, "http://g-conv-push")
    raw = ConvergedConsumer(network, "http://g-conv-raw")
    wrapped = ConvergedConsumer(network, "http://g-conv-wrapped")
    client = ConvergedSubscriber(network)
    paused = client.subscribe(source.epr(), consumer=push.epr())
    client.subscribe(source.epr(), consumer=raw.epr(), use_raw=True)
    client.subscribe(source.epr(), consumer=wrapped.epr(), mode=MODE_WRAP)
    pull = client.subscribe(source.epr(), mode=MODE_PULL)
    for n in range(2):
        source.publish(event(n), topic="a" if n % 2 else None)
    client.pause(paused)
    for n in range(2, 5):
        source.publish(event(n), topic="a" if n % 2 else "b")
    client.resume(paused)
    source.flush()
    pulled = [client.pull(pull, 2), client.pull(pull)]
    assert [len(batch) for batch in pulled] == [2, 3]
    assert [len(push.received), len(raw.received), len(wrapped.received)] == [5, 5, 5]
    return [push, raw, wrapped, *pulled]


def message_box_drains(network):
    """Firewalled sinks park at the broker; GetMessages and Pull drain them."""
    network.add_zone(ZONE, blocks_inbound=True)
    broker = WsMessenger(
        network,
        "http://g-broker",
        delivery=DeliveryPolicy(
            max_attempts=4, base_backoff=1.0, jitter=0.0, breaker_failure_threshold=1
        ),
    )
    consumer = NotificationConsumer(network, "http://g-inside-c", zone=ZONE)
    WsnSubscriber(network, zone=ZONE).subscribe(broker.epr(), consumer.epr(), topic="fw")
    sink = EventSink(network, "http://g-inside-s", zone=ZONE)
    WseSubscriber(network, zone=ZONE).subscribe(broker.epr(), notify_to=sink.epr())
    for n in range(3):
        broker.publish(event(n), topic="fw")
    broker.publish(event(3))
    puller = PullPointClient(network, zone=ZONE)
    box = broker.message_boxes.get(consumer.address).epr()
    pulled = [puller.get_messages(box, maximum=2), drain_message_box_wse(network, box, zone=ZONE)]
    box = broker.message_boxes.get(sink.address).epr()
    pulled += [puller.get_messages(box, maximum=1), drain_message_box_wse(network, box, zone=ZONE)]
    assert [len(batch) for batch in pulled] == [2, 1, 1, 3]
    return [consumer, sink, *pulled]


def mesh_hops(network):
    """Publishes entering at non-owner shards forward one hop to the owner,
    whose exchange federates them to a consumer homed elsewhere."""
    mesh = MeshCluster(network, 3)
    owner = mesh.owner_node_of_topic("jobs/status").name
    other = next(name for name in mesh.registry.current.members if name != owner)
    local = NotificationConsumer(network, "http://g-local")
    mesh.subscribe_wsn(local.address, topic="jobs/status")
    remote = NotificationConsumer(network, "http://g-remote")
    mesh.subscribe_wsn(remote.address, topic="jobs/status", home=other)
    for index in range(3):
        mesh.publish(event(index), topic="jobs/status", via=index)
    mesh.quiesce()
    assert [len(local.received), len(remote.received)] == [3, 3]
    return [local, remote]


#: the fixed-width parent-span field of ``X-Lineage: 01-<lineage>-<parent>-<hop>``:
#: span ids number whatever spans the sender opens, so the digest masks them
#: and keeps the lineage id and the hop
_LINEAGE_PARENT = re.compile(rb"(X-Lineage: 01-[^\r\n]+-)[0-9a-f]{8}(-[0-9a-f]{2}\r\n)")


def _rows(receiver) -> list:
    """What one receiver holds, as (payload text, topic, wrapped,
    subscription address) rows: a consumer's records, or a pulled batch —
    bare payloads, (payload, topic) pairs or WSN NotificationMessages."""
    if hasattr(receiver, "received"):
        return [
            (serialize_xml(r.payload), r.topic, r.wrapped, r.subscription_address)
            for r in receiver.received
        ]
    rows = []
    for entry in receiver:
        if isinstance(entry, tuple):
            rows.append((serialize_xml(entry[0]), entry[1], True, None))
        elif hasattr(entry, "subscription_reference"):
            reference = entry.subscription_reference
            rows.append((
                serialize_xml(entry.payload),
                entry.topic,
                True,
                reference.address if reference is not None else None,
            ))
        else:
            rows.append((serialize_xml(entry), None, False, None))
    return rows


@functools.lru_cache(maxsize=None)
def digests(scenario) -> tuple[str, str, str]:
    """SHA-256 of every frame's (address, outcome, request, response) in
    order, the request's lineage parent span masked; of the lineage
    ledger's snapshot; and of what the scenario's receivers recorded."""
    reset_message_counter()
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    wire = hashlib.sha256()

    def observe(observation) -> None:
        for part in (
            observation.address.encode(),
            observation.outcome.encode(),
            _LINEAGE_PARENT.sub(rb"\1xxxxxxxx\2", bytes(observation.request)),
            bytes(observation.response or b""),
        ):
            wire.update(len(part).to_bytes(4, "big"))
            wire.update(part)

    network.wire_observers.append(observe)
    receivers = scenario(network)
    ledger = json.dumps(instrumentation.ledger.snapshot(), sort_keys=True)
    recorded = json.dumps([_rows(receiver) for receiver in receivers])
    return (
        wire.hexdigest(),
        hashlib.sha256(ledger.encode()).hexdigest(),
        hashlib.sha256(recorded.encode()).hexdigest(),
    )


#: recorded before the producer side carried notifications as one value; the
#: wire digests re-recorded with the lineage parent span masked, before a
#: delivery stopped opening the ``notify`` span
GOLDEN = {
    "wsn_batched": (
        "063115ab343ac26a9aa716a493de5f847efb3373a625ec8bf98d7c0ff32f1694",
        "f8f557cb5a964559f1a22872199170852081a931e23ad51705080765b59786f6",
    ),
    "wsn_resume": (
        "79b11a55722de0f0f9005f1b094bc72a1323fb72eae5daa29de9ecfd7637fb0d",
        "801d0c09fd4358c9c8d11067ca0f8df09815f075c146597468e6705dcd33338c",
    ),
    "wse_paths": (
        "2b0b713114242d4a976ad5ac0662ccb38bdbafa4bf49ebb53a86d489b7a032b2",
        "d088dbfa7f18da43f16c14448b7df228f4b06fe095552b4cc6964e8ff8696281",
    ),
    "converged_paths": (
        "40ebaa7166f2112ee2b69d2dc4a099b1ca7e4529446a2fb792339bf922911bf2",
        "d30de5e19523e9d4e9f7ea40255e88e07ed1941083e8052fbd410aea98423e35",
    ),
    "message_box_drains": (
        "acd8db1dccb68f0c23d7b5928d600d00ce88e0d9afc93bd97a98660f33f02dd4",
        "af2c625f57a70e4f06751c075ff90c600eb256eb03545fff04c06f9ae60cffec",
    ),
    "mesh_hops": (
        "8c6e76925730c42a477a92043f13ed85952350be5250655ee2235a2ffdaa36d9",
        "a470118d6f5c8f397d61be80f0ed6bb8bb8d52dabb2da93dc7a875c590802340",
    ),
}

SCENARIOS = [wsn_batched, wsn_resume, wse_paths, converged_paths, message_box_drains, mesh_hops]


#: what the receivers recorded, before readers took parsed payloads by reference
RECORDED = {
    "wsn_batched": "421cbb1489934120cc27b9820b2e39b1346fb22311e01943813b6ffcb673d03d",
    "wsn_resume": "13279407e718fef2ed3c9f6412a24108f1472208bf2748fdaca2546bf6e3bd5d",
    "wse_paths": "0335b3bf5c61c29d97d97d797784b02292b1ffa753aa879e3e496f6c2e8d0df1",
    "converged_paths": "bfe02f762adda04b20823c96d771a243472e182b5ed2a1cbb9284f9400b3bf23",
    "message_box_drains": "4df552219de410fdb88fe7ff9cebf0b48fc024108ae71b68d0bcaccda984de56",
    "mesh_hops": "5b7c36bbdd5a1fbd097b2e5c0f4a9957772a0f87f8b87c2ede76fbb71509bfed",
}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda scenario: scenario.__name__)
def test_wire_and_ledger_digests_hold(scenario):
    assert digests(scenario)[:2] == GOLDEN[scenario.__name__]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda scenario: scenario.__name__)
def test_what_each_receiver_recorded_holds(scenario):
    assert digests(scenario)[2] == RECORDED[scenario.__name__]
