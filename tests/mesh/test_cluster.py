"""Mesh delivery semantics: exactly-once, byte-fidelity, any entry node.

The mesh's contract (see the conformance ``mesh`` engine for the fuzzed
version): wherever a publish enters and wherever a subscription lives, every
matching consumer sees each message exactly once, payload byte-identical,
topic preserved.
"""

from repro.mesh import MeshCluster
from repro.messenger import WsMessenger
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import EventSink
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.xmlkit import parse_xml
from repro.xmlkit.writer import serialize_xml


def make_mesh(shards=3):
    network = SimulatedNetwork(VirtualClock())
    return network, MeshCluster(network, shards, base_address="http://clustest")


def test_cross_shard_publish_delivers_exactly_once_from_any_entry():
    network, mesh = make_mesh()
    owner = mesh.owner_node_of_topic("jobs/status")
    home = next(node for node in mesh if node.name != owner.name)
    consumer = NotificationConsumer(network, "http://clus-consumer")
    mesh.subscribe_wsn(consumer.address, topic="jobs/status", home=home.name)

    payload = parse_xml('<job xmlns="urn:x"><id>7</id></job>')
    for entry in list(mesh):  # one publish at every entry node
        mesh.publish(payload.copy(), topic="jobs/status", via=entry.name)

    assert len(consumer.received) == len(mesh.nodes)
    for item in consumer.received:
        assert serialize_xml(item.payload) == serialize_xml(payload)
        assert item.topic == "jobs/status"


def test_colocated_consumer_is_not_double_delivered():
    network, mesh = make_mesh()
    owner = mesh.owner_node_of_topic("jobs/status")
    consumer = NotificationConsumer(network, "http://clus-local")
    mesh.subscribe_wsn(consumer.address, topic="jobs/status", home=owner.name)
    other = next(node for node in mesh if node.name != owner.name)

    mesh.publish(parse_xml("<a/>"), topic="jobs/status", via=owner.name)
    mesh.publish(parse_xml("<b/>"), topic="jobs/status", via=other.name)

    # one delivery per publish: local fan-out and federation never overlap
    assert len(consumer.received) == 2


def test_topicless_publishes_reach_a_broadcast_wse_sink_once():
    network, mesh = make_mesh()
    sink = EventSink(network, "http://clus-sink")
    mesh.subscribe_wse(sink.address, home=1)

    tick, tock = parse_xml("<tick/>"), parse_xml("<tock/>")
    mesh.publish(tick.copy(), via=0)  # no topic: routes by the reserved key
    mesh.publish(tock.copy(), via=2)

    assert [serialize_xml(item.payload) for item in sink.received] == [
        serialize_xml(tick),
        serialize_xml(tock),
    ]


def test_non_matching_topics_stay_silent():
    network, mesh = make_mesh()
    consumer = NotificationConsumer(network, "http://clus-quiet")
    mesh.subscribe_wsn(consumer.address, topic="jobs/status", home=0)
    mesh.publish(parse_xml("<x/>"), topic="billing/run", via=0)
    mesh.publish(parse_xml("<y/>"), topic="billing/run", via=1)
    assert consumer.received == []


def test_default_entry_is_the_owner():
    from repro.obs.instrument import Instrumentation

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    mesh = MeshCluster(network, 3, base_address="http://clusdefault")
    mesh.publish(parse_xml("<z/>"), topic="grid/load")
    # default via is the topic's owner: the fast path never forwards
    forwarded = instrumentation.metrics.counter_values("mesh.forwarded_publishes")
    owned = instrumentation.metrics.counter_values("mesh.owned_publishes")
    assert sum(forwarded.values()) == 0
    assert sum(owned.values()) == 1


ROOTS = [f"t{i:02d}" for i in range(32)]


def tick(topic, n):
    return parse_xml(f'<ev:Tick xmlns:ev="urn:clus"><ev:topic>{topic}</ev:topic><ev:n>{n}</ev:n></ev:Tick>')


def fan_out(shards):
    """32 topic roots x 3 consumers x 2 publishes, everyone at the topic's owner
    (``shards=0`` is one plain broker).  Returns every consumer's delivery
    sequence and the busiest shard's virtual seconds — the makespan of the
    parallel-shard model, publish cost charged to the owning shard."""
    if shards:
        network, target = make_mesh(shards)
    else:
        network = SimulatedNetwork(VirtualClock())
        target = WsMessenger(network, "http://clustest")
    consumers = {
        topic: [NotificationConsumer(network, f"http://clus-c/{topic}/{j}") for j in range(3)]
        for topic in ROOTS
    }
    for topic in ROOTS:
        for consumer in consumers[topic]:
            if shards:
                target.subscribe_wsn(consumer.address, topic=topic)
            else:
                WsnSubscriber(network).subscribe(target.epr(), consumer.epr(), topic=topic)
    busy = {}
    for n in range(2):
        for topic in ROOTS:
            shard = target.owner_node_of_topic(topic).name if shards else None
            before = network.clock.now()
            target.publish(tick(topic, n), topic=topic)
            busy[shard] = busy.get(shard, 0.0) + network.clock.now() - before
    received = [
        [(serialize_xml(item.payload), item.topic) for item in consumer.received]
        for topic in ROOTS
        for consumer in consumers[topic]
    ]
    return received, max(busy.values())


def test_shards_deliver_what_one_broker_does_and_four_halve_the_makespan():
    one_broker, _ = fan_out(0)
    one_shard, one_makespan = fan_out(1)
    four_shards, four_makespan = fan_out(4)
    assert sum(map(len, one_broker)) == len(ROOTS) * 3 * 2
    assert one_shard == four_shards == one_broker
    assert one_makespan / four_makespan >= 2.0
