"""One ring per shard-map version, with memoised, bounded lookups.

Every owner lookup in the mesh — the cluster's, each node's, the
registry's moved-key diff and the ``watch_cluster`` gauge probe — goes
through the one :class:`HashRing` its shard-map version built.  These
tests count ring constructions and ring hashes, so a caller that quietly
rebuilds a ring per lookup fails here, and check that the owner memo stays
bounded and never changes an answer.
"""

import bisect
import itertools
import random

import pytest

from repro.mesh import MeshCluster
from repro.mesh import hashring
from repro.mesh.hashring import OWNER_MEMO_CAP, HashRing, _ring_hash
from repro.mesh.shardmap import ShardMapRegistry, routing_key_of_topic
from repro.obs.instrument import Instrumentation
from repro.obs.probes import GaugeProbes
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wsn import NotificationConsumer
from repro.xmlkit import parse_xml

KEYS = [f"topic-{i}" for i in range(200)] + [""]  # test_hashring.py's keys


@pytest.fixture
def rings_built(monkeypatch):
    """The member lists of every ring constructed while the test runs."""
    built = []
    init = HashRing.__init__

    def counting(self, members=(), **kwargs):
        members = tuple(members)
        built.append(tuple(sorted(members)))
        init(self, members, **kwargs)

    monkeypatch.setattr(HashRing, "__init__", counting)
    return built


@pytest.fixture
def ring_hashes(monkeypatch):
    """How many ring positions were hashed while the test runs."""
    calls = [0]

    def counting(text):
        calls[0] += 1
        return _ring_hash(text)

    monkeypatch.setattr(hashring, "_ring_hash", counting)
    return calls


def test_every_lookup_path_shares_its_versions_one_ring(rings_built):
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    mesh = MeshCluster(network, 3, base_address="http://onering")
    probes = GaugeProbes(instrumentation)
    probes.watch_cluster(mesh)
    topics = [f"root-{n}/leaf" for n in range(12)] + [None]
    serial = itertools.count()

    def look_everywhere():
        for topic in topics:
            owner = mesh.owner_node_of_topic(topic).name
            assert mesh.registry.current.owner(routing_key_of_topic(topic)) == owner
            assert {node.owner_of_topic(topic) for node in mesh} == {owner}
        for n, topic in enumerate(topics[:4]):
            consumer = NotificationConsumer(network, f"http://onering-c{next(serial)}")
            mesh.subscribe_wsn(consumer.address, topic=topic)  # home=None
            mesh.publish(parse_xml(f"<n>{n}</n>"), topic=topic)  # via=None
        probes.sample()
        probes.sample()

    look_everywhere()
    assert rings_built == [("node-0", "node-1", "node-2")]
    mesh.join()
    look_everywhere()
    assert len(rings_built) == 2  # one more version, one more ring
    mesh.leave("node-1")
    look_everywhere()
    assert rings_built == [
        ("node-0", "node-1", "node-2"),
        ("node-0", "node-1", "node-2", "node-3"),
        ("node-0", "node-2", "node-3"),
    ]


def test_a_mesh_fanout_build_hashes_each_root_once(ring_hashes):
    """4 shards, 32 roots x 6 consumers, a quarter of them away from their
    topic's owner: one ring (4 x 64 positions) plus one hash per root."""
    network = SimulatedNetwork(VirtualClock())
    mesh = MeshCluster(network, 4, base_address="http://onering-fan")
    names = [node.name for node in mesh]
    rng = random.Random(2006)
    placements = [
        (root, slot < 1 + root % 2) for root in range(32) for slot in range(6)
    ]
    rng.shuffle(placements)
    for n, (root, away) in enumerate(placements):
        consumer = NotificationConsumer(network, f"http://onering-fan-c{n}")
        topic = f"r{root:02d}/load"
        home = mesh.owner_node_of_topic(topic).name
        if away:
            home = rng.choice([name for name in names if name != home])
        mesh.subscribe_wsn(consumer.address, topic=topic, home=home)
    for root in range(32):
        topic = f"r{root:02d}/load"
        mesh.publish(parse_xml("<e/>"), topic=topic)
        mesh.publish(parse_xml("<e/>"), topic=topic, via=names[root % 4])
        mesh.quiesce()
    assert ring_hashes[0] <= 300
    assert ring_hashes[0] >= 4 * hashring.DEFAULT_VNODES + 32


def _fresh_owner(members, vnodes=hashring.DEFAULT_VNODES):
    """An owner oracle that shares nothing with HashRing but the hash."""
    points = sorted(
        (_ring_hash(f"{m}#{r}"), m) for m in members for r in range(vnodes)
    )
    positions = [position for position, _ in points]

    def owner(key):
        index = bisect.bisect_right(positions, _ring_hash(key))
        return points[index % len(points)][1]

    return owner


def test_the_owner_memo_is_bounded_and_never_changes_an_answer():
    members = ["n0", "n1", "n2"]
    ring, fresh = HashRing(members), _fresh_owner(members)
    keys = [f"hostile-root-{i}" for i in range(10 * OWNER_MEMO_CAP)]
    for key in keys:
        assert ring.owner(key) == fresh(key)
        assert len(ring._memo) <= OWNER_MEMO_CAP
    # evicted keys and remembered keys answer the same the second time
    for key in keys[:50] + keys[-50:]:
        assert ring.owner(key) == fresh(key)
    assert len(ring._memo) <= OWNER_MEMO_CAP


@pytest.mark.parametrize("vnodes", [8, hashring.DEFAULT_VNODES])
def test_registry_movement_equals_freshly_built_rings(vnodes):
    registry = ShardMapRegistry(["n0", "n1", "n2"], vnodes=vnodes)
    for key in KEYS:  # warm version 1's memo before it is diffed
        registry.current.owner(key)

    def expected(before, after):
        old, new = _fresh_owner(before, vnodes), _fresh_owner(after, vnodes)
        return {k: (old(k), new(k)) for k in KEYS if old(k) != new(k)}

    registry.join("n3")
    joined = registry.moved_keys(KEYS)
    assert joined == expected(["n0", "n1", "n2"], ["n0", "n1", "n2", "n3"])
    assert joined and all(new == "n3" for _, new in joined.values())
    registry.leave("n1")
    left = registry.moved_keys(KEYS)
    assert left == expected(["n0", "n1", "n2", "n3"], ["n0", "n2", "n3"])
    assert left and all(old == "n1" for old, _ in left.values())
    assert registry.moved_keys(KEYS, since=1) == expected(
        ["n0", "n1", "n2"], ["n0", "n2", "n3"]
    )
