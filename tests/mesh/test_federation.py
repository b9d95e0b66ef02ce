"""Federation links: coverage aggregation and link lifecycle.

Links are derived state — a pure function of the node's local subscription
needs and the current ring — so the tests assert the derived link set after
each subscribe/unsubscribe, plus the teardown path against a peer that
vanished without a goodbye.
"""

from repro.mesh import MeshCluster, aggregate_coverage, link_topic_expression
from repro.obs.instrument import Instrumentation
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import EventSink
from repro.wsn import NotificationConsumer
from repro.xmlkit import parse_xml


def counter_total(instrumentation, site):
    values = instrumentation.metrics.counter_values("obs.swallowed_errors_total")
    return sum(v for k, v in values.items() if f"site={site}" in k)


class TestCoverage:
    def test_expression_unions_sorted_roots(self):
        assert link_topic_expression(None) is None
        assert link_topic_expression(frozenset({"b", "a"})) == "a//.|b//."

    def test_roots_group_by_owner_skipping_self(self):
        owner_of = {"jobs": "n0", "billing": "n1", "grid": "n2"}.__getitem__
        coverage = aggregate_coverage(
            {"s1": {"jobs", "billing"}, "s2": {"grid"}},
            owner_of,
            self_name="n0",
            peers=["n0", "n1", "n2"],
        )
        assert coverage == {"n1": frozenset({"billing"}), "n2": frozenset({"grid"})}

    def test_one_wildcard_need_forces_broadcast_to_all_peers(self):
        coverage = aggregate_coverage(
            {"s1": {"jobs"}, "s2": None},
            lambda root: "n0",
            self_name="n0",
            peers=["n0", "n1", "n2"],
        )
        assert coverage == {"n1": None, "n2": None}

    def test_no_needs_no_links(self):
        assert aggregate_coverage({}, lambda r: "n0", self_name="n0", peers=["n0"]) == {}


class TestLinkLifecycle:
    def make_mesh(self, shards=3):
        network = SimulatedNetwork(VirtualClock())
        return network, MeshCluster(network, shards, base_address="http://fedtest")

    def test_cross_shard_subscription_creates_one_root_link(self):
        network, mesh = self.make_mesh()
        owner = mesh.owner_node_of_topic("jobs/status")
        home = next(node for node in mesh if node.name != owner.name)
        consumer = NotificationConsumer(network, "http://fed-consumer")
        record = mesh.subscribe_wsn(
            consumer.address, topic="jobs/status", home=home.name
        )
        assert home.links.links() == {owner.name: frozenset({"jobs"})}
        assert owner.exchange.subscriptions.records

        mesh.unsubscribe(record)
        assert home.links.links() == {}

    def test_colocated_subscription_needs_no_link(self):
        network, mesh = self.make_mesh()
        owner = mesh.owner_node_of_topic("jobs/status")
        consumer = NotificationConsumer(network, "http://fed-local")
        mesh.subscribe_wsn(consumer.address, topic="jobs/status", home=owner.name)
        assert owner.links.links() == {}

    def test_wse_subscription_broadcast_links_to_every_peer(self):
        network, mesh = self.make_mesh()
        sink = EventSink(network, "http://fed-sink")
        record = mesh.subscribe_wse(sink.address, home=0)
        home = mesh.node(record.home)
        peers = [node.name for node in mesh if node.name != home.name]
        assert home.links.links() == {peer: None for peer in peers}

    def test_broadcast_subsumes_root_links(self):
        network, mesh = self.make_mesh()
        home = mesh.node(0)
        owner = mesh.owner_node_of_topic("jobs/x")
        if owner.name == home.name:  # make the topic link cross-shard
            home = mesh.node(1)
        consumer = NotificationConsumer(network, "http://fed-both")
        mesh.subscribe_wsn(consumer.address, topic="jobs/x", home=home.name)
        mesh.subscribe_wse("http://fed-both-sink", home=home.name)
        # one link per peer, all broadcast — never a second overlapping link
        assert all(coverage is None for coverage in home.links.links().values())

    def test_dropping_link_to_a_dead_peer_counts_the_swallow(self):
        network = SimulatedNetwork(VirtualClock())
        instrumentation = Instrumentation.attach(network)
        mesh = MeshCluster(network, 2, base_address="http://fedswallow")
        owner = mesh.owner_node_of_topic("jobs/x")
        home = next(node for node in mesh if node.name != owner.name)
        consumer = NotificationConsumer(network, "http://fed-dead-consumer")
        mesh.subscribe_wsn(consumer.address, topic="jobs/x", home=home.name)
        assert list(home.links.links()) == [owner.name]

        owner.exchange.close()  # the peer vanishes without a goodbye
        home.links.sync({})  # ...the teardown still completes
        assert home.links.links() == {}
        assert counter_total(instrumentation, "mesh.federation.unsubscribe") == 1


class TestTheEntryShardHearsItsPublishBack:
    def test_one_federated_ingress_delivers_the_entry_shards_consumer_once(self):
        """A publish entering at a non-owner shard that homes a subscriber of
        its root goes to the owner and comes back over the owner's link: the
        entry shard ingests it exactly once, and only from that link."""
        network = SimulatedNetwork(VirtualClock())
        instrumentation = Instrumentation.attach(network)
        mesh = MeshCluster(network, 3, base_address="http://fedback")
        owner = mesh.owner_node_of_topic("jobs/status")
        entry = next(node for node in mesh if node is not owner)
        consumer = NotificationConsumer(network, "http://fedback-consumer")
        mesh.subscribe_wsn(consumer.address, topic="jobs/status", home=entry.name)
        mesh.publish(parse_xml('<e:V xmlns:e="urn:fedback"/>'), topic="jobs/status", via=entry.name)
        mesh.quiesce()
        ingress = instrumentation.metrics.counter_values("mesh.federated_ingress")
        assert ingress == {f"mesh.federated_ingress{{home={entry.address}}}": 1}
        assert len(consumer.received) == 1
