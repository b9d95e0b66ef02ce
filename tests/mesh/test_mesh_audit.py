"""The mesh-wide audit invariants: per-sink conservation, federation
continuity, and hop classification.

Unit level: each new invariant firing on a hand-built ledger whose *global*
books balance — exactly the violations the single-broker audit cannot see.
Integration level: a real cross-shard flow audits green with its hops
classified as federation traffic.
"""

import pytest

from repro.mesh import MeshCluster
from repro.obs.audit import audit
from repro.obs.instrument import Instrumentation
from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
from repro.wsa.headers import reset_message_counter
from repro.wsn import NotificationConsumer
from repro.xmlkit import parse_xml

FED = frozenset({"http://mesh/owner"})


def make_instrumentation():
    network = SimulatedNetwork(VirtualClock())
    return Instrumentation.attach(network)


def invariants(result):
    return {finding.invariant for finding in result.findings}


class TestPerSinkConservation:
    def test_duplicate_delivery_caught_despite_balanced_global_books(self):
        instrumentation = make_instrumentation()
        ledger = instrumentation.ledger
        ledger.record("lin-1", "published")
        ledger.record("lin-1", "enqueued", sink="http://a")
        ledger.record("lin-1", "enqueued", sink="http://b")
        ledger.record("lin-1", "delivered", sink="http://a")
        ledger.record("lin-1", "delivered", sink="http://a")  # dup; b starved

        result = audit(instrumentation, federation_sinks=FED)
        # globally 2 opened / 2 closed: the old invariant is blind to it
        assert "conservation" not in invariants(result)
        assert "per-sink-conservation" in invariants(result)

    def test_balanced_sinks_pass(self):
        instrumentation = make_instrumentation()
        ledger = instrumentation.ledger
        ledger.record("lin-1", "published")
        ledger.record("lin-1", "enqueued", sink="http://a")
        ledger.record("lin-1", "delivered", sink="http://a")
        result = audit(instrumentation, federation_sinks=FED)
        assert "per-sink-conservation" not in invariants(result)

    def test_mesh_invariants_off_without_sinks(self):
        instrumentation = make_instrumentation()
        ledger = instrumentation.ledger
        ledger.record("lin-1", "published")
        ledger.record("lin-1", "enqueued", sink="http://a")
        ledger.record("lin-1", "delivered", sink="http://a")
        ledger.record("lin-1", "delivered", sink="http://a")
        ledger.record("lin-1", "enqueued", sink="http://b")
        result = audit(instrumentation)  # single-broker audit: unchanged
        assert not result.mesh_audited
        assert "per-sink-conservation" not in invariants(result)
        assert "federation" not in result.to_dict()


class TestFederationContinuity:
    def test_hop_that_never_republishes_is_flagged(self):
        instrumentation = make_instrumentation()
        ledger = instrumentation.ledger
        ledger.record("lin-1", "published")
        ledger.record("lin-1", "enqueued", sink="http://mesh/owner")
        ledger.record("lin-1", "delivered", sink="http://mesh/owner")

        result = audit(instrumentation, federation_sinks=FED)
        assert "federation-continuity" in invariants(result)
        assert result.federation_delivered == 1
        assert result.consumer_delivered == 0

    def test_mediated_hop_passes(self):
        instrumentation = make_instrumentation()
        ledger = instrumentation.ledger
        ledger.record("lin-1", "published")
        ledger.record("lin-1", "enqueued", sink="http://mesh/owner")
        ledger.record("lin-1", "delivered", sink="http://mesh/owner")
        ledger.record("lin-1", "mediated", count=1)
        ledger.record("lin-1", "enqueued", sink="http://consumer")
        ledger.record("lin-1", "delivered", sink="http://consumer")

        result = audit(instrumentation, federation_sinks=FED)
        assert "federation-continuity" not in invariants(result)
        assert result.federation_delivered == 1
        assert result.consumer_delivered == 1
        assert result.mesh_audited
        assert result.to_dict()["federation"] == {
            "federation_delivered": 1,
            "consumer_delivered": 1,
        }


class TestMeshFlowAudit:
    def test_cross_shard_flow_audits_green_with_hops_classified(self):
        reset_message_counter()
        network = SimulatedNetwork(VirtualClock())
        instrumentation = Instrumentation.attach(network)
        mesh = MeshCluster(network, 2, base_address="http://audmesh")
        owner = mesh.owner_node_of_topic("jobs/status")
        home = next(node for node in mesh if node.name != owner.name)
        consumer = NotificationConsumer(network, "http://aud-consumer")
        mesh.subscribe_wsn(consumer.address, topic="jobs/status", home=home.name)

        mesh.publish(parse_xml("<j/>"), topic="jobs/status", via=home.name)
        mesh.quiesce()

        result = audit(
            instrumentation,
            scenario="cross-shard",
            federation_sinks=mesh.federation_sinks(),
        )
        assert result.passed, [finding.render() for finding in result.findings]
        # forward hop (home -> owner front door) + link hop (owner exchange
        # -> home ingest), then exactly one consumer-facing delivery
        assert result.federation_delivered == 2
        assert result.consumer_delivered == 1
        assert len(consumer.received) == 1


class TestForwardFailure:
    """A forward is one direct attempt: what the wire does to it is a
    delivery outcome, anything else is not."""

    def forwarding_mesh(self):
        reset_message_counter()
        network = SimulatedNetwork(VirtualClock())
        instrumentation = Instrumentation.attach(network)
        mesh = MeshCluster(network, 2, base_address="http://fwdmesh")
        owner = mesh.owner_node_of_topic("jobs/status")
        origin = next(node for node in mesh if node.name != owner.name)
        return network, instrumentation, mesh, owner, origin

    def forward_events(self, instrumentation, owner):
        return [
            event.state
            for events in instrumentation.ledger.events.values()
            for event in events
            if event.detail.get("sink") == owner.address
        ]

    def test_forward_lost_on_the_wire_closes_failed(self):
        network, instrumentation, mesh, owner, origin = self.forwarding_mesh()

        def lose_the_hop(address, request):
            if address == owner.address:
                raise MessageLost(address)

        network.observers.append(lose_the_hop)
        with pytest.raises(MessageLost):  # the publisher still sees it
            mesh.publish(parse_xml("<j/>"), topic="jobs/status", via=origin.name)
        assert self.forward_events(instrumentation, owner) == ["enqueued", "attempted", "failed"]
        result = audit(instrumentation, federation_sinks=mesh.federation_sinks())
        assert result.passed, [finding.render() for finding in result.findings]
        assert (result.opened, result.failed, result.pending) == (1, 1, 0)

    def test_a_bug_in_the_hop_is_not_booked_as_a_delivery_failure(self):
        network, instrumentation, mesh, owner, origin = self.forwarding_mesh()

        def broken(address, request):
            if address == owner.address:
                raise KeyError("not a network error")

        network.observers.append(broken)
        with pytest.raises(KeyError):
            mesh.publish(parse_xml("<j/>"), topic="jobs/status", via=origin.name)
        # the obligation stays open for the audit to find; it is not ``failed``
        assert self.forward_events(instrumentation, owner) == ["enqueued", "attempted"]
        assert not instrumentation.metrics.counter_values("mesh.forwarded_publishes")
