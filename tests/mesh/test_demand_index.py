"""Federation demand read off the subscription index: a differential.

A node keeps no needs of its own: every subscription manager's topic index
counts the roots its subscriptions pin, and the node folds those counts into
its links.  The oracle is the derivation the node used to keep — one root set
per live subscription, ``routing_keys_of_expression(topic_expression_of(
filter))``, folded by ``aggregate_coverage`` — recomputed from scratch after
every subscribe, unsubscribe, join and leave on a four-shard cluster.
"""

from repro.filters.topics import topic_expression_of
from repro.mesh import MeshCluster, aggregate_coverage, routing_keys_of_expression
from repro.mesh.shardmap import TOPICLESS_KEY
from repro.transport import SimulatedNetwork, VirtualClock
from repro.xmlkit.names import Namespaces

FULL = Namespaces.DIALECT_TOPIC_FULL


def fresh_needs(node) -> dict:
    return {
        f"{family}:{tag}:{key}": routing_keys_of_expression(topic_expression_of(subscription.filter))
        for family, tag, manager in node.broker.subscription_managers()
        for key, subscription in manager.records.items()
    }


def check(mesh) -> None:
    keys = {TOPICLESS_KEY}
    for node in mesh:
        needs = fresh_needs(node)
        ring = node.map.ring
        want = aggregate_coverage(needs, ring.owner, self_name=node.name, peers=ring.members())
        assert node.links.links() == want, node.name
        keys.update(root for roots in needs.values() for root in roots or ())
    assert mesh.tracked_keys() == keys


def test_link_coverage_is_what_a_fresh_fold_of_every_subscription_gives():
    network = SimulatedNetwork(VirtualClock())
    mesh = MeshCluster(network, 4, base_address="http://demand-index")
    check(mesh)
    records = []
    for n, (topic, dialect) in enumerate(
        [
            ("jobs/status", None),
            ("billing//.", FULL),
            ("grid/a|alerts/b", FULL),
            ("jobs/done", None),
            ("alerts", None),
            ("audit/x", None),
        ]
    ):
        for home in range(4):
            records.append(
                mesh.subscribe_wsn(
                    f"http://demand-consumer-{n}-{home}",
                    topic=topic,
                    dialect=dialect or Namespaces.DIALECT_TOPIC_CONCRETE,
                    home=home,
                )
            )
            check(mesh)
    wildcard = mesh.subscribe_wsn("http://demand-any", topic="*/status", dialect=FULL, home=1)
    check(mesh)  # one root wildcard: broadcast from that home
    wse = mesh.subscribe_wse("http://demand-wse-sink", home=2)
    check(mesh)
    mesh.unsubscribe(wildcard)
    check(mesh)  # back to root links
    mesh.unsubscribe(wse)
    check(mesh)
    for record in records[::3]:
        mesh.unsubscribe(record)
        check(mesh)
    mesh.join()
    check(mesh)
    mesh.leave(1)
    check(mesh)
    mesh.join()
    check(mesh)
    for record in list(mesh.subscriptions.values()):
        mesh.unsubscribe(record)
        check(mesh)
    assert all(node.links.links() == {} for node in mesh)
