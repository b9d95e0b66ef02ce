"""The mesh assembled: N nodes, one registry, rebalancing, audit hooks.

:class:`MeshCluster` is the harness the demo, the benchmarks and the tests
drive.  It owns the :class:`~repro.mesh.shardmap.ShardMapRegistry`, builds
the nodes on one simulated network, tracks every subscription it placed
(family, filter, home) so a departing node's subscriptions can be
re-registered, and implements the rebalance protocol:

1. **quiesce** — pump every node's delivery pipeline until no obligation is
   pending anywhere (an in-flight message never straddles a cutover);
2. publish the new shard map (``join``/``leave`` on the registry);
3. every surviving node refreshes its map: ring views flip atomically
   between publishes, federation links re-point to the new owners;
4. on leave only: the departed node's subscriptions are re-registered —
   each at the shard now owning its first pinned root (or the first member
   for broadcast filters) — then the node tears down (its own links drop,
   peers' links to it were already dropped in step 3);
5. the moved-key set (``registry.moved_keys``) is returned to the caller,
   which is how the rebalance tests assert the movement was bounded.

Steps happen between publishes on the virtual clock, so the cutover is a
serial point: conservation before + nothing in flight + conservation after
is exactly the mesh-wide invariant ``obs-audit`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

from repro.delivery.policy import DeliveryPolicy
from repro.mesh.hashring import DEFAULT_VNODES
from repro.mesh.node import MeshNode
from repro.mesh.shardmap import (
    ShardMapRegistry,
    TOPICLESS_KEY,
    routing_key_of_topic,
)
from repro.transport.network import SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wse.model import DeliveryMode
from repro.wse.subscriber import WseSubscriber
from repro.wse.versions import WseVersion
from repro.wsn.subscriber import WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit.element import XElem
from repro.xmlkit.names import Namespaces

#: drain passes :meth:`MeshCluster.quiesce` makes before it gives up
QUIESCE_ROUNDS = 100


@dataclass
class MeshSubscription:
    """One subscription the cluster placed, with enough to replay it."""

    sid: int
    family: str  # "wsn" | "wse"
    version: object
    home: str  # node name
    consumer: str  # consumer endpoint address
    topic: Optional[str] = None
    dialect: Optional[str] = None
    message_content: Optional[str] = None
    wse_filter: Optional[str] = None
    wse_filter_namespaces: Optional[dict[str, str]] = None
    handle: object = None


class MeshCluster:
    """N federated brokers over one registry on one simulated network."""

    def __init__(
        self,
        network: SimulatedNetwork,
        shards: int = 3,
        *,
        base_address: str = "http://mesh",
        vnodes: int = DEFAULT_VNODES,
        wse_versions: Optional[list[WseVersion]] = None,
        wsn_versions: Optional[list[WsnVersion]] = None,
        delivery: Optional[DeliveryPolicy] = None,
        delivery_seed: int = 0,
        store_factory: Optional[Callable[[str], object]] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("a mesh needs at least one shard")
        self.network = network
        self.base_address = base_address
        self._wse_versions = wse_versions
        self._wsn_versions = wsn_versions
        self._delivery = delivery
        self._delivery_seed = delivery_seed
        #: node name -> BrokerStore; gives each shard a durable event log
        self._store_factory = store_factory
        self._node_counter = shards
        self._sub_counter = 0
        names = [f"node-{i}" for i in range(shards)]
        self.registry = ShardMapRegistry(names, vnodes=vnodes)
        self.nodes: dict[str, MeshNode] = {}
        for name in names:
            self.nodes[name] = self._build_node(name)
        self.subscriptions: dict[int, MeshSubscription] = {}
        #: one subscriber client per (family, version), made when first needed
        self._subscribers: dict[tuple, object] = {}
        #: every address that ever served as a federation sink (forward
        #: targets = front doors, link targets = ingest endpoints) — the
        #: audit's key for telling federation hops from consumer deliveries
        self._federation_sinks: set[str] = set()
        self._note_federation_sinks()

    def _build_node(self, name: str) -> MeshNode:
        node = MeshNode(
            self.network,
            name,
            self.registry,
            address=f"{self.base_address}/{name}",
            peer_address_of=lambda peer: f"{self.base_address}/{peer}",
            wse_versions=self._wse_versions,
            wsn_versions=self._wsn_versions,
            delivery=self._delivery,
            delivery_seed=self._delivery_seed,
            store=self._store_factory(name) if self._store_factory else None,
        )
        return node

    def _note_federation_sinks(self) -> None:
        for node in self.nodes.values():
            self._federation_sinks.add(node.address)
            self._federation_sinks.add(node.links.ingest_address)

    # --- lookup ---------------------------------------------------------------

    def node(self, which: Union[int, str]) -> MeshNode:
        if isinstance(which, int):
            return self.nodes[self.registry.current.members[which]]
        return self.nodes[which]

    def __iter__(self) -> Iterator[MeshNode]:
        for name in self.registry.current.members:
            yield self.nodes[name]

    def owner_node_of_topic(self, topic: Optional[str]) -> MeshNode:
        owner = self.registry.current.owner(routing_key_of_topic(topic))
        return self.nodes[owner]

    def federation_sinks(self) -> frozenset[str]:
        return frozenset(self._federation_sinks)

    # --- traffic ---------------------------------------------------------------

    def publish(
        self,
        payload: XElem,
        *,
        topic: Optional[str] = None,
        via: Union[int, str, None] = None,
    ) -> None:
        """Publish at ``via`` (default: the topic's owner — the fast path)."""
        node = self.owner_node_of_topic(topic) if via is None else self.node(via)
        node.publish(payload, topic=topic)

    def quiesce(self) -> None:
        """Drain every delivery pipeline mesh-wide.

        One node's drain can enqueue work on another (a forwarded publish
        fans out at the owner), so drain in rounds until a full pass leaves
        nothing pending anywhere — at most ``QUIESCE_ROUNDS`` of them.
        """
        for _ in range(QUIESCE_ROUNDS):
            for node in self.nodes.values():
                node.run_deliveries_until_idle()
            if all(node.pending_deliveries() == 0 for node in self.nodes.values()):
                return
        raise RuntimeError("mesh failed to quiesce")

    # --- subscriptions ----------------------------------------------------------

    def subscribe_wsn(
        self,
        consumer_address: str,
        *,
        topic: Optional[str] = None,
        dialect: str = Namespaces.DIALECT_TOPIC_CONCRETE,
        message_content: Optional[str] = None,
        home: Union[int, str, None] = None,
        version: WsnVersion = WsnVersion.V1_3,
    ) -> MeshSubscription:
        """Subscribe a WSN consumer at its home shard's front door.

        The default home is the shard owning the topic's root, which makes
        the subscription local; any other home makes it cross-shard and the
        home node federates a link automatically.
        """
        node = self.owner_node_of_topic(topic) if home is None else self.node(home)
        self._sub_counter += 1
        record = MeshSubscription(
            sid=self._sub_counter,
            family="wsn",
            version=version,
            home=node.name,
            consumer=consumer_address,
            topic=topic,
            dialect=dialect,
            message_content=message_content,
        )
        self._place(record, node)
        self.subscriptions[record.sid] = record
        return record

    def subscribe_wse(
        self,
        notify_to: str,
        *,
        filter: Optional[str] = None,
        filter_namespaces: Optional[dict[str, str]] = None,
        home: Union[int, str] = 0,
        version: WseVersion = WseVersion.V2004_08,
    ) -> MeshSubscription:
        """Subscribe a WSE sink at a home shard.

        WSE filters are content (XPath) filters with no topic pinning, so
        the home federates broadcast links — it needs every shard's traffic.
        """
        node = self.node(home)
        self._sub_counter += 1
        record = MeshSubscription(
            sid=self._sub_counter,
            family="wse",
            version=version,
            home=node.name,
            consumer=notify_to,
            wse_filter=filter,
            wse_filter_namespaces=dict(filter_namespaces or {}),
        )
        self._place(record, node)
        self.subscriptions[record.sid] = record
        return record

    def _place(self, record: MeshSubscription, node: MeshNode) -> None:
        """Register ``record`` at ``node``'s front door (initial or re-home)."""
        subscriber = self._subscriber(record)
        if record.family == "wsn":
            record.handle = subscriber.subscribe(
                node.broker.epr(),
                EndpointReference(record.consumer),
                topic=record.topic,
                topic_dialect=record.dialect or Namespaces.DIALECT_TOPIC_CONCRETE,
                message_content=record.message_content,
            )
        else:
            record.handle = subscriber.subscribe(
                node.broker.epr(),
                notify_to=EndpointReference(record.consumer),
                mode=DeliveryMode.PUSH,
                filter=record.wse_filter,
                filter_namespaces=record.wse_filter_namespaces or None,
            )
        record.home = node.name

    def unsubscribe(self, record: MeshSubscription) -> None:
        self._retract(record)
        self.subscriptions.pop(record.sid, None)

    def _retract(self, record: MeshSubscription) -> None:
        self._subscriber(record).unsubscribe(record.handle)

    def _subscriber(self, record: MeshSubscription):
        key = (record.family, record.version)
        if key not in self._subscribers:
            client = WsnSubscriber if record.family == "wsn" else WseSubscriber
            self._subscribers[key] = client(self.network, version=record.version)
        return self._subscribers[key]

    # --- membership / rebalancing -------------------------------------------------

    def tracked_keys(self) -> set[str]:
        """Routing keys the cluster cares about (for moved-set reporting)."""
        keys = {TOPICLESS_KEY}
        for node in self.nodes.values():
            keys.update(root for root in node.root_refs() if root is not None)
        return keys

    def join(self, name: Optional[str] = None) -> tuple[MeshNode, dict[str, tuple[str, str]]]:
        """Add a shard: quiesce, publish the map, re-point, report movement."""
        if name is None:
            name = f"node-{self._node_counter}"
            self._node_counter += 1
        self.quiesce()
        keys = self.tracked_keys()
        self.registry.join(name)
        node = self._build_node(name)
        self.nodes[name] = node
        self._note_federation_sinks()
        for existing in self.nodes.values():
            existing.refresh_map()
        moved = self.registry.moved_keys(keys)
        self._record_rebalance("join", name, moved)
        return node, moved

    def leave(self, which: Union[int, str]) -> dict[str, tuple[str, str]]:
        """Remove a shard: quiesce, re-own its keys, re-home its subscriptions."""
        departing = self.node(which)
        if len(self.nodes) == 1:
            raise ValueError("cannot remove the last shard")
        self.quiesce()
        keys = self.tracked_keys()
        orphaned = [
            record
            for record in self.subscriptions.values()
            if record.home == departing.name
        ]
        self.registry.leave(departing.name)
        del self.nodes[departing.name]
        for survivor in self.nodes.values():
            survivor.refresh_map()
        # re-register each orphan on the shard now owning its traffic; the
        # old registration dies with the node, so this is a move, not a copy
        for record in orphaned:
            self._retract_from(departing, record)
            self._place(record, self._rehome_target(record))
        departing.close()
        moved = self.registry.moved_keys(keys)
        self._record_rebalance("leave", departing.name, moved)
        return moved

    def _record_rebalance(
        self, change: str, name: str, moved: dict[str, tuple[str, str]]
    ) -> None:
        """Membership changes are rare and load-bearing: count the change
        and the keys it moved."""
        instr = self.network.instrumentation
        if not instr.enabled:
            return
        instr.count("mesh.rebalances", change=change, node=name)
        if moved:
            instr.count("mesh.moved_keys", len(moved), change=change)

    def _retract_from(self, departing: MeshNode, record: MeshSubscription) -> None:
        # unsubscribing at the departing node keeps its ledger clean (no
        # obligations can arrive anyway: it is already out of the ring)
        self._retract(record)

    def _rehome_target(self, record: MeshSubscription) -> MeshNode:
        # simple/concrete expressions name one concrete path, so the new
        # owner of its root is the subscription's natural home; full-dialect
        # and content filters go to the first member (their links fan in)
        if (
            record.family == "wsn"
            and record.topic is not None
            and record.dialect
            in (Namespaces.DIALECT_TOPIC_SIMPLE, Namespaces.DIALECT_TOPIC_CONCRETE)
        ):
            return self.owner_node_of_topic(record.topic)
        return self.node(0)

    # --- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        for node in self.nodes.values():
            node.close()
        self.nodes.clear()
