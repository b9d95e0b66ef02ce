"""One mesh member: a WS-Messenger broker with a ring view and federation.

A :class:`MeshNode` composes, at one base address:

- the mediation broker itself (``<address>``) — the front door its local
  publishers and consumers talk to, exactly as in the single-node system;
- the federation **exchange** (``<address>/exchange``) — the WSN producer
  peers link to for the traffic this node owns;
- the federation **ingest** (``<address>/fed-ingest``) — where those links
  deliver the traffic this node's consumers need from other owners.

The node inserts itself into the broker via the ``publish_router`` hook:
every publish, however it entered (in-process, front-door Notify, a
bridge), is classified by its topic's routing key.  Owned keys fan out
locally *and* onto the exchange; foreign keys are forwarded — one wrapped
WSN 1.3 Notify over the simulated HTTP transport, WSA-addressed to the
owner's front door, lineage header attached — and local fan-out is
skipped, so every message is processed by exactly one owner.

Federation demand is *read*, never kept: every subscription manager's topic
index counts the roots its subscriptions pin
(``TopicSubscriptionIndex.root_refs``), and on every Subscribe or removal
the node folds those counts into its link set, so a plain Subscribe at any
front door transparently becomes a cross-shard subscription when its roots
are owned elsewhere.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional

from repro.delivery.outcome import attempt_directly
from repro.delivery.policy import DeliveryPolicy
from repro.delivery.task import DeliveryItem
from repro.messenger import mediation
from repro.messenger.broker import WsMessenger
from repro.mesh.federation import LINK_VERSION, FederationLinkManager, aggregate_coverage
from repro.mesh.shardmap import ShardMapRegistry, routing_key_of_topic
from repro.soap.envelope import SoapVersion
from repro.transport.endpoint import SoapClient
from repro.transport.network import SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wse.versions import WseVersion
from repro.wsn.producer import NotificationProducer
from repro.wsn.versions import WsnVersion
from repro.xmlkit.element import XElem


class MeshNode:
    """One shard: broker + ring view + exchange + federation links."""

    def __init__(
        self,
        network: SimulatedNetwork,
        name: str,
        registry: ShardMapRegistry,
        *,
        address: str,
        peer_address_of: Callable[[str], str],
        wse_versions: Optional[list[WseVersion]] = None,
        wsn_versions: Optional[list[WsnVersion]] = None,
        delivery: Optional[DeliveryPolicy] = None,
        delivery_seed: int = 0,
        store=None,
    ) -> None:
        self.network = network
        self.name = name
        self.registry = registry
        self.address = address
        self._peer_address_of = peer_address_of
        self.map = registry.fetch()
        wsn_versions = (
            list(wsn_versions) if wsn_versions is not None else [WsnVersion.V1_3]
        )
        if LINK_VERSION not in wsn_versions:
            # the federation wire format is WSN 1.3; the owner's front door
            # must accept it even when local consumers use other versions
            wsn_versions.append(LINK_VERSION)
        self.broker = WsMessenger(
            network,
            self.address,
            wse_versions=wse_versions,
            wsn_versions=wsn_versions,
            delivery=delivery,
            delivery_seed=delivery_seed,
            store=store,
        )
        self.exchange = NotificationProducer(
            network,
            f"{self.address}/exchange",
            version=LINK_VERSION,
            manager_address=f"{self.address}/exchange/subscriptions",
            default_lifetime=None,  # links live until the mesh drops them
            delivery_manager=self.broker.delivery_manager,
        )
        self.links = FederationLinkManager(
            network,
            self.address,
            self._accept_federated,
            exchange_address_of=lambda peer: f"{self._peer_address_of(peer)}/exchange",
        )
        self._forward_client = SoapClient(
            network,
            wsa_version=LINK_VERSION.wsa_version,
            soap_version=SoapVersion.V11,
        )
        self._ingesting = False  # reentrancy guard: federated republish
        self.broker.publish_router = self._route_publish
        for _, _, subscriptions in self.broker.subscription_managers():
            subscriptions.listeners.append(self._on_subscription_event)

    # --- publishing ----------------------------------------------------------

    def publish(self, payload: XElem, *, topic: Optional[str] = None) -> None:
        """Publish at this node; routes to the owning shard transparently."""
        self.broker.publish(payload, topic=topic)

    def owner_of_topic(self, topic: Optional[str]) -> str:
        return self.map.owner(routing_key_of_topic(topic))

    def _route_publish(self, payload: XElem, topic: Optional[str]) -> bool:
        if self._ingesting:
            # federated ingress: the owner already processed this message;
            # deliver locally only, never re-route or re-export
            return False
        owner = self.owner_of_topic(topic)
        instr = self.network.instrumentation
        if owner == self.name:
            instr.count("mesh.owned_publishes", node=self.name)
            if self.exchange.subscriptions.records:
                self.exchange.publish(payload, topic=topic)
            return False
        self._forward(payload, topic, owner)
        return True

    def _forward(self, payload: XElem, topic: Optional[str], owner: str) -> None:
        """One federation hop: wrapped Notify to the owner's front door.

        Runs inside the broker's publish span, so the owner's dispatch
        re-parents under the same lineage (the hop is visible in the trace)
        and the hop itself is a ledgered obligation: ``enqueued`` here,
        ``delivered`` when the owner's 202 comes back, ``failed`` if the
        wire loses it — mesh conservation covers the forward path too.  The
        publisher sees the failure either way.
        """
        instr = self.network.instrumentation
        target = EndpointReference(self._peer_address_of(owner))
        body = mediation.wsn_notify_from_neutral([DeliveryItem(payload, topic)], LINK_VERSION)
        lineage = instr.trace_context()
        exc = attempt_directly(
            instr,
            lambda: self._forward_client.call(
                target, LINK_VERSION.action("Notify"), [body], expect_reply=False
            ),
            target.address,
            "mesh",
            [lineage] if lineage is not None else [],
        )
        if exc is not None:
            raise exc
        instr.count("mesh.forwarded_publishes", origin=self.name, owner=owner)

    def _accept_federated(self, item: DeliveryItem) -> None:
        self._ingesting = True
        try:
            self.broker.publish(item.payload, topic=item.topic)
        finally:
            self._ingesting = False

    # --- federation demand ----------------------------------------------------

    def _on_subscription_event(self, event: str, subscription, detail: dict) -> None:
        if event in ("created", "removed"):  # the index already has it
            self.sync_links()

    def root_refs(self) -> Counter:
        """Topic root -> local subscriptions pinning it, summed over every
        manager's index; under ``None`` those that need every root."""
        refs: Counter = Counter()
        for _, _, subscriptions in self.broker.subscription_managers():
            refs.update(subscriptions.index.root_refs)
        return refs

    def sync_links(self) -> None:
        """Re-derive the link set from the local roots and the current ring."""
        refs, ring = self.root_refs(), self.map.ring
        needs = {self.name: None if None in refs else set(refs)}
        self.links.sync(
            aggregate_coverage(needs, ring.owner, self_name=self.name, peers=ring.members())
        )

    # --- durable handoff --------------------------------------------------------

    def log_segment(self, start: int = 0) -> list[dict]:
        """Serialized event-log records from ``start`` on (requires a
        store-backed broker).  A departing shard hands this segment to its
        successor, which replays it (``repro.store.recovery``) instead of
        requiring the old owner to drain in-flight work first."""
        if self.broker.store is None:
            return []
        return self.broker.store.log.segment(start)

    # --- membership -----------------------------------------------------------

    def refresh_map(self) -> bool:
        """Fetch the registry's current shard map; re-point links if it moved."""
        snapshot = self.registry.fetch()
        if snapshot.version == self.map.version:
            return False
        self.map = snapshot
        self.sync_links()
        return True

    # --- delivery pump / lifecycle --------------------------------------------

    def run_deliveries_until_idle(self, *, deadline: Optional[float] = None) -> int:
        return self.broker.run_deliveries_until_idle(deadline=deadline)

    def pending_deliveries(self) -> int:
        manager = self.broker.delivery_manager
        return manager.pending() if manager is not None else 0

    def close(self) -> None:
        """Leave the mesh: drop links, then unmount every endpoint."""
        self.links.close()
        self.exchange.close()
        self.broker.close()
