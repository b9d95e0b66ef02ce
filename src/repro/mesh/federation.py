"""Broker-to-broker federation links: the mesh's inter-shard protocol.

The paper's mediation machinery already turns any notification into a
spec-neutral form and back; federation reuses it as the wire protocol
between shards.  Each node mounts two extra endpoints next to its broker:

- an **exchange** (``<node>/exchange``) — a genuine WS-Notification 1.3
  producer that re-publishes every notification the node processes *as
  owner*.  Peers subscribe to it with ordinary WSN Subscribe messages, so
  a federation link is a first-class subscription: filtered, renewable,
  observable, delivered over real HTTP-framed SOAP with the lineage header
  riding each hop;
- a **federation ingest** (``<node>/fed-ingest``) — the consumer endpoint
  those links deliver to.  Incoming Notify traffic is unwrapped through
  :func:`repro.messenger.mediation.neutral_from_wsn_notify` and re-published
  into the node's *local* broker only.

Keeping link traffic on the exchange — never the broker's own subscription
store — is what makes the fan-out exactly-once: the owner's broker serves
local consumers, the owner's exchange serves remote shards, and a federated
ingress republish touches only the local broker, so no message can transit
two links or revisit its origin.

A link's filter is the union of the roots its home shard needs from that
owner (``jobs//.|billing//.`` in the Full dialect), or no filter at all
when some home subscription is root-wildcarded and needs every topic the
owner processes.  One link per (home, owner) pair, always — two overlapping
links would be a duplicate factory.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.delivery.task import DeliveryItem
from repro.messenger import mediation
from repro.soap.envelope import SoapEnvelope
from repro.soap.fault import SoapFault
from repro.subscriptions import SubscriptionHandle
from repro.transport.endpoint import SoapEndpoint
from repro.transport.network import NetworkError, SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders
from repro.wsn.subscriber import WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit.names import Namespaces

#: the one WSN version federation links speak (duration expiry, optional topic)
LINK_VERSION = WsnVersion.V1_3

#: coverage of one link: a frozenset of topic roots, or None for all traffic
LinkCoverage = Optional[frozenset[str]]


def link_topic_expression(coverage: LinkCoverage) -> Optional[str]:
    """The Full-dialect expression subscribing a link with ``coverage``.

    ``root//.`` matches the root topic and its whole subtree; ``None``
    (broadcast) subscribes with no filter, which also admits topicless
    publications — exactly the traffic a root-wildcard subscription needs.
    """
    if coverage is None:
        return None
    return "|".join(f"{root}//." for root in sorted(coverage))


class FederationLink:
    """One live subscribe link from an owner's exchange back to a home."""

    def __init__(self, peer: str, coverage: LinkCoverage, handle: SubscriptionHandle) -> None:
        self.peer = peer
        self.coverage = coverage
        self.handle = handle


class FederationLinkManager:
    """The home side of federation: ingest endpoint + link lifecycle.

    ``sync`` drives links to a target coverage map; it is idempotent and
    cheap when nothing changed, so nodes call it on every subscription
    change and every shard-map refresh.
    """

    def __init__(
        self,
        network: SimulatedNetwork,
        home_address: str,
        deliver: Callable[[DeliveryItem], None],
        *,
        exchange_address_of: Callable[[str], str],
    ) -> None:
        self.network = network
        self.home_address = home_address
        self._deliver = deliver
        self._exchange_address_of = exchange_address_of
        self.ingest_address = f"{home_address}/fed-ingest"
        self.ingest = SoapEndpoint(network, self.ingest_address)
        self.ingest.on_action(LINK_VERSION.action("Notify"), self._on_notify)
        self.ingest.on_any(self._on_notify)
        self._subscriber = WsnSubscriber(network, version=LINK_VERSION)
        self._links: dict[str, FederationLink] = {}

    # --- the receiving side --------------------------------------------------

    def _on_notify(self, envelope: SoapEnvelope, headers: MessageHeaders):
        instr = self.network.instrumentation
        body = envelope.body_element()
        items = mediation.neutral_from_wsn_notify(
            body, LINK_VERSION, instrumentation=instr
        )
        instr.count("mesh.federated_ingress", len(items), home=self.home_address)
        for item in items:
            self._deliver(item)
        return None

    # --- link lifecycle -------------------------------------------------------

    def links(self) -> dict[str, LinkCoverage]:
        """Current coverage per peer (deterministic snapshot for tests)."""
        return {peer: link.coverage for peer, link in sorted(self._links.items())}

    def sync(self, needed: dict[str, LinkCoverage]) -> None:
        """Drive the live links to exactly ``needed`` (peer -> coverage)."""
        for peer in sorted(set(self._links) - set(needed)):
            self._drop(peer)
        for peer in sorted(needed):
            coverage = needed[peer]
            existing = self._links.get(peer)
            if existing is not None and existing.coverage == coverage:
                continue
            if existing is not None:
                self._drop(peer)
            self._establish(peer, coverage)

    def _establish(self, peer: str, coverage: LinkCoverage) -> None:
        expression = link_topic_expression(coverage)
        handle = self._subscriber.subscribe(
            EndpointReference(self._exchange_address_of(peer)),
            EndpointReference(self.ingest_address),
            topic=expression,
            topic_dialect=Namespaces.DIALECT_TOPIC_FULL,
        )
        self._links[peer] = FederationLink(peer, coverage, handle)
        self.network.instrumentation.count(
            "mesh.link_subscribes", home=self.home_address, peer=peer
        )

    def _drop(self, peer: str) -> None:
        link = self._links.pop(peer)
        try:
            self._subscriber.unsubscribe(link.handle)
        except (NetworkError, SoapFault) as exc:
            # the peer may already have left the mesh (its endpoints are
            # gone) or have expired the link itself; either way the link is
            # dead — count the swallow, do not strand the teardown
            self.network.instrumentation.count(
                "obs.swallowed_errors_total",
                site="mesh.federation.unsubscribe",
                kind=type(exc).__name__,
            )
        self.network.instrumentation.count(
            "mesh.link_unsubscribes", home=self.home_address, peer=peer
        )

    def close(self) -> None:
        """Tear down every link, then the ingest endpoint."""
        self.sync({})
        self.ingest.close()


def aggregate_coverage(
    needs: "dict[str, Optional[set[str]]]",
    owner_of: Callable[[str], str],
    *,
    self_name: str,
    peers: "list[str]",
) -> dict[str, LinkCoverage]:
    """Fold per-subscription needs into the per-peer link coverage map.

    ``needs`` maps a local subscription key to its root set (``None`` =
    root-wildcard).  Any wildcard need forces a broadcast link to *every*
    peer — and broadcast subsumes root links, so peers never hold two
    overlapping links from the same home.
    """
    if any(roots is None for roots in needs.values()):
        return {peer: None for peer in peers if peer != self_name}
    per_peer: dict[str, set[str]] = {}
    for roots in needs.values():
        for root in roots or ():
            owner = owner_of(root)
            if owner != self_name:
                per_peer.setdefault(owner, set()).add(root)
    return {peer: frozenset(roots) for peer, roots in per_peer.items()}
