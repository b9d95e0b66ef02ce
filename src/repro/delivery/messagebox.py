"""Broker-side message boxes: store-and-forward for firewalled consumers.

The paper names pull delivery's raison d'être: "delivering messages to
consumers behind firewalls".  When a push attempt raises
:class:`~repro.transport.network.FirewallBlocked`, the delivery manager
parks the message *content* here instead of retrying a hopeless route.  A
message box is mounted at a public broker address and serves its backlog
through **client-initiated** exchanges only, so the firewalled consumer can
drain on its own schedule from inside its zone:

* WSN 1.3 ``GetMessages`` — the box answers exactly like a
  :class:`~repro.wsn.pullpoint.PullPoint`, so the stock
  :class:`~repro.wsn.pullpoint.PullPointClient` drains it unchanged;
* WSE 08/2004 ``Pull`` — the minimal WS-Eventing-side equivalent (same body
  shape the 08/2004 pull delivery mode uses at a subscription manager).

Those two dialects are the box's, whatever the parked sink speaks.  Messages
are stored spec-neutrally (the ``DeliveryItem`` s the fan-out settled) and
re-rendered in the dialect of whichever drain arrives — one more instance of
the broker's "notifications follow the consumer's spec" rule.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.delivery.limits import parse_drain_limit
from repro.delivery.task import DeliveryItem
from repro.render import reply_text
from repro.soap.envelope import SoapEnvelope, SoapVersion
from repro.transport.endpoint import SoapClient, SoapEndpoint
from repro.transport.network import PUBLIC_ZONE, SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders
from repro.wse import messages as wse_messages
from repro.wse.versions import WseVersion
from repro.wsn.versions import WsnVersion
from repro.xmlkit.element import XElem

#: the drain dialects every box answers in
WSN = WsnVersion.V1_3
WSE = WseVersion.V2004_08


class MessageBox:
    """Parked messages for one firewalled sink, drained by pull."""

    def __init__(
        self, network: SimulatedNetwork, address: str, sink: str, *, capacity: int = 10_000
    ) -> None:
        self.network = network
        self.sink = sink
        self.capacity = capacity
        self.queue: list[DeliveryItem] = []
        #: total parked here over the box's lifetime (draining keeps this)
        self.total_parked = 0
        #: messages dropped because the box was full
        self.overflowed = 0
        #: the owning delivery manager's close (``DeliveryManager.drained``):
        #: called with (box, batch, family of the draining dialect)
        self.on_drained: Optional[
            Callable[["MessageBox", list[DeliveryItem], str], None]
        ] = None
        self.endpoint = SoapEndpoint(network, address)
        self.endpoint.on_action(WSN.action("GetMessages"), self._handle_get_messages)
        self.endpoint.on_action(WSE.action("Pull"), self._handle_pull)

    @property
    def address(self) -> str:
        return self.endpoint.address

    def epr(self) -> EndpointReference:
        return EndpointReference(self.address)

    def park(self, item: DeliveryItem) -> bool:
        """Store one message; returns False (and counts) on overflow."""
        if len(self.queue) >= self.capacity:
            self.overflowed += 1
            return False
        self.queue.append(item)
        self.total_parked += 1
        return True

    def __len__(self) -> int:
        return len(self.queue)

    # --- drain handlers (both are client-initiated: firewall-safe) ---------

    def _take(self, body: XElem, limit_name, family: str, subcode=None) -> list[DeliveryItem]:
        """The next batch, out of the box: handing it to the puller is what
        closes its obligations, so the manager that parked it is told."""
        count = parse_drain_limit(
            body, limit_name, backlog=len(self.queue), subcode=subcode
        )
        batch = self.queue[:count]
        del self.queue[:count]
        if batch and self.on_drained is not None:
            self.on_drained(self, batch, family)
        return batch

    def _handle_get_messages(self, envelope: SoapEnvelope, headers: MessageHeaders):
        # imported here, not at module top: mediation lives in the messenger
        # package, whose __init__ pulls in the broker — which imports us
        from repro.messenger.mediation import wsn_message_elements

        batch = self._take(
            envelope.body_element(),
            WSN.qname("MaximumNumber"),
            "wsn",
            subcode=WSN.qname("UnableToGetMessagesFault"),
        )
        response = XElem(WSN.qname("GetMessagesResponse"))
        response.extend(wsn_message_elements(batch, WSN))
        return reply_text(
            headers, WSN.action("GetMessagesResponse"), response, WSN.wsa_version
        )

    def _handle_pull(self, envelope: SoapEnvelope, headers: MessageHeaders):
        batch = self._take(envelope.body_element(), WSE.qname("MaxMessages"), "wse")
        response = wse_messages.build_pull_response(WSE, [item.payload for item in batch])
        return reply_text(headers, WSE.action("PullResponse"), response, WSE.wsa_version)

    def close(self) -> None:
        self.endpoint.close()


class MessageBoxRegistry:
    """Mints and tracks message boxes, one per firewalled sink."""

    def __init__(
        self, network: SimulatedNetwork, base_address: str, *, capacity: int = 10_000
    ) -> None:
        self.network = network
        self.base_address = base_address
        self.capacity = capacity
        self._boxes: dict[str, MessageBox] = {}
        self._counter = 0
        #: the owning delivery manager's close, copied onto each box as it
        #: is minted (None for a registry nobody delivers through)
        self.on_drained: Optional[
            Callable[[MessageBox, list[DeliveryItem], str], None]
        ] = None

    def box_for(self, sink: str) -> MessageBox:
        """The sink's box, created (and publicly mounted) on first use."""
        box = self._boxes.get(sink)
        if box is None:
            self._counter += 1
            box = MessageBox(
                self.network,
                f"{self.base_address}/box-{self._counter}",
                sink,
                capacity=self.capacity,
            )
            box.on_drained = self.on_drained
            self._boxes[sink] = box
        return box

    def get(self, sink: str) -> Optional[MessageBox]:
        return self._boxes.get(sink)

    def boxes(self) -> list[MessageBox]:
        return list(self._boxes.values())

    def total_parked(self) -> int:
        return sum(len(box) for box in self._boxes.values())

    def close(self) -> None:
        for box in self._boxes.values():
            box.close()


def drain_message_box_wse(
    network: SimulatedNetwork,
    box: EndpointReference,
    *,
    zone: str = PUBLIC_ZONE,
    max_messages: int = 0,
) -> list[XElem]:
    """The minimal WSE-side drain: a client-initiated ``Pull`` against a
    message box, usable from inside a firewalled zone."""
    client = SoapClient(
        network, zone=zone, wsa_version=WSE.wsa_version, soap_version=SoapVersion.V11
    )
    reply = client.request(
        box, WSE.action("Pull"), wse_messages.build_pull(WSE, max_messages), "Pull"
    )
    return wse_messages.parse_pull_response(reply, WSE)
