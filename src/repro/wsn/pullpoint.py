"""WS-Notification 1.3 PullPoints.

Table 1's "Define PullPoint interface" row is Yes only for WSN 1.3.  The
design differs from WS-Eventing's pull mode in precisely the way section V.3
describes: a pull point must be **created before subscribing** and is then
"treated as a regular push event consumer from a publisher's perspective" —
the subscription's ConsumerReference simply points at the pull point.  There
is no way to request pull delivery inside a Subscribe message.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.delivery.limits import parse_drain_limit
from repro.render import reply_text
from repro.soap.envelope import SoapEnvelope, SoapVersion
from repro.soap.fault import FaultCode, SoapFault
from repro.transport.endpoint import SoapClient, SoapEndpoint
from repro.transport.network import PUBLIC_ZONE, SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders
from repro.wsn import messages
from repro.wsn.versions import WsnVersion
from repro.xmlkit.element import XElem, text_element


class PullPoint:
    """One pull point: a consumer endpoint with a message queue."""

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        version: WsnVersion,
        *,
        capacity: int = 1000,
    ) -> None:
        self.network = network
        self.version = version
        self.capacity = capacity
        self.queue: list[XElem] = []  # stored NotificationMessage elements
        self.destroyed = False
        self.endpoint = SoapEndpoint(network, address)
        self.endpoint.on_action(version.action("Notify"), self._handle_notify)
        self.endpoint.on_action(version.action("GetMessages"), self._handle_get_messages)
        self.endpoint.on_action(
            version.action("DestroyPullPoint"), self._handle_destroy
        )

    @property
    def address(self) -> str:
        return self.endpoint.address

    def epr(self) -> EndpointReference:
        return EndpointReference(self.address)

    # --- handlers ---------------------------------------------------------------

    def _handle_notify(self, envelope: SoapEnvelope, headers: MessageHeaders):
        body = envelope.body_element()
        if body.name == self.version.qname("Notify"):
            incoming = body.find_all(self.version.qname("NotificationMessage"))
        else:
            # raw payload: wrap so GetMessages output is uniform
            message = XElem(self.version.qname("Message"), children=[body])
            incoming = [XElem(self.version.qname("NotificationMessage"), children=[message])]
        room = max(self.capacity - len(self.queue), 0)
        accepted = incoming[:room]
        if len(accepted) < len(incoming):
            # a full queue silently eats the overflow (the Notify was already
            # 202-accepted); the drop must at least be observable
            self.network.instrumentation.count(
                "obs.swallowed_errors_total",
                len(incoming) - len(accepted),
                site="wsn.pullpoint.capacity_overflow",
                kind="QueueOverflow",
            )
        self.queue.extend(accepted)  # as parsed: the tree is the pull point's
        return None

    def _handle_get_messages(self, envelope: SoapEnvelope, headers: MessageHeaders):
        if self.destroyed:
            raise SoapFault(
                FaultCode.SENDER,
                "pull point destroyed",
                subcode=self.version.qname("UnableToGetMessagesFault"),
            )
        body = envelope.body_element()
        count = parse_drain_limit(
            body,
            self.version.qname("MaximumNumber"),
            backlog=len(self.queue),
            subcode=self.version.qname("UnableToGetMessagesFault"),
        )
        batch = self.queue[:count]
        del self.queue[:count]
        response = XElem(self.version.qname("GetMessagesResponse"))
        for item in batch:
            response.append(item)
        return self._reply(headers, self.version.action("GetMessagesResponse"), response)

    def _handle_destroy(self, envelope: SoapEnvelope, headers: MessageHeaders):
        self.destroyed = True
        self.endpoint.close()
        response = XElem(self.version.qname("DestroyPullPointResponse"))
        return self._reply(
            headers, self.version.action("DestroyPullPointResponse"), response
        )

    def _reply(self, request_headers: MessageHeaders, action: str, body: XElem) -> str:
        return reply_text(request_headers, action, body, self.version.wsa_version)


class PullPointFactory:
    """The CreatePullPoint service: spawns pull points on demand."""

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        *,
        version: WsnVersion = WsnVersion.V1_3,
    ) -> None:
        if not version.defines_pull_point_interface:
            raise SoapFault(
                FaultCode.SENDER,
                f"WS-BaseNotification {version.name} defines no PullPoint interface "
                "(it arrived in 1.3)",
            )
        self.network = network
        self.version = version
        self._counter = itertools.count(1)
        self.pull_points: dict[str, PullPoint] = {}
        self.endpoint = SoapEndpoint(network, address)
        self.endpoint.on_action(version.action("CreatePullPoint"), self._handle_create)

    @property
    def address(self) -> str:
        return self.endpoint.address

    def epr(self) -> EndpointReference:
        return EndpointReference(self.address)

    def _handle_create(self, envelope: SoapEnvelope, headers: MessageHeaders):
        address = f"{self.address}/pp-{next(self._counter)}"
        pull_point = PullPoint(self.network, address, self.version)
        self.pull_points[address] = pull_point
        response = XElem(self.version.qname("CreatePullPointResponse"))
        response.append(
            pull_point.epr().to_element(
                self.version.wsa_version, self.version.qname("PullPoint")
            )
        )
        return reply_text(
            headers,
            self.version.action("CreatePullPointResponse"),
            response,
            self.version.wsa_version,
        )


class PullPointClient:
    """Client API for creating and draining pull points (works from behind a
    firewall zone, since every exchange is client-initiated)."""

    def __init__(
        self,
        network: SimulatedNetwork,
        *,
        version: WsnVersion = WsnVersion.V1_3,
        zone: str = PUBLIC_ZONE,
    ) -> None:
        self.version = version
        self._client = SoapClient(
            network, zone=zone, wsa_version=version.wsa_version, soap_version=SoapVersion.V11
        )

    def create(self, factory: EndpointReference) -> EndpointReference:
        body = XElem(self.version.qname("CreatePullPoint"))
        reply = self._client.request(
            factory, self.version.action("CreatePullPoint"), body, "CreatePullPoint"
        )
        pp_elem = reply.require(self.version.qname("PullPoint"))
        return EndpointReference.from_element(pp_elem, self.version.wsa_version)

    def get_messages(
        self, pull_point: EndpointReference, maximum: Optional[int] = None
    ) -> list[messages.NotificationMessage]:
        body = XElem(self.version.qname("GetMessages"))
        if maximum is not None:
            body.append(text_element(self.version.qname("MaximumNumber"), str(maximum)))
        reply = self._client.request(
            pull_point, self.version.action("GetMessages"), body, "GetMessages"
        )
        return messages.parse_notify(reply, self.version, "GetMessagesResponse")

    def destroy(self, pull_point: EndpointReference) -> None:
        body = XElem(self.version.qname("DestroyPullPoint"))
        self._client.call(pull_point, self.version.action("DestroyPullPoint"), [body])
