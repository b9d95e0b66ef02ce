"""The WS-Eventing event source (and its subscription manager).

In WS-Eventing the event source is both the notification producer and the
publisher (the paper's Fig. 1: Subscribe arrives at the source, notifications
leave from it).  In 08/2004 the *subscription manager* — the endpoint that
handles Renew/GetStatus/Unsubscribe — is a separate entity; in 01/2004 those
operations land on the event source itself.  Both layouts are the version's
operation table here.  Renew, GetStatus, Unsubscribe and Pull, and every
send, are the frame's rows (:class:`repro.subscriptions.SubscriptionService`);
what is WS-Eventing's own is Subscribe, where a request carries the
subscription id (``_subscription_for``: the body's ``wse:Id`` in 01/2004,
the echoed ``wse:Identifier`` in 08/2004), how a push and a wrapped batch
are written (``Sending`` rows) and which removals a SubscriptionEnd
announces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.delivery.policy import BatchingPolicy
from repro.render import Entry
from repro.soap.envelope import SoapEnvelope
from repro.soap.fault import FaultCode, SoapFault
from repro.subscriptions import (
    Grant,
    Operation,
    OperationTable,
    Sending,
    Subscription,
    SubscriptionService,
)
from repro.transport.network import SimulatedNetwork
from repro.wsa.headers import MessageHeaders
from repro.wse import messages
from repro.wse.model import DeliveryMode, SubscriptionEndCode
from repro.wse.versions import WseVersion
from repro.xmlkit.element import XElem
from repro.xmlkit.names import QName

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delivery.manager import DeliveryManager

#: default action URI stamped on raw (unwrapped) notification messages
DEFAULT_NOTIFY_ACTION = "http://repro.invalid/wse/Notify"

#: removal reason -> the status a SubscriptionEnd carries; Unsubscribe and
#: lease expiry are silent in WS-Eventing (Table 2, row "SubscriptionEnd")
_END_CODES = {
    "delivery failure": SubscriptionEndCode.DELIVERY_FAILURE,
    "source shutting down": SubscriptionEndCode.SOURCE_SHUTTING_DOWN,
}


def operations(version: WseVersion) -> OperationTable:
    """Table 2 as a ``version`` event source serves it — the one place the
    version profile decides which operations exist, and on which port."""
    # 01/2004: Renew / Unsubscribe land on the event source itself
    manager = "manager" if version.separate_subscription_manager else "source"
    rows = [("Subscribe", "source", "_handle_subscribe"), ("Renew", manager, "_handle_renew")]
    if version.has_get_status:
        rows.append(("GetStatus", manager, "_handle_get_status"))
    rows.append(("Unsubscribe", manager, "_handle_unsubscribe"))
    if version.supports_pull_delivery:
        rows.append(("Pull", manager, "_handle_pull"))
    rows.append(("SubscriptionEnd", "sink", None))
    return OperationTable(
        f"WsEventing{version.name}",
        version.namespace,
        {"source": "EventSource", "manager": "SubscriptionManager", "sink": "EventSink"},
        tuple(
            Operation(name, port, version.action(name), f"wse:{name}", handler)
            for name, port, handler in rows
        ),
    )


class EventSource(SubscriptionService):
    """A WS-Eventing event source bound to the simulated network: the
    WS-Eventing rows over the shared subscription manager and fan-out."""

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        *,
        version: WseVersion = WseVersion.V2004_08,
        manager_address: Optional[str] = None,
        default_lifetime: Optional[float] = 3600.0,
        max_lifetime: Optional[float] = None,
        producer_properties: Optional[dict[str, str]] = None,
        topic_header: Optional["QName"] = None,
        delivery_manager: Optional["DeliveryManager"] = None,
        batching: Optional[BatchingPolicy] = None,
    ) -> None:
        super().__init__(
            network,
            address,
            operations(version),
            manager_address,
            family="wse",
            version_tag=version.name.lower(),
            role="source",
            wsa_version=version.wsa_version,
            faults={
                ("invalid_content", None): version.qname("FilteringRequestedUnavailable"),
                ("invalid_expiry", None): version.qname("InvalidExpirationTime"),
                ("unsupported_qos", None): version.qname("UnsupportedQoS"),
                ("unknown_subscription", None): version.qname("InvalidMessage"),
                ("invalid_limit", None): version.qname("InvalidMessage"),
            },
            producer_properties=producer_properties,
            delivery_manager=delivery_manager,
            batching=batching,
            default_lifetime=default_lifetime,
            max_lifetime=max_lifetime,
        )
        self.version = version
        #: how this family's notifications leave.  ``topic_header`` is the
        #: mediation hook (section V.4 category 6): WSE has no body slot for a
        #: topic, so when set, published topics ride as this SOAP header
        self._push_sending = Sending(
            DEFAULT_NOTIFY_ACTION, Entry("push", topic_header=topic_header)
        )
        self._wrapped_sending = Sending(
            version.action("Notifications"), messages.wrapped_entry(version), "wrapped_notify"
        )
        #: SubscriptionEnd messages we emitted (observability for tests/benches)
        self.ended_subscriptions: list[tuple[str, SubscriptionEndCode]] = []

    # --- subscribe --------------------------------------------------------------

    def read_subscribe(self, envelope: SoapEnvelope) -> tuple[Grant, Optional[str]]:
        """Subscribe as the grant asked for and the expiry it requests, or a fault."""
        request, expires_text = messages.parse_subscribe(envelope.body_element(), self.version)
        # pull delivery is the Pull operation: a version without the row has no such mode
        if request.mode is DeliveryMode.PULL and not any(
            row.name == "Pull" for row in self.operations.rows
        ):
            raise SoapFault(
                FaultCode.SENDER,
                f"delivery mode {request.mode.value} unavailable in {self.version.name}",
                subcode=self.version.qname("DeliveryModeRequestedUnavailable"),
            )
        if request.mode is DeliveryMode.WRAPPED and not self.version.supports_wrapped_delivery:
            raise SoapFault(
                FaultCode.SENDER,
                "wrapped delivery unavailable in WS-Eventing 01/2004",
                subcode=self.version.qname("DeliveryModeRequestedUnavailable"),
            )
        if request.mode is not DeliveryMode.PULL and request.consumer is None:
            raise SoapFault(FaultCode.SENDER, "push/wrapped delivery requires NotifyTo")
        return request, expires_text

    def _handle_subscribe(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self.grant(*self.read_subscribe(envelope))
        response_body = messages.build_subscribe_response(
            self.version,
            sub_id=subscription.key,
            manager_address=self.manager_address,
            expires_text=self.subscriptions.lease_text(subscription.termination_time),
        )
        return self._reply(headers, self.version.action("SubscribeResponse"), response_body)

    # --- manager operations ---------------------------------------------------------

    def _subscription_for(self, envelope: SoapEnvelope, headers: MessageHeaders) -> Subscription:
        return self._lookup(
            messages.subscription_id_from_request(
                self.version, envelope.body_element(), headers.echoed
            )
        )

    # --- publication ------------------------------------------------------------------

    def publish(self, payload: XElem, *, topic: Optional[str] = None) -> int:
        """Publish one event; returns the number of subscriptions it reached.

        WS-Eventing has no topic model — ``topic`` only feeds filters that
        look at it (the mediation layer maps WSN topics through here).
        """
        return self._fanout.publish(self._route, payload, topic, self._push)

    # --- termination -----------------------------------------------------------------

    def shutdown(self) -> None:
        """Terminate every subscription with SourceShuttingDown, then close."""
        for subscription in self.subscriptions.live_resources():
            self.subscriptions.destroy(
                subscription.key, "source shutting down", "source shutting down"
            )
        self.close()

    def _announce_end(self, subscription: Subscription, reason: str, detail: str) -> None:
        """The end-notice table: which removals WS-Eventing announces."""
        code = _END_CODES.get(reason)
        if code is None:
            return
        self.ended_subscriptions.append((subscription.key, code))
        if subscription.end_to is None:
            # per the paper: no EndTo in the request => no SubscriptionEnd message
            return
        self._send_end_notice(
            subscription.end_to,
            self.version.action("SubscriptionEnd"),
            messages.build_subscription_end(
                self.version,
                manager_address=self.manager_address,
                sub_id=subscription.key,
                code=code,
                reason=detail,
            ),
            "subscription_end",
        )
