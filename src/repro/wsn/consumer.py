"""The WS-Notification NotificationConsumer endpoint."""

from __future__ import annotations

from repro.soap.envelope import SoapEnvelope
from repro.subscriptions import ConsumerEndpoint, ReceivedNotification
from repro.transport.network import PUBLIC_ZONE, SimulatedNetwork
from repro.wsa.headers import MessageHeaders
from repro.wsn import messages
from repro.wsn.versions import WsnVersion
from repro.xmlkit.names import Namespaces, QName


class NotificationConsumer(ConsumerEndpoint):
    """Receives wrapped ``Notify`` messages, raw messages, and WSRF
    termination notifications."""

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        *,
        version: WsnVersion = WsnVersion.V1_3,
        zone: str = PUBLIC_ZONE,
    ) -> None:
        super().__init__(network, address, zone)
        self.version = version
        self.termination_notices: list[str] = []
        self.endpoint.on_action(
            messages.wsrf_lifetime_action("TerminationNotification"),
            self._handle_termination,
        )
        self.endpoint.on_any(self._handle_notify)

    # --- handlers -----------------------------------------------------------

    def _handle_notify(self, envelope: SoapEnvelope, headers: MessageHeaders):
        """Any action: a raw payload, or a Notify read whole (a fault records none)."""
        body = envelope.body_element()
        if body.name != self.version.qname("Notify"):
            self.received.append(ReceivedNotification(body))
            return None
        self.received.extend([
            ReceivedNotification(
                item.payload, item.topic, True, subscription_address=item.subscription_address
            )
            for item in messages.parse_notify(body, self.version)
        ])
        return None

    def _handle_termination(self, envelope: SoapEnvelope, headers: MessageHeaders):
        body = envelope.body_element()
        reason = body.find(QName(Namespaces.WSRF_RL, "TerminationReason"))
        self.termination_notices.append(
            reason.full_text().strip() if reason is not None else ""
        )
        return None
