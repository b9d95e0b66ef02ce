"""The WS-Eventing event sink: the endpoint notifications are pushed to.

Per the paper's architecture comparison, the sink is deliberately dumb: it
"only needs to handle received messages" — subscription creation lives in the
separate subscriber role (:mod:`repro.wse.subscriber`).
"""

from __future__ import annotations

from typing import Optional

from repro.soap.envelope import SoapEnvelope
from repro.subscriptions import ConsumerEndpoint, ReceivedNotification
from repro.transport.network import PUBLIC_ZONE, SimulatedNetwork
from repro.wsa.headers import MessageHeaders
from repro.wse import messages
from repro.wse.messages import SubscriptionEnd
from repro.wse.versions import WseVersion


class EventSink(ConsumerEndpoint):
    """Receives raw and wrapped notifications plus SubscriptionEnd notices."""

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        *,
        version: WseVersion = WseVersion.V2004_08,
        zone: str = PUBLIC_ZONE,
    ) -> None:
        super().__init__(network, address, zone)
        self.version = version
        self.subscription_ends: list[SubscriptionEnd] = []
        self.endpoint.on_action(
            version.action("SubscriptionEnd"), self._handle_subscription_end
        )
        self.endpoint.on_action(version.action("Notifications"), self._handle_wrapped)
        self.endpoint.on_any(self._handle_notification)

    # --- handlers ------------------------------------------------------------

    def _handle_notification(
        self, envelope: SoapEnvelope, headers: MessageHeaders
    ) -> Optional[SoapEnvelope]:
        self.received.append(
            ReceivedNotification(envelope.body_element(), action=headers.action)
        )
        return None

    def _handle_wrapped(
        self, envelope: SoapEnvelope, headers: MessageHeaders
    ) -> Optional[SoapEnvelope]:
        payloads = messages.parse_wrapped_notification(envelope.body_element(), self.version)
        self.received.extend(ReceivedNotification(p, wrapped=True, action=headers.action) for p in payloads)
        return None

    def _handle_subscription_end(
        self, envelope: SoapEnvelope, headers: MessageHeaders
    ) -> Optional[SoapEnvelope]:
        self.subscription_ends.append(
            messages.parse_subscription_end(envelope.body_element(), self.version)
        )
        return None
