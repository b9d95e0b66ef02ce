"""The WS-Eventing subscriber: the client role that manages subscriptions.

08/2004 separates this role from the event sink (Table 1 row 2); the sink
only receives, while the subscriber knows source/manager locations and sends
Subscribe/Renew/GetStatus/Unsubscribe.  The verbs are the shared ones of
:class:`repro.subscriptions.SubscriberClient`; what is WS-Eventing's own is
Subscribe's vocabulary and where 01/2004 carries the subscription id.
"""

from __future__ import annotations

from typing import Optional

from repro.subscriptions import SubscriberClient, SubscriptionHandle
from repro.transport.network import PUBLIC_ZONE, SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wse import messages
from repro.wse.model import DeliveryMode
from repro.wse.source import operations
from repro.wse.versions import WseVersion
from repro.xmlkit.element import XElem


#: per version: Table 2 as the source serves it, and the client's verbs for it
_DIALECTS = {version: (operations(version), messages.verbs(version)) for version in WseVersion}


class WseSubscriber(SubscriberClient):
    """Client-side API over the WS-Eventing message exchanges."""

    def __init__(
        self,
        network: SimulatedNetwork,
        *,
        version: WseVersion = WseVersion.V2004_08,
        zone: str = PUBLIC_ZONE,
    ) -> None:
        super().__init__(network, *_DIALECTS[version], wsa_version=version.wsa_version, zone=zone)
        self.version = version

    def subscribe(
        self,
        source: EndpointReference,
        *,
        notify_to: Optional[EndpointReference] = None,
        mode: DeliveryMode = DeliveryMode.PUSH,
        end_to: Optional[EndpointReference] = None,
        expires: Optional[str] = None,
        filter: Optional[str] = None,
        filter_dialect: Optional[str] = None,
        filter_namespaces: Optional[dict[str, str]] = None,
        qos=None,
    ) -> SubscriptionHandle:
        response = self._call(
            "subscribe",
            source,
            mode=mode,
            notify_to=notify_to,
            end_to=end_to,
            expires_text=expires,
            filter_expression=filter,
            filter_dialect=filter_dialect,
            filter_namespaces=filter_namespaces,
            qos=qos,
        )
        # 01/2004: the source is the manager, so its address makes the handle
        return messages.parse_subscribe_response(response, self.version, source.address)

    def _address(self, handle: SubscriptionHandle, body: XElem) -> EndpointReference:
        # 08/2004: the id travels in the manager EPR; 01/2004: in the body, to
        # the source's bare address (which is what its handle's manager is)
        messages.attach_subscription_id(self.version, body, handle.sub_id)
        return handle.manager
