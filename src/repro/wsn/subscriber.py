"""The WS-Notification subscriber: the client role managing subscriptions.

The method set mirrors the paper's Table 2 exactly — the shared verbs are
:class:`repro.subscriptions.SubscriberClient`'s, and which of them a version
has is its operation table's to say:

===================  ==========================================================
WS-Eventing          WS-BaseNotification equivalent (this class)
===================  ==========================================================
Subscribe            :meth:`WsnSubscriber.subscribe`
Renew                ``renew`` (1.3) / :meth:`set_termination_time` (WSRF)
Unsubscribe          ``unsubscribe`` (1.3) / :meth:`destroy` (WSRF)
GetStatus            not defined — ``get_status`` reads it through WSRF's
                     :meth:`get_resource_property`
SubscriptionEnd      not defined — WSRF TerminationNotification (consumer side)
(not available)      ``pause`` / ``resume``
(not available)      ``get_current_message``
===================  ==========================================================

A 1.3 client also speaks WS-BrokeredNotification to a broker:
:meth:`WsnSubscriber.register_publisher` returns the registration's
reference, which :meth:`WsnSubscriber.destroy_registration` takes.
"""

from __future__ import annotations

from typing import Optional

from repro.qos.properties import QosProfile
from repro.subscriptions import SubscriberClient, SubscriptionHandle
from repro.transport.network import PUBLIC_ZONE, SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wsn import messages
from repro.wsn.messages import WsnFilterSpec
from repro.wsn.producer import operations
from repro.wsn.versions import WsnVersion
from repro.xmlkit.element import XElem
from repro.xmlkit.names import Namespaces, QName


#: per version: Table 2 as a broker serves it (WSRF port mounted, and in 1.3
#: the registration rows), and the client's verbs for it
_DIALECTS = {
    version: (operations(version, brokered=True), messages.verbs(version)) for version in WsnVersion
}


class WsnSubscriber(SubscriberClient):
    """Client-side API over the WS-BaseNotification message exchanges."""

    def __init__(
        self,
        network: SimulatedNetwork,
        *,
        version: WsnVersion = WsnVersion.V1_3,
        zone: str = PUBLIC_ZONE,
    ) -> None:
        super().__init__(network, *_DIALECTS[version], wsa_version=version.wsa_version, zone=zone)
        self.version = version

    def subscribe(
        self,
        producer: EndpointReference,
        consumer: EndpointReference,
        *,
        topic: Optional[str] = None,
        topic_dialect: str = Namespaces.DIALECT_TOPIC_CONCRETE,
        message_content: Optional[str] = None,
        producer_properties: Optional[str] = None,
        namespaces: Optional[dict[str, str]] = None,
        initial_termination: Optional[str] = None,
        use_raw: bool = False,
        qos: Optional[QosProfile] = None,
    ) -> SubscriptionHandle:
        spec = WsnFilterSpec(
            topic_expression=topic,
            topic_dialect=topic_dialect,
            message_content=message_content,
            producer_properties=producer_properties,
            namespaces=dict(namespaces or {}),
        )
        return self._call(
            "subscribe",
            producer,
            consumer=consumer,
            filter=spec,
            initial_termination=initial_termination,
            use_raw=use_raw,
            qos=qos,
        )

    # --- WSRF management (mandatory <= 1.2, optional 1.3) ---------------------------------

    def get_resource_property(self, handle: SubscriptionHandle, name: QName) -> list[XElem]:
        return self._call("get_resource_property", handle, name)

    def set_termination_time(self, handle: SubscriptionHandle, termination: Optional[str]) -> str:
        return self._call("set_termination_time", handle, termination)

    def destroy(self, handle: SubscriptionHandle) -> None:
        """WSRF Destroy — the <= 1.2 way to unsubscribe."""
        self._call("destroy", handle)

    # --- WS-BrokeredNotification (1.3) -------------------------------------------------

    def register_publisher(
        self,
        broker: EndpointReference,
        *,
        publisher: Optional[EndpointReference] = None,
        topic: Optional[str] = None,
        demand: bool = False,
    ) -> EndpointReference:
        """Register ``publisher`` at ``broker``; the registration's reference."""
        return self._call("register_publisher", broker, publisher, topic, demand)

    def destroy_registration(self, registration: EndpointReference) -> None:
        self._call("destroy_registration", registration)
