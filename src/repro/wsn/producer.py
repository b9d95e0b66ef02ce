"""The WS-Notification NotificationProducer and its SubscriptionManager.

Subscriptions are genuine WS-Resources (:mod:`repro.wsrf`): their filter,
status and termination time are resource properties, their lifetime is
managed through WSRF in 1.0/1.2 (mandatorily) and 1.3 (optionally, alongside
the native Renew/Unsubscribe), and their demise triggers a WSRF
TerminationNotification to the consumer — which is how WSN <= 1.2 realizes
WS-Eventing's SubscriptionEnd (Table 2).

Renew, Unsubscribe, Pause / Resume, WSRF's Destroy, GetCurrentMessage and
every send are the frame's rows
(:class:`repro.subscriptions.SubscriptionService`); this family says where
the id rides (the ``SubscriptionId`` reference parameter / property), that a
Renew asks for and a lease reply grants a ``TerminationTime`` (with the
``CurrentTime``), how a Notify and a raw message are written (``Sending``
rows), that a resumed backlog leaves under the resume's lineage and that its
push row coalesces per sink.  Subscribe and the WSRF property and lifetime
rows are its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.delivery.policy import BatchingPolicy
from repro.filters.topics import TopicNamespace, TopicPath
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
from repro.render import TopiclessEntry
from repro.wsa.headers import MessageHeaders
from repro.wsn import messages
from repro.wsn.messages import PROP_STATUS
from repro.wsn.templates import NotifyEntry
from repro.wsn.versions import WsnVersion
from repro.wsrf.lifetime import UnableToSetTerminationTimeFault, set_termination_time
from repro.wsrf.properties import get_resource_property
from repro.wsrf.resource import WsResource
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import Namespaces, QName
from repro.util.xstime import format_datetime, parse_datetime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delivery.manager import DeliveryManager

# resource property names of a subscription resource (PROP_STATUS, which the
# client reads too, is stated beside its verb in repro.wsn.messages)
PROP_TERMINATION = QName(Namespaces.WSRF_RL, "TerminationTime")
PROP_CONSUMER = QName(Namespaces.WSNT_13, "ConsumerReference")
PROP_FILTER = QName(Namespaces.WSNT_13, "FilterDescription")
PROP_TOPIC_SET = QName(Namespaces.WSTOP_13, "TopicSet")


def operations(version: WsnVersion, wsrf: bool = True, brokered: bool = False) -> OperationTable:
    """Table 2 as a ``version`` producer serves it — the one place the
    version profile decides which operations exist.  ``wsrf`` mounts the WSRF
    port: mandatory <= 1.2, optional beside the native Renew / Unsubscribe in
    1.3; a subscription is a WS-Resource on the wire either way.  ``brokered``
    adds a broker's WS-BrokeredNotification rows, which only 1.3 has (the
    paper's Table 2 has no registration row: a plain producer serves none)."""

    def row(name, port, handler, prefix="wsnt", action=version.action) -> Operation:
        return Operation(name, port, action(name), f"{prefix}:{name}", handler)

    properties = ("wsrf-rp", messages.wsrf_action)
    lifetime = ("wsrf-rl", messages.wsrf_lifetime_action)
    wsrf = wsrf or version.requires_wsrf
    rows = [
        row("Subscribe", "source", "_handle_subscribe"),
        row("GetCurrentMessage", "source", "_handle_get_current_message"),
    ]
    if wsrf:
        # the producer itself is a WS-Resource: its TopicSet and producer
        # properties are readable via GetResourceProperty
        rows.append(row("GetResourceProperty", "source", "_handle_producer_property", *properties))
    if version.has_native_unsubscribe:
        rows.append(row("Renew", "manager", "_handle_renew"))
        rows.append(row("Unsubscribe", "manager", "_handle_unsubscribe"))
    rows.append(row("PauseSubscription", "manager", "_handle_pause"))
    rows.append(row("ResumeSubscription", "manager", "_handle_resume"))
    if wsrf:
        rows.append(row("GetResourceProperty", "manager", "_handle_get_property", *properties))
        rows.append(row("SetTerminationTime", "manager", "_handle_set_termination_time", *lifetime))
        rows.append(row("Destroy", "manager", "_handle_destroy", *lifetime))
    if brokered and version is WsnVersion.V1_3:
        # the registration reference is the source's address plus an id
        registration = ("wsntbr", messages.brokered_action)
        rows.append(row("RegisterPublisher", "source", "_handle_register_publisher", *registration))
        rows.append(row("DestroyRegistration", "source", "_handle_destroy_registration", *registration))
    rows.append(row("Notify", "sink", None))
    return OperationTable(
        f"WsBaseNotification{version.name}",
        version.namespace,
        {
            "source": "NotificationProducer",
            "manager": "SubscriptionManager",
            "sink": "NotificationConsumer",
        },
        tuple(rows),
    )


class NotificationProducer(SubscriptionService):
    """A WSN producer bound to the simulated network: the WS-Notification
    rows over the shared subscription manager and fan-out.

    The producer is distinct from the *publisher* (Fig. 2): publishers call
    :meth:`publish`; consumers never talk to publishers directly.
    """

    #: whether the table has the broker's registration rows (see :func:`operations`)
    brokered = False
    #: a resumed backlog leaves under the resume's lineage, and the push row
    #: coalesces per sink under a ``batching`` policy
    _restamp_resumed = True
    _coalesces = True

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        *,
        version: WsnVersion = WsnVersion.V1_3,
        manager_address: Optional[str] = None,
        topic_namespace: Optional[TopicNamespace] = None,
        default_lifetime: Optional[float] = 3600.0,
        producer_properties: Optional[dict[str, str]] = None,
        enable_wsrf: Optional[bool] = None,
        delivery_manager: Optional["DeliveryManager"] = None,
        batching: Optional[BatchingPolicy] = None,
    ) -> None:
        super().__init__(
            network,
            address,
            operations(version, enable_wsrf is None or enable_wsrf, self.brokered),
            manager_address,
            family="wsn",
            version_tag=version.name.lower(),
            role="producer",
            wsa_version=version.wsa_version,
            faults={
                ("invalid_topic", None): version.qname("InvalidTopicExpressionFault"),
                ("invalid_properties", None): version.qname(
                    "InvalidProducerPropertiesExpressionFault"
                ),
                ("invalid_content", None): version.qname("InvalidMessageContentExpressionFault"),
                ("invalid_expiry", "subscribe"): version.qname(
                    "UnacceptableInitialTerminationTimeFault"
                ),
                ("invalid_expiry", "renew"): version.qname("UnacceptableTerminationTimeFault"),
                ("unsupported_qos", None): version.qname("UnsupportedPolicyRequestFault"),
                ("unknown_subscription", None): QName(Namespaces.WSRF_BF, "ResourceUnknownFault"),
                ("no_current_message", None): version.qname("NoCurrentMessageOnTopicFault"),
            },
            topics=topic_namespace or TopicNamespace(),
            producer_properties=producer_properties,
            delivery_manager=delivery_manager,
            batching=batching,
            default_lifetime=default_lifetime,
            durations=version.supports_duration_expiry,
        )
        self.version = version
        self.requires_topic = version.requires_topic
        #: whether the WSRF port is mounted (see :func:`operations`); a
        #: subscription's property document is a view of the shared record
        #: (see _resource_view)
        self.wsrf_enabled = any(row.name == "Destroy" for row in self.operations.rows)
        #: how this family's notifications leave: a wrapped Notify, or each
        #: payload the body of its own message (raw)
        notify = version.action("Notify")
        self._push_sending = Sending(notify, NotifyEntry(version, address, self.manager_address))
        self._raw_sending = Sending(notify, TopiclessEntry("raw"))

    # --- subscribe -----------------------------------------------------------

    def read_subscribe(self, envelope: SoapEnvelope) -> tuple[Grant, Optional[str]]:
        """Subscribe as the grant asked for and the expiry it requests, or a fault."""
        request, termination_text = messages.parse_subscribe(envelope.body_element(), self.version)
        if self.version.requires_topic and request.topic_expression is None:
            raise SoapFault(
                FaultCode.SENDER,
                f"WS-BaseNotification {self.version.name} requires a TopicExpression",
                subcode=self.version.qname("TopicExpressionRequired"),
            )
        return request, termination_text

    def _handle_subscribe(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self.grant(*self.read_subscribe(envelope))
        termination = subscription.termination_time
        body = messages.build_subscribe_response(
            self.version,
            manager_address=self.manager_address,
            sub_id=subscription.key,
            current_time_text=format_datetime(self.clock.now()),
            termination_time_text=(
                format_datetime(termination) if termination is not None else None
            ),
        )
        return self._reply(headers, self.version.action("SubscribeResponse"), body)

    def _resource_view(self, subscription: Subscription) -> WsResource:
        """The subscription's resource-property document, rendered from the
        record when it is read (GetResourceProperty is Table 2's GetStatus)."""
        view = WsResource(subscription.key)
        view.set_text_property(PROP_STATUS, "Paused" if subscription.paused else "Active")
        termination = subscription.termination_time
        view.set_text_property(
            PROP_TERMINATION, format_datetime(termination) if termination is not None else ""
        )
        view.set_property(
            PROP_CONSUMER,
            subscription.consumer.to_element(self.version.wsa_version, PROP_CONSUMER),
        )
        view.set_text_property(PROP_FILTER, subscription.filter.describe())
        return view

    # --- manager operations ---------------------------------------------------------

    #: a Renew asks for, and a lease reply grants, a TerminationTime
    _renew_child = "TerminationTime"

    def _subscription_for(self, envelope: SoapEnvelope, headers: MessageHeaders) -> Subscription:
        return self._lookup(messages.subscription_id_from_headers(headers.echoed))

    def _lease(self, subscription: Subscription) -> dict[str, str]:
        termination = subscription.termination_time
        return {
            "TerminationTime": format_datetime(termination) if termination is not None else "",
            "CurrentTime": format_datetime(self.clock.now()),
        }

    def _handle_get_property(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(envelope, headers)
        name = messages.parse_get_resource_property(envelope.body_element())
        values = get_resource_property(self._resource_view(subscription), name)
        body = XElem(QName(Namespaces.WSRF_RP, "GetResourcePropertyResponse"))
        for value in values:
            body.append(value.copy())
        return self._reply(
            headers, messages.wsrf_action("GetResourcePropertyResponse"), body
        )

    def _handle_set_termination_time(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(envelope, headers)
        request = envelope.body_element()
        requested = request.find(QName(Namespaces.WSRF_RL, "RequestedTerminationTime"))
        text = requested.full_text().strip() if requested is not None else ""
        try:
            new_time = parse_datetime(text) if text else None
        except ValueError as exc:
            raise UnableToSetTerminationTimeFault(
                f"unacceptable RequestedTerminationTime {text!r}: {exc}"
            ) from exc
        set_termination_time(self.subscriptions, subscription, new_time)
        self.subscriptions.fire("renewed", subscription)
        body = XElem(QName(Namespaces.WSRF_RL, "SetTerminationTimeResponse"))
        body.append(
            text_element(
                QName(Namespaces.WSRF_RL, "NewTerminationTime"),
                format_datetime(new_time) if new_time is not None else "",
            )
        )
        return self._reply(
            headers, messages.wsrf_lifetime_action("SetTerminationTimeResponse"), body
        )

    def topic_set_document(self) -> XElem:
        """The producer's advertised topic space (WS-Topics TopicSet)."""
        document = XElem(PROP_TOPIC_SET)
        for path in self.topics.all_paths():
            document.append(
                text_element(QName(Namespaces.WSTOP_13, "Topic"), path)
            )
        return document

    def _handle_producer_property(self, envelope: SoapEnvelope, headers: MessageHeaders):
        name = messages.parse_get_resource_property(envelope.body_element())
        body = XElem(QName(Namespaces.WSRF_RP, "GetResourcePropertyResponse"))
        if name == PROP_TOPIC_SET:
            body.append(self.topic_set_document())
        elif name.local == "ProducerProperties":
            body.append(self._properties_document())
        else:
            from repro.wsrf.properties import InvalidResourcePropertyFault

            raise InvalidResourcePropertyFault(name)
        return self._reply(
            headers, messages.wsrf_action("GetResourcePropertyResponse"), body
        )

    # --- publication --------------------------------------------------------------------

    def publish(self, payload: XElem, *, topic: Optional[str] = None) -> int:
        """Publish one event on an (optional in 1.3) topic.

        Returns the number of subscriptions the event matched (including
        paused ones, whose copies are queued for resume).
        """
        if topic is None and self.version.requires_topic:
            raise SoapFault(
                FaultCode.SENDER,
                f"WS-BaseNotification {self.version.name} publications require a topic",
            )
        return self._fanout.publish(self._route, payload, topic, self._push, topic=topic or "")

    def note_publication(self, payload: XElem, topic: Optional[str]) -> Optional[TopicPath]:
        """The frame's (topic validation and the GetCurrentMessage cache),
        stated on this class because ``benchmarks/e2e``'s wrap table names it
        here."""
        return super().note_publication(payload, topic)

    # --- termination -----------------------------------------------------------------------

    def _announce_end(self, subscription: Subscription, reason: str, detail: str) -> None:
        """The end-notice table: every removal but an orderly Unsubscribe is
        a TerminationNotification — a WSRF resource-lifetime feature,
        mandatory <= 1.2 and available in 1.3 exactly when WSRF is mounted."""
        if reason == "unsubscribed" or not self.wsrf_enabled:
            return
        self._send_end_notice(
            subscription.consumer,
            messages.wsrf_lifetime_action("TerminationNotification"),
            messages.build_termination_notification(reason),
            "termination_notification",
        )

    def sweep(self) -> None:
        """Expire overdue subscriptions (fires termination notifications)."""
        self.subscriptions.sweep()
