"""A working single-endpoint WS-EventNotification prototype.

One subscription operation carries the union of both parents' power:

- WS-Eventing's ``Delivery`` extension point — push, pull or wrapped chosen
  *in the Subscribe message* (no pre-created pull point needed);
- WS-Notification's three-part ``Filter`` (TopicExpression +
  ProducerProperties + MessageContent, conjoined);
- duration *or* absolute expirations, renewable;
- GetStatus (from WSE) *and* Pause/Resume + GetCurrentMessage (from WSN);
- SubscriptionEnd notices (WSE) with a *defined* wrapped message format
  (which WSE 08/2004 left unspecified — Table 1's "Define Wrapped message
  format" gap, closed here).

Renew, GetStatus, Unsubscribe, Pause / Resume, Pull, GetCurrentMessage and
every send are the frame's rows
(:class:`repro.subscriptions.SubscriptionService`), here as in both parents;
the draft's own are Subscribe, the id's place (the ``Identifier`` reference
parameter), GetStatus's extra ``Status`` child, how a raw and a wrapped
notification are written (``Sending`` rows: one wrapped format for push and
wrapped delivery alike) and how a pulled item is (as a wrapped one).
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.convergence.profile import WSEN_NS, ConvergedProfile
from repro.delivery.policy import BatchingPolicy
from repro.delivery.task import DeliveryItem
from repro.filters.topics import TopicNamespace
from repro.render import Entry
from repro.soap.envelope import SoapEnvelope
from repro.soap.fault import FaultCode, SoapFault
from repro.subscriptions import (
    ConsumerEndpoint,
    DeliveryMode,
    Grant,
    Operation,
    OperationTable,
    ReceivedNotification,
    Sending,
    SubscriberClient,
    Subscription,
    SubscriptionHandle,
    SubscriptionService,
    Verb,
    child_text,
    message_payload,
    read_current_message,
    text_body,
)
from repro.transport.network import PUBLIC_ZONE, SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders
from repro.wsa.versions import WsaVersion
from repro.wse.messages import decode_filter_namespaces, encode_filter_namespaces
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import Namespaces, QName
from repro.util.xstime import format_datetime

WSA = WsaVersion.V2005_08  # the converged spec binds the W3C recommendation


def _q(local: str) -> QName:
    return QName(WSEN_NS, local)


def _action(local: str) -> str:
    return f"{WSEN_NS}/{local}"


def _notification(item: DeliveryItem) -> XElem:
    """The *defined* wrapped entry format (closing WSE's gap): one item."""
    entry = XElem(_q("Notification"))
    if item.topic is not None:
        entry.append(text_element(_q("Topic"), item.topic))
    message = XElem(_q("Message"))
    message.append(item.payload)
    entry.append(message)
    return entry


def _notifications(pairs: list) -> XElem:
    """A wrapped batch: one ``Notification`` per item."""
    wrapper = XElem(_q("Notifications"))
    for _, item in pairs:
        wrapper.append(_notification(item))
    return wrapper


def _entries_of(container: XElem) -> list[tuple[XElem, Optional[str]]]:
    """The (payload, topic) pairs a wrapped Notify / PullResponse carries."""
    return [
        (message_payload(entry.find(_q("Message")), "Notification"), child_text(entry, "Topic"))
        for entry in container.find_all(_q("Notification"))
    ]


_DIALECT = QName("", "Dialect")
_MODE = QName("", "Mode")

_PROFILE = ConvergedProfile()  # WS-Eventing's delivery modes, in the converged namespace
MODE_PUSH = DeliveryMode.PUSH.uri(_PROFILE)
MODE_PULL = DeliveryMode.PULL.uri(_PROFILE)
MODE_WRAP = DeliveryMode.WRAPPED.uri(_PROFILE)

#: kind x operation -> fault subcode, and removal reason -> the Reason a
#: SubscriptionEnd carries (Unsubscribe is silent): the converged rows
_FAULTS = {
    ("invalid_topic", None): _q("InvalidFilterFault"),
    ("invalid_properties", None): _q("InvalidFilterFault"),
    ("invalid_content", None): _q("InvalidFilterFault"),
    ("invalid_expiry", None): _q("InvalidExpirationTime"),
    ("unknown_subscription", None): _q("UnknownSubscription"),
    ("no_current_message", None): _q("NoCurrentMessageOnTopic"),
}
_END_REASONS = {"expired": "SubscriptionExpired", "delivery failure": "DeliveryFailure: {detail}"}

#: Table 2's union, as the prototype serves it: WS-Eventing's GetStatus / Pull
#: / SubscriptionEnd beside WS-Notification's Pause / Resume / GetCurrentMessage
OPERATIONS = OperationTable(
    "WsEventNotificationDraft",
    WSEN_NS,
    {
        "source": "EventNotificationSource",
        "manager": "SubscriptionManager",
        "sink": "EventNotificationConsumer",
    },
    tuple(
        Operation(name, port, _action(name), f"wsen:{name}", handler)
        for name, port, handler in (
            ("Subscribe", "source", "_handle_subscribe"),
            ("GetCurrentMessage", "source", "_handle_get_current_message"),
            ("Renew", "manager", "_handle_renew"),
            ("GetStatus", "manager", "_handle_get_status"),
            ("Unsubscribe", "manager", "_handle_unsubscribe"),
            ("PauseSubscription", "manager", "_handle_pause"),
            ("ResumeSubscription", "manager", "_handle_resume"),
            ("Pull", "manager", "_handle_pull"),
            ("Notify", "sink", None),
            ("SubscriptionEnd", "sink", None),
        )
    ),
)


def build_subscribe(
    *,
    consumer: Optional[EndpointReference] = None,
    mode: str = MODE_PUSH,
    topic: Optional[str] = None,
    topic_dialect: str = Namespaces.DIALECT_TOPIC_CONCRETE,
    message_content: Optional[str] = None,
    producer_properties: Optional[str] = None,
    namespaces: Optional[dict[str, str]] = None,
    expires: Optional[str] = None,
    end_to: Optional[EndpointReference] = None,
    use_raw: bool = False,
) -> XElem:
    """One Subscribe carrying both parents' vocabulary: WS-Eventing's
    delivery mode and EndTo, WS-Notification's three-part filter."""
    body = XElem(_q("Subscribe"))
    if consumer is not None:
        body.append(consumer.to_element(WSA, _q("ConsumerReference")))
    if mode != MODE_PUSH:
        delivery = XElem(_q("Delivery"))
        delivery.attrs[_MODE] = mode
        body.append(delivery)
    if end_to is not None:
        body.append(end_to.to_element(WSA, _q("EndTo")))
    if topic or message_content or producer_properties:
        filter_elem = XElem(_q("Filter"))
        if topic is not None:
            topic_part = text_element(_q("TopicExpression"), topic)
            topic_part.attrs[_DIALECT] = topic_dialect
            filter_elem.append(topic_part)
        if producer_properties is not None:
            props = text_element(_q("ProducerProperties"), producer_properties)
            if namespaces:
                encode_filter_namespaces(props, namespaces)
            filter_elem.append(props)
        if message_content is not None:
            content = text_element(_q("MessageContent"), message_content)
            if namespaces:
                encode_filter_namespaces(content, namespaces)
            filter_elem.append(content)
        body.append(filter_elem)
    if expires is not None:
        body.append(text_element(_q("Expires"), expires))
    if use_raw:
        body.append(XElem(_q("UseRaw")))
    return body


def _parse_subscribe_response(response: XElem) -> SubscriptionHandle:
    manager = EndpointReference.from_element(response.require(_q("SubscriptionManager")), WSA)
    sub_id = manager.parameter_text(_q("Identifier")) or ""
    return SubscriptionHandle(manager, sub_id, child_text(response, "Expires") or "")


#: the subscriber's verb table: what each verb is called in the converged
#: draft, how its request is built and its response read
VERBS = {
    "subscribe": Verb("Subscribe", build_subscribe, _parse_subscribe_response),
    "get_current_message": Verb(
        "GetCurrentMessage",
        lambda topic: text_body(_q("GetCurrentMessage"), Topic=topic),
        read_current_message,
    ),
    "renew": Verb(
        "Renew",
        lambda expires: text_body(_q("Renew"), Expires=expires),
        lambda body: child_text(body, "Expires") or "",
    ),
    "get_status": Verb(
        "GetStatus",
        partial(text_body, _q("GetStatus")),
        lambda body: child_text(body, "Status") or "",
    ),
    "unsubscribe": Verb("Unsubscribe", partial(text_body, _q("Unsubscribe"))),
    "pause": Verb("PauseSubscription", partial(text_body, _q("PauseSubscription"))),
    "resume": Verb("ResumeSubscription", partial(text_body, _q("ResumeSubscription"))),
    "pull": Verb(
        "Pull",
        # 0 = no maximum: MaxMessages stays off the wire
        lambda max_messages: text_body(_q("Pull"), MaxMessages=max_messages or None),
        _entries_of,
    ),
}


class ConvergedSource(SubscriptionService):
    """The prototype event source/producer (one endpoint + one manager):
    the third row set over the shared subscription manager and fan-out."""

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        *,
        topic_namespace: Optional[TopicNamespace] = None,
        default_lifetime: Optional[float] = 3600.0,
        producer_properties: Optional[dict[str, str]] = None,
        batching: Optional[BatchingPolicy] = None,
    ) -> None:
        super().__init__(
            network,
            address,
            OPERATIONS,
            family="wsen",
            version_tag="wsen",
            role="source",
            wsa_version=WSA,
            faults=_FAULTS,
            topics=topic_namespace or TopicNamespace(),
            producer_properties=producer_properties,
            batching=batching,
            default_lifetime=default_lifetime,
        )
        #: how the converged notifications leave: raw push with the topic in
        #: a header, else the *defined* wrapped format, for push and wrapped
        #: delivery alike
        notify = _action("Notify")
        self._raw_sending = Sending(notify, Entry("raw", topic_header=_q("Topic")))
        wrapped = Sending(notify, Entry("wrapped", _notifications, batch=True))
        self._push_sending = self._wrapped_sending = wrapped

    # --- subscribe -----------------------------------------------------------------

    def read_subscribe(self, envelope: SoapEnvelope) -> tuple[Grant, Optional[str]]:
        """Subscribe as the grant asked for and the expiry it requests, or a fault."""
        body = envelope.body_element()
        if body.name != _q("Subscribe"):
            raise SoapFault(FaultCode.SENDER, f"expected wsen:Subscribe, got {body.name}")
        delivery = body.find(_q("Delivery"))
        mode_uri = delivery.attrs.get(_MODE, MODE_PUSH) if delivery is not None else MODE_PUSH
        try:
            mode = DeliveryMode.from_uri(mode_uri, _PROFILE)
        except ValueError as exc:
            raise SoapFault(
                FaultCode.SENDER, str(exc), subcode=_q("DeliveryModeRequestedUnavailable")
            ) from exc
        consumer_elem = body.find(_q("ConsumerReference"))
        consumer = (
            EndpointReference.from_element(consumer_elem, WSA)
            if consumer_elem is not None
            else None
        )
        if mode is not DeliveryMode.PULL and consumer is None:
            raise SoapFault(
                FaultCode.SENDER, "push/wrapped delivery requires ConsumerReference"
            )
        end_elem = body.find(_q("EndTo"))
        return Grant(
            consumer,
            self._filter_parts(body.find(_q("Filter"))),
            mode=mode,
            end_to=EndpointReference.from_element(end_elem, WSA) if end_elem is not None else None,
            use_raw=body.find(_q("UseRaw")) is not None,
        ), child_text(body, "Expires")

    def _handle_subscribe(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self.grant(*self.read_subscribe(envelope))
        response = text_body(
            _q("SubscribeResponse"),
            **self._lease(subscription),
            CurrentTime=format_datetime(self.clock.now()),
        )
        manager = EndpointReference(self.manager_address)
        manager.with_parameter(text_element(_q("Identifier"), subscription.key))
        response.children.insert(0, manager.to_element(WSA, _q("SubscriptionManager")))
        return self._reply(headers, _action("SubscribeResponse"), response)

    def _filter_parts(self, filter_elem: Optional[XElem]) -> dict:
        """WS-Notification's three-part filter, as the core's arguments."""
        parts: dict = {}
        if filter_elem is None:
            return parts
        topic = filter_elem.find(_q("TopicExpression"))
        if topic is not None:
            parts["topic"] = topic.full_text().strip()
            parts["topic_dialect"] = topic.attrs.get(_DIALECT, Namespaces.DIALECT_TOPIC_CONCRETE)
        for key, local in (("properties", "ProducerProperties"), ("content", "MessageContent")):
            part = filter_elem.find(_q(local))
            if part is not None:
                parts[key] = part.full_text().strip()
                parts[f"{key}_namespaces"] = decode_filter_namespaces(part)
        return parts

    # --- manager operations ----------------------------------------------------------

    def _subscription_for(self, envelope: SoapEnvelope, headers: MessageHeaders) -> Subscription:
        sub_id = ""
        for echoed in headers.echoed:
            if echoed.name == _q("Identifier"):
                sub_id = echoed.full_text().strip()
        return self._lookup(sub_id)

    def _status(self, subscription: Subscription) -> dict[str, str]:
        status = "Paused" if subscription.paused else "Active"
        return {**self._lease(subscription), "Status": status}

    #: a pulled item is written as a wrapped one
    _pulled = staticmethod(_notification)

    # --- publication -----------------------------------------------------------------

    def publish(self, payload: XElem, *, topic: Optional[str] = None) -> int:
        return self._fanout.publish(self._route, payload, topic, self._push, topic=topic or "")

    def _announce_end(self, subscription: Subscription, reason: str, detail: str) -> None:
        """The end-notice table: expiry and delivery failure are announced."""
        text = _END_REASONS.get(reason)
        if text is None or subscription.end_to is None:
            return
        body = XElem(_q("SubscriptionEnd"))
        body.append(text_element(_q("Identifier"), subscription.key))
        body.append(text_element(_q("Reason"), text.format(detail=detail)))
        self._send_end_notice(
            subscription.end_to, _action("SubscriptionEnd"), body, "subscription_end"
        )


class ConvergedConsumer(ConsumerEndpoint):
    """A consumer endpoint for the converged Notify/SubscriptionEnd shapes."""

    def __init__(
        self, network: SimulatedNetwork, address: str, *, zone: str = PUBLIC_ZONE
    ) -> None:
        super().__init__(network, address, zone)
        self.ends: list[str] = []
        self.endpoint.on_action(_action("Notify"), self._handle_notify)
        self.endpoint.on_action(_action("SubscriptionEnd"), self._handle_end)

    def _handle_notify(self, envelope: SoapEnvelope, headers: MessageHeaders):
        body = envelope.body_element()
        if body.name == _q("Notifications"):
            self.received.extend(
                ReceivedNotification(payload, topic, True) for payload, topic in _entries_of(body)
            )
        else:
            self.received.append(ReceivedNotification(body, envelope.header_text(_q("Topic"))))
        return None

    def _handle_end(self, envelope: SoapEnvelope, headers: MessageHeaders):
        self.ends.append(child_text(envelope.body_element(), "Reason") or "")
        return None


class ConvergedSubscriber(SubscriberClient):
    """Client API for the converged prototype: the shared verbs, all of
    them served, and a Subscribe that carries both parents' vocabulary."""

    def __init__(self, network: SimulatedNetwork, *, zone: str = PUBLIC_ZONE) -> None:
        super().__init__(network, OPERATIONS, VERBS, wsa_version=WSA, zone=zone)

    def subscribe(self, source: EndpointReference, **vocabulary) -> SubscriptionHandle:
        """Subscribe at ``source``; the keywords are :func:`build_subscribe`'s."""
        return self._call("subscribe", source, **vocabulary)
