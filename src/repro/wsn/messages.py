"""WS-Notification message construction and parsing, per version.

Shapes reproduced from the specs (and exercised by the paper's
message-format comparison):

- 1.3 Subscribe carries a ``Filter`` element wrapping any of TopicExpression /
  ProducerProperties / MessageContent, and an ``InitialTerminationTime`` that
  may be a duration; the reply's SubscriptionReference carries the id in
  ``ReferenceParameters`` (WSA 2005/08).
- 1.0/1.2 Subscribe carries ``TopicExpression`` (required), an optional
  ``Selector`` (content filter, no dialect defined), ``UseNotify`` (wrapped
  vs raw), and an absolute ``InitialTerminationTime``; the reply encloses the
  id in ``ReferenceProperties`` (the paper's category-1 format difference).
- A wrapped notification is ``Notify`` containing ``NotificationMessage``
  elements, each with Topic, SubscriptionReference, ProducerReference and the
  ``Message`` payload — versus WSE's raw-body style (category 5/6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.qos.properties import QosError, QosProfile
from repro.qos.wire import find_profile, profile_to_element
from repro.soap.fault import FaultCode, SoapFault
from repro.subscriptions import (
    Grant,
    SubscriptionHandle,
    Verb,
    child_text,
    message_payload,
    read_current_message,
    text_body,
)
from repro.wsa.epr import EndpointReference
from repro.wsa.versions import WsaVersion
from repro.wsn.versions import WsnVersion
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import Namespaces, QName

from repro.wse.messages import decode_filter_namespaces, encode_filter_namespaces

_DIALECT = QName("", "Dialect")


@dataclass
class WsnFilterSpec:
    """The filter content of a Subscribe request (any combination)."""

    topic_expression: Optional[str] = None
    topic_dialect: str = Namespaces.DIALECT_TOPIC_CONCRETE
    producer_properties: Optional[str] = None
    message_content: Optional[str] = None
    message_content_dialect: str = Namespaces.DIALECT_XPATH10
    namespaces: dict[str, str] = field(default_factory=dict)


def build_subscribe(
    version: WsnVersion,
    *,
    consumer: EndpointReference,
    filter: Optional[WsnFilterSpec] = None,
    initial_termination: Optional[str] = None,
    use_raw: bool = False,
    qos: Optional[QosProfile] = None,
) -> XElem:
    wsa = version.wsa_version
    filter = filter or WsnFilterSpec()
    subscribe = XElem(version.qname("Subscribe"))
    subscribe.append(consumer.to_element(wsa, version.qname("ConsumerReference")))
    if version.has_filter_element:
        filter_elem = XElem(version.qname("Filter"))
        _append_filter_parts(version, filter_elem, filter)
        if list(filter_elem.elements()):
            subscribe.append(filter_elem)
        if use_raw or qos is not None:
            policy = XElem(version.qname("SubscriptionPolicy"))
            if use_raw:
                policy.append(XElem(version.qname("UseRaw")))
            if qos is not None:
                # 1.3's SubscriptionPolicy is the designated extension slot
                policy.append(profile_to_element(qos))
            subscribe.append(policy)
    else:
        # 1.0/1.2: filter parts sit directly in Subscribe; UseNotify picks raw/wrapped
        _append_filter_parts(version, subscribe, filter)
        subscribe.append(
            text_element(version.qname("UseNotify"), "false" if use_raw else "true")
        )
        if qos is not None:
            # 1.0/1.2 have no policy wrapper; the profile rides as a direct
            # extension child (both specs allow open content)
            subscribe.append(profile_to_element(qos))
    if initial_termination is not None:
        subscribe.append(
            text_element(version.qname("InitialTerminationTime"), initial_termination)
        )
    return subscribe


def _append_filter_parts(version: WsnVersion, parent: XElem, filter: WsnFilterSpec) -> None:
    if filter.topic_expression is not None:
        topic = text_element(version.qname("TopicExpression"), filter.topic_expression)
        topic.attrs[_DIALECT] = filter.topic_dialect
        parent.append(topic)
    if filter.producer_properties is not None:
        props = text_element(version.qname("ProducerProperties"), filter.producer_properties)
        props.attrs[_DIALECT] = Namespaces.DIALECT_XPATH10
        if filter.namespaces:
            encode_filter_namespaces(props, filter.namespaces)
        parent.append(props)
    if filter.message_content is not None:
        local = "MessageContent" if version.has_filter_element else "Selector"
        content = text_element(version.qname(local), filter.message_content)
        if version.defines_xpath_dialect:
            content.attrs[_DIALECT] = filter.message_content_dialect
        if filter.namespaces:
            encode_filter_namespaces(content, filter.namespaces)
        parent.append(content)


def parse_subscribe(body: XElem, version: WsnVersion) -> tuple[Grant, Optional[str]]:
    """A wsnt:Subscribe body as the grant it asks for, and its InitialTerminationTime."""
    if body.name != version.qname("Subscribe"):
        raise SoapFault(FaultCode.SENDER, f"expected wsnt:Subscribe, got {body.name}")
    consumer_elem = body.find(version.qname("ConsumerReference"))
    if consumer_elem is None:
        raise SoapFault(FaultCode.SENDER, "Subscribe has no ConsumerReference")
    consumer = EndpointReference.from_element(consumer_elem, version.wsa_version)
    parts: dict = {}
    use_raw = False  # a wrapped Notify, the default in every version
    qos_parent = body
    if version.has_filter_element:
        filter_elem = body.find(version.qname("Filter"))
        if filter_elem is not None:
            _parse_filter_parts(version, filter_elem, parts)
        policy = body.find(version.qname("SubscriptionPolicy"))
        if policy is not None:
            if policy.find(version.qname("UseRaw")) is not None:
                use_raw = True
            qos_parent = policy
    else:
        _parse_filter_parts(version, body, parts)
        use_notify = body.find(version.qname("UseNotify"))
        if use_notify is not None and use_notify.full_text().strip() == "false":
            use_raw = True
    try:
        qos = find_profile(qos_parent)
        if qos is None and qos_parent is not body:
            qos = find_profile(body)
    except QosError as exc:
        raise SoapFault(
            FaultCode.SENDER,
            f"unsupported QoS: {exc}",
            subcode=version.qname("UnrecognizedPolicyRequestFault"),
        ) from exc
    term_elem = body.find(version.qname("InitialTerminationTime"))
    termination = term_elem.full_text().strip() if term_elem is not None else None
    topic = parts.get("topic")
    return Grant(consumer, parts, qos=qos, use_raw=use_raw, topic_expression=topic), termination


def _parse_filter_parts(version: WsnVersion, parent: XElem, parts: dict) -> None:
    namespaces: dict[str, str] = {}
    topic = parent.find(version.qname("TopicExpression"))
    if topic is not None:
        parts["topic"] = topic.full_text().strip()
        parts["topic_dialect"] = topic.attrs.get(_DIALECT, Namespaces.DIALECT_TOPIC_CONCRETE)
    props = parent.find(version.qname("ProducerProperties"))
    if props is not None:
        parts["properties"] = props.full_text().strip()
        parts["properties_namespaces"] = namespaces
        namespaces.update(decode_filter_namespaces(props))
    content = parent.find(version.qname("MessageContent")) or parent.find(
        version.qname("Selector")
    )
    if content is not None:
        parts["content"] = content.full_text().strip()
        parts["content_dialect"] = content.attrs.get(_DIALECT, Namespaces.DIALECT_XPATH10)
        parts["content_namespaces"] = namespaces
        namespaces.update(decode_filter_namespaces(content))


# --- SubscribeResponse -----------------------------------------------------------

SUBSCRIPTION_ID = QName("http://repro.invalid/wsn", "SubscriptionId")


def build_subscribe_response(
    version: WsnVersion,
    *,
    manager_address: str,
    sub_id: str,
    current_time_text: Optional[str] = None,
    termination_time_text: Optional[str] = None,
) -> XElem:
    response = XElem(version.qname("SubscribeResponse"))
    reference = EndpointReference(manager_address)
    id_elem = text_element(SUBSCRIPTION_ID, sub_id)
    if version.uses_reference_properties:
        reference.with_property(id_elem)  # pre-2005/08 WSA style
    else:
        reference.with_parameter(id_elem)
    response.append(
        reference.to_element(version.wsa_version, version.qname("SubscriptionReference"))
    )
    if current_time_text is not None:
        response.append(text_element(version.qname("CurrentTime"), current_time_text))
    if termination_time_text is not None:
        response.append(
            text_element(version.qname("TerminationTime"), termination_time_text)
        )
    return response


def parse_subscribe_response(body: XElem, version: WsnVersion) -> SubscriptionHandle:
    if body.name != version.qname("SubscribeResponse"):
        raise SoapFault(FaultCode.SENDER, f"unexpected response {body.name}")
    ref_elem = body.require(version.qname("SubscriptionReference"))
    reference = EndpointReference.from_element(ref_elem, version.wsa_version)
    sub_id = reference.parameter_text(SUBSCRIPTION_ID) or ""
    return SubscriptionHandle(reference, sub_id, child_text(body, "TerminationTime") or "")


def subscription_id_from_headers(echoed: list[XElem], name: QName = SUBSCRIPTION_ID) -> str:
    """The id a reference carried back as the header ``name`` (a
    subscription's, or a publisher registration's)."""
    for header in echoed:
        if header.name == name:
            return header.full_text().strip()
    raise SoapFault(FaultCode.SENDER, f"missing {name.local} reference parameter/property")


# --- Notify ----------------------------------------------------------------------


#: per WS-Addressing namespace, the name of an EPR's Address
_ADDRESS = {wsa.namespace: wsa.qname("Address") for wsa in WsaVersion}

#: per WSN namespace (an enum member hashes in Python): the names a Notify is read by
_NOTIFY_READING = {
    v.namespace: (v.qname("Notify"), v.qname("NotificationMessage"), tuple(map(v.qname, (
        "Message", "Topic", "SubscriptionReference", "ProducerReference"))), v.wsa_version)
    for v in WsnVersion
}


def reference_address(reference: XElem, wsa: WsaVersion) -> str:
    """A reference element's wsa:Address; a Sender fault when it has none."""
    address = reference.find(_ADDRESS[wsa.namespace])
    if address is None:
        raise SoapFault(FaultCode.SENDER, f"<{reference.name}> has no wsa:Address")
    return address.full_text().strip()


def read_reference(reference: XElem, wsa: WsaVersion) -> EndpointReference:
    """A reference element as an ``EndpointReference``; a Sender fault when
    it has no wsa:Address."""
    reference_address(reference, wsa)
    return EndpointReference.from_element(reference, wsa)


class _Reference:
    """A reference field, as set: an ``EndpointReference``, or the element a
    reader kept, which becomes one the first time it is read."""

    def __set_name__(self, owner, name: str) -> None:
        self.slot = f"_{name}"

    def __get__(self, message, owner=None):
        value = getattr(message, self.slot, None)  # the class's: the default, None
        if isinstance(value, XElem):
            value = read_reference(value, message.wsa)
            setattr(message, self.slot, value)
        return value

    def __set__(self, message, value) -> None:
        setattr(message, self.slot, value)


@dataclass
class NotificationMessage:
    """One wsnt:NotificationMessage.  One :func:`parse_notify` read keeps its
    references as elements (WS-Addressing ``wsa``) until they are asked for."""

    payload: XElem
    topic: Optional[str] = None
    topic_dialect: str = Namespaces.DIALECT_TOPIC_CONCRETE
    subscription_reference: Optional[EndpointReference] = _Reference()
    producer_reference: Optional[EndpointReference] = _Reference()
    wsa: Optional[WsaVersion] = None

    @property
    def subscription_address(self) -> Optional[str]:
        """The subscription reference's address, read without building it."""
        value = self._subscription_reference
        if isinstance(value, XElem):
            return reference_address(value, self.wsa)
        return value and value.address


def bare_messages(items) -> list[NotificationMessage]:
    """``DeliveryItem`` s as messages with no references: what a mesh hop
    forwards and a message box drains.  Each payload is copied, the one copy a
    frozen payload gets on purpose: the tree writer would splice it under this
    envelope's prefixes, re-priming the cache the fan-out's renders read."""
    return [NotificationMessage(item.payload.copy(), topic=item.topic) for item in items]


def build_notify(version: WsnVersion, notifications: list[NotificationMessage]) -> XElem:
    notify = XElem(version.qname("Notify"))
    for item in notifications:
        message = XElem(version.qname("NotificationMessage"))
        if item.subscription_reference is not None:
            message.append(
                item.subscription_reference.to_element(
                    version.wsa_version, version.qname("SubscriptionReference")
                )
            )
        if item.topic is not None:
            topic = text_element(version.qname("Topic"), item.topic)
            topic.attrs[_DIALECT] = item.topic_dialect
            message.append(topic)
        if item.producer_reference is not None:
            message.append(
                item.producer_reference.to_element(
                    version.wsa_version, version.qname("ProducerReference")
                )
            )
        wrapper = XElem(version.qname("Message"))
        wrapper.append(item.payload)  # aliased: bare_messages hands over copies
        message.append(wrapper)
        notify.append(message)
    return notify


def parse_notify(
    body: XElem, version: WsnVersion, root: str = "Notify"
) -> list[NotificationMessage]:
    """The NotificationMessages of a wsnt:Notify (or another ``root``), one
    walk of each one's children.  The parsed tree is the reader's: a payload is
    taken as it is, a reference stays an element until asked for."""
    notify, entry, names, wsa = _NOTIFY_READING[version.namespace]
    if body.name != (notify if root == "Notify" else version.qname(root)):
        raise SoapFault(FaultCode.SENDER, f"expected wsnt:{root}, got {body.name}")
    notifications: list[NotificationMessage] = []
    for message in body.children:
        if not isinstance(message, XElem) or message.name != entry:
            continue
        parts: dict = {}
        for child in message.children:
            if isinstance(child, XElem):
                parts.setdefault(child.name, child)
        wrapper, topic, subscription, producer = map(parts.get, names)
        item = NotificationMessage(
            message_payload(wrapper, "NotificationMessage"),
            subscription_reference=subscription,
            producer_reference=producer,
            wsa=wsa,
        )
        if topic is not None:
            item.topic = topic.full_text().strip()
            item.topic_dialect = topic.attrs.get(_DIALECT, Namespaces.DIALECT_TOPIC_CONCRETE)
        notifications.append(item)
    return notifications


# --- GetCurrentMessage -----------------------------------------------------------


def build_get_current_message(
    version: WsnVersion, topic: str, dialect: str = Namespaces.DIALECT_TOPIC_CONCRETE
) -> XElem:
    request = XElem(version.qname("GetCurrentMessage"))
    topic_elem = text_element(version.qname("Topic"), topic)
    topic_elem.attrs[_DIALECT] = dialect
    request.append(topic_elem)
    return request


# --- WSRF operations on subscription resources (actions + bodies) ------------------


def wsrf_action(local: str) -> str:
    return f"{Namespaces.WSRF_RP}/{local}"


def wsrf_lifetime_action(local: str) -> str:
    return f"{Namespaces.WSRF_RL}/{local}"


def build_get_resource_property(name: QName) -> XElem:
    request = XElem(QName(Namespaces.WSRF_RP, "GetResourceProperty"))
    # carry the property QName as namespace + local attributes (prefix-free wire form)
    request.attrs[QName("", "namespace")] = name.namespace
    request.attrs[QName("", "local")] = name.local
    return request


def parse_get_resource_property(body: XElem) -> QName:
    return QName(
        body.attrs.get(QName("", "namespace"), ""),
        body.attrs.get(QName("", "local"), ""),
    )


def build_set_termination_time(termination_text: Optional[str]) -> XElem:
    request = XElem(QName(Namespaces.WSRF_RL, "SetTerminationTime"))
    if termination_text is None:
        request.append(XElem(QName(Namespaces.WSRF_RL, "RequestedLifetimeDuration")))
    else:
        request.append(
            text_element(
                QName(Namespaces.WSRF_RL, "RequestedTerminationTime"), termination_text
            )
        )
    return request


def build_termination_notification(reason: str) -> XElem:
    note = XElem(QName(Namespaces.WSRF_RL, "TerminationNotification"))
    note.append(text_element(QName(Namespaces.WSRF_RL, "TerminationReason"), reason))
    return note


# --- WS-BrokeredNotification 1.3: publisher registration at a broker ---------------

BROKERED_NS = Namespaces.WSNT_BROKERED_13
REGISTRATION_ID = QName("http://repro.invalid/wsn", "RegistrationId")
_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


def _br(local: str) -> QName:
    return QName(BROKERED_NS, local)


def brokered_action(local: str) -> str:
    return f"{BROKERED_NS}/{local}"


def build_register_publisher(
    version: WsnVersion, publisher: Optional[EndpointReference] = None, topic=None, demand=False
) -> XElem:
    request = XElem(_br("RegisterPublisher"))
    if publisher is not None:
        request.append(publisher.to_element(version.wsa_version, _br("PublisherReference")))
    if topic is not None:
        request.append(text_element(version.qname("Topic"), topic))
    request.append(text_element(_br("Demand"), "true" if demand else "false"))
    return request


def parse_register_publisher(body: XElem, version: WsnVersion) -> tuple:
    """``(publisher, topic, demand)`` of a RegisterPublisher; a Sender fault
    for a reference with no address or a Demand that is no xsd:boolean."""
    reference, topic, demand = (
        body.find(name) for name in (_br("PublisherReference"), version.qname("Topic"), _br("Demand"))
    )
    demand_text = demand.full_text().strip() if demand is not None else "false"
    if demand_text not in _BOOLEANS:
        raise SoapFault(FaultCode.SENDER, f"Demand {demand_text!r} is not an xsd:boolean")
    return (
        read_reference(reference, version.wsa_version) if reference is not None else None,
        topic.full_text().strip() if topic is not None else None,
        _BOOLEANS[demand_text],
    )


def build_register_publisher_response(version: WsnVersion, address: str, key: str) -> XElem:
    """The registration's reference: ``address``, the id a reference parameter."""
    reference = EndpointReference(address).with_parameter(text_element(REGISTRATION_ID, key))
    response = XElem(_br("RegisterPublisherResponse"))
    response.append(reference.to_element(version.wsa_version, _br("PublisherRegistrationReference")))
    return response


def read_registration_reference(body: XElem, version: WsnVersion) -> EndpointReference:
    return read_reference(body.require(_br("PublisherRegistrationReference")), version.wsa_version)


# --- the client's verbs ----------------------------------------------------------------

#: the resource property GetStatus is read through (Table 2: "Not defined,
#: can use getResourceProperties in WSRF")
PROP_STATUS = QName(Namespaces.WSNT_13, "SubscriptionStatus")


def _read_status(body: XElem) -> str:
    return next((value.full_text().strip() for value in body.elements()), "")


def verbs(version: WsnVersion) -> dict[str, Verb]:
    """The subscriber's verb table: what each verb is called in
    WS-BaseNotification, how its request is built and its response read —
    the native rows, the three WSRF ones, then WS-BrokeredNotification's two.
    A subscription is never pulled (a pull point is a consumer of its own):
    named, never built."""
    return {
        "subscribe": Verb(
            "Subscribe",
            partial(build_subscribe, version),
            partial(parse_subscribe_response, version=version),
        ),
        "get_current_message": Verb(
            "GetCurrentMessage", partial(build_get_current_message, version), read_current_message
        ),
        "renew": Verb(
            "Renew",
            lambda termination: text_body(version.qname("Renew"), TerminationTime=termination),
            lambda body: child_text(body, "TerminationTime") or "",
        ),
        "unsubscribe": Verb("Unsubscribe", partial(text_body, version.qname("Unsubscribe"))),
        "pause": Verb("PauseSubscription", partial(text_body, version.qname("PauseSubscription"))),
        "resume": Verb(
            "ResumeSubscription", partial(text_body, version.qname("ResumeSubscription"))
        ),
        "pull": Verb("Pull"),
        "get_status": Verb(
            "GetResourceProperty", partial(build_get_resource_property, PROP_STATUS), _read_status
        ),
        "get_resource_property": Verb(
            "GetResourceProperty",
            build_get_resource_property,
            lambda body: [child.copy() for child in body.elements()],
        ),
        "set_termination_time": Verb(
            "SetTerminationTime",
            build_set_termination_time,
            lambda body: child_text(body, "NewTerminationTime") or "",
        ),
        "destroy": Verb("Destroy", partial(text_body, QName(Namespaces.WSRF_RL, "Destroy"))),
        "register_publisher": Verb(
            "RegisterPublisher",
            partial(build_register_publisher, version),
            partial(read_registration_reference, version=version),
        ),
        "destroy_registration": Verb("DestroyRegistration", partial(XElem, _br("DestroyRegistration"))),
    }
