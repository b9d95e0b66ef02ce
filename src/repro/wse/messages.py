"""WS-Eventing message construction and parsing, per version.

Version differences reproduced here (paper section IV):

- 01/2004 identifies subscriptions with a bare ``wse:Id`` element in message
  bodies, and its SubscribeResponse has no SubscriptionManager EPR (the event
  source *is* the manager).
- 08/2004 returns a ``wse:SubscriptionManager`` endpoint reference whose
  ``wse:Identifier`` ReferenceParameter carries the subscription id — the
  "treat subscriptions as resources" style adopted from WS-Notification.
- The Delivery element's ``Mode`` attribute is the extension point through
  which 08/2004 selects pull or wrapped delivery; 01/2004 rejects non-push
  modes.

Filter expressions may use namespace prefixes.  Real messages declare those
prefixes with ``xmlns:`` attributes, which XML parsers consume during name
resolution; to keep prefix bindings intact across our wire round-trip, the
Filter element carries them as attributes in a private namespace
(``ns-<prefix>``).  ``encode_filter``/``decode_filter`` hide this.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.qos.properties import QosError, QosProfile
from repro.qos.wire import find_profile, profile_to_element
from repro.render import Entry, TopiclessEntry
from repro.soap.fault import FaultCode, SoapFault
from repro.subscriptions import Grant, SubscriptionHandle, Verb, child_text, text_body
from repro.wsa.epr import EndpointReference
from repro.wse.model import DeliveryMode, SubscriptionEndCode
from repro.wse.versions import WseVersion
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import Namespaces, QName

#: private namespace for carrying filter prefix bindings through the wire
FILTER_NS_BINDING = "http://repro.invalid/xmlns-binding"


def encode_filter_namespaces(filter_elem: XElem, namespaces: dict[str, str]) -> None:
    for prefix, uri in namespaces.items():
        filter_elem.attrs[QName(FILTER_NS_BINDING, f"ns-{prefix}")] = uri


def decode_filter_namespaces(filter_elem: XElem) -> dict[str, str]:
    namespaces: dict[str, str] = {}
    for attr, uri in filter_elem.attrs.items():
        if attr.namespace == FILTER_NS_BINDING and attr.local.startswith("ns-"):
            namespaces[attr.local[3:]] = uri
    return namespaces


def build_subscribe(
    version: WseVersion,
    *,
    mode: DeliveryMode = DeliveryMode.PUSH,
    notify_to: Optional[EndpointReference] = None,
    end_to: Optional[EndpointReference] = None,
    expires_text: Optional[str] = None,
    filter_expression: Optional[str] = None,
    filter_dialect: Optional[str] = None,
    filter_namespaces: Optional[dict[str, str]] = None,
    qos: Optional[QosProfile] = None,
) -> XElem:
    wsa = version.wsa_version
    subscribe = XElem(version.qname("Subscribe"))
    if end_to is not None:
        subscribe.append(end_to.to_element(wsa, version.qname("EndTo")))
    delivery = XElem(version.qname("Delivery"))
    if mode is not DeliveryMode.PUSH:
        delivery.attrs[QName("", "Mode")] = mode.uri(version)
    if notify_to is not None:
        delivery.append(notify_to.to_element(wsa, version.qname("NotifyTo")))
    subscribe.append(delivery)
    if expires_text is not None:
        subscribe.append(text_element(version.qname("Expires"), expires_text))
    if filter_expression is not None:
        filter_elem = text_element(version.qname("Filter"), filter_expression)
        filter_elem.attrs[QName("", "Dialect")] = (
            filter_dialect or Namespaces.DIALECT_XPATH10
        )
        if filter_namespaces:
            encode_filter_namespaces(filter_elem, filter_namespaces)
        subscribe.append(filter_elem)
    if qos is not None:
        # WS-Eventing's Subscribe is openly extensible; the profile rides
        # as a direct child element in the qos namespace
        subscribe.append(profile_to_element(qos))
    return subscribe


def parse_subscribe(body: XElem, version: WseVersion) -> tuple[Grant, Optional[str]]:
    """A wse:Subscribe body as the grant it asks for, and its Expires text."""
    if body.name != version.qname("Subscribe"):
        raise SoapFault(
            FaultCode.SENDER,
            f"expected {version.qname('Subscribe')}, got {body.name}",
        )
    wsa = version.wsa_version
    delivery = body.find(version.qname("Delivery"))
    if delivery is None:
        raise SoapFault(FaultCode.SENDER, "Subscribe has no Delivery element")
    mode_uri = delivery.attrs.get(QName("", "Mode"))
    if mode_uri is None:
        mode = DeliveryMode.PUSH
    else:
        try:
            mode = DeliveryMode.from_uri(mode_uri, version)
        except ValueError as exc:
            raise SoapFault(
                FaultCode.SENDER,
                str(exc),
                subcode=version.qname("DeliveryModeRequestedUnavailable"),
            ) from exc
    notify_elem = delivery.find(version.qname("NotifyTo"))
    notify_to = (
        EndpointReference.from_element(notify_elem, wsa) if notify_elem is not None else None
    )
    end_elem = body.find(version.qname("EndTo"))
    end_to = EndpointReference.from_element(end_elem, wsa) if end_elem is not None else None
    expires_elem = body.find(version.qname("Expires"))
    expires_text = expires_elem.full_text().strip() if expires_elem is not None else None
    filter_elem = body.find(version.qname("Filter"))
    parts = {}
    if filter_elem is not None:
        parts = {
            "content": filter_elem.full_text().strip(),
            "content_namespaces": decode_filter_namespaces(filter_elem),
            "content_dialect": filter_elem.attrs.get(
                QName("", "Dialect"), Namespaces.DIALECT_XPATH10
            ),
        }
    try:
        qos = find_profile(body)
    except QosError as exc:
        raise SoapFault(
            FaultCode.SENDER,
            f"unsupported QoS: {exc}",
            subcode=version.qname("UnsupportedQoS"),
        ) from exc
    return Grant(notify_to, parts, qos=qos, mode=mode, end_to=end_to), expires_text


# --- subscription identity ---------------------------------------------------


def identifier_param(version: WseVersion, sub_id: str) -> XElem:
    return text_element(version.qname("Identifier"), sub_id)


def build_subscribe_response(
    version: WseVersion,
    *,
    sub_id: str,
    manager_address: str,
    expires_text: str,
) -> XElem:
    response = XElem(version.qname("SubscribeResponse"))
    if version.subscription_id_in_epr:
        manager = EndpointReference(manager_address)
        manager.with_parameter(identifier_param(version, sub_id))
        response.append(
            manager.to_element(version.wsa_version, version.qname("SubscriptionManager"))
        )
    else:
        # 01/2004: a bare Id element; the source itself is the manager
        response.append(text_element(version.qname("Id"), sub_id))
    response.append(text_element(version.qname("Expires"), expires_text))
    return response


def parse_subscribe_response(
    body: XElem, version: WseVersion, source_address: str
) -> SubscriptionHandle:
    if body.name != version.qname("SubscribeResponse"):
        raise SoapFault(FaultCode.SENDER, f"unexpected response {body.name}")
    expires_elem = body.find(version.qname("Expires"))
    expires_text = expires_elem.full_text().strip() if expires_elem is not None else ""
    if version.subscription_id_in_epr:
        manager_elem = body.require(version.qname("SubscriptionManager"))
        manager = EndpointReference.from_element(manager_elem, version.wsa_version)
        sub_id = manager.parameter_text(version.qname("Identifier")) or ""
    else:
        sub_id = body.require(version.qname("Id")).full_text().strip()
        manager = EndpointReference(source_address)
    return SubscriptionHandle(manager, sub_id, expires_text)


def subscription_id_from_request(
    version: WseVersion, body: XElem, echoed_headers: list[XElem]
) -> str:
    """Recover the subscription id from a manager-bound request.

    08/2004: the ``wse:Identifier`` reference parameter echoed as a header.
    01/2004: a ``wse:Id`` element inside the request body.
    """
    if version.subscription_id_in_epr:
        for header in echoed_headers:
            if header.name == version.qname("Identifier"):
                return header.full_text().strip()
        raise SoapFault(FaultCode.SENDER, "missing wse:Identifier reference parameter")
    id_elem = body.find(version.qname("Id"))
    if id_elem is None:
        raise SoapFault(FaultCode.SENDER, "missing wse:Id element")
    return id_elem.full_text().strip()


def attach_subscription_id(version: WseVersion, body: XElem, sub_id: str) -> None:
    """01/2004 style: place the id inside the request body."""
    if not version.subscription_id_in_epr:
        body.append(text_element(version.qname("Id"), sub_id))


# --- SubscriptionEnd ----------------------------------------------------------


def build_subscription_end(
    version: WseVersion,
    *,
    manager_address: str,
    sub_id: str,
    code: SubscriptionEndCode,
    reason: str = "",
) -> XElem:
    end = XElem(version.qname("SubscriptionEnd"))
    manager = EndpointReference(manager_address)
    manager.with_parameter(identifier_param(version, sub_id))
    end.append(manager.to_element(version.wsa_version, version.qname("SubscriptionManager")))
    end.append(text_element(version.qname("Status"), f"{version.namespace}/{code.value}"))
    if reason:
        end.append(text_element(version.qname("Reason"), reason))
    return end


@dataclass
class SubscriptionEnd:
    sub_id: str
    code: SubscriptionEndCode
    reason: str


def parse_subscription_end(body: XElem, version: WseVersion) -> SubscriptionEnd:
    manager_elem = body.require(version.qname("SubscriptionManager"))
    manager = EndpointReference.from_element(manager_elem, version.wsa_version)
    sub_id = manager.parameter_text(version.qname("Identifier")) or ""
    status_text = body.require(version.qname("Status")).full_text().strip()
    code = SubscriptionEndCode.SOURCE_CANCELING
    for candidate in SubscriptionEndCode:
        if status_text.endswith(candidate.value):
            code = candidate
            break
    reason_elem = body.find(version.qname("Reason"))
    reason = reason_elem.full_text().strip() if reason_elem is not None else ""
    return SubscriptionEnd(sub_id, code, reason)


# --- pull delivery (08/2004 extension; format is our concretization) ---------------


def build_pull(version: WseVersion, max_messages: int = 0) -> XElem:
    pull = XElem(version.qname("Pull"))
    if max_messages:
        pull.append(text_element(version.qname("MaxMessages"), str(max_messages)))
    return pull


def build_pull_response(version: WseVersion, messages: list[XElem]) -> XElem:
    response = XElem(version.qname("PullResponse"))
    for message in messages:
        # frozen messages are fan-out-shared and safe to alias
        response.append(message if message.frozen else message.copy())
    return response


def parse_pull_response(body: XElem, version: WseVersion) -> list[XElem]:
    if body.name != version.qname("PullResponse"):
        raise SoapFault(FaultCode.SENDER, f"unexpected response {body.name}")
    return list(body.elements())


# --- wrapped delivery (format undefined by the spec; ours documented) ----------------


def build_wrapped_notification(version: WseVersion, messages: list[XElem]) -> XElem:
    """WSE 08/2004 permits wrapped mode but 'does not specify message formats
    of the wrapped notification messages' (paper section IV) — this local
    wrapper element is our documented concretization."""
    wrapper = XElem(version.qname("Notifications"))
    for message in messages:
        wrapper.append(message if message.frozen else message.copy())
    return wrapper


def wrapped_entry(version: WseVersion) -> Entry:
    """The wrapped batch as a row of the rendering table: each item's payload
    its own chunk of the wrapper, which has no place for a topic."""
    return TopiclessEntry(
        "wrapped",
        lambda pairs: build_wrapped_notification(version, [item.payload for _, item in pairs]),
        batch=True,
    )


def parse_wrapped_notification(body: XElem, version: WseVersion) -> list[XElem]:
    return list(body.elements())


# --- the client's verbs ----------------------------------------------------------------


def verbs(version: WseVersion) -> dict[str, Verb]:
    """The subscriber's verb table: what each verb is called in WS-Eventing,
    how its request is built and its response read.  Pause / resume and
    GetCurrentMessage are Table 2's "Not available" cells: named, never built."""

    def granted(body: XElem) -> str:
        return child_text(body, "Expires") or ""

    return {
        # the SubscribeResponse is read by the subscriber, which knows the source
        "subscribe": Verb("Subscribe", partial(build_subscribe, version), lambda body: body),
        "renew": Verb(
            "Renew", lambda expires: text_body(version.qname("Renew"), Expires=expires), granted
        ),
        "get_status": Verb("GetStatus", partial(text_body, version.qname("GetStatus")), granted),
        "unsubscribe": Verb("Unsubscribe", partial(text_body, version.qname("Unsubscribe"))),
        "pull": Verb(
            "Pull", partial(build_pull, version), partial(parse_pull_response, version=version)
        ),
        "pause": Verb("PauseSubscription"),
        "resume": Verb("ResumeSubscription"),
        "get_current_message": Verb("GetCurrentMessage"),
    }
