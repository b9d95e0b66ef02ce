"""WS-Addressing message-information headers.

``apply_headers`` stamps To/Action/MessageID/ReplyTo/RelatesTo onto an
outgoing SOAP envelope, echoing the destination EPR's reference
parameters/properties as headers (the routing trick both specifications use
to address individual subscription resources).  ``extract_headers`` recovers
the same information, auto-detecting the WS-Addressing version — which is one
of the signals WS-Messenger's spec detection relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.soap.envelope import SoapEnvelope, SoapVersion
from repro.wsa.epr import EndpointReference
from repro.wsa.versions import WsaVersion
from repro.xmlkit.element import XElem, text_element

_message_counter = itertools.count(1)


def fresh_message_id() -> str:
    """Deterministic, process-unique message identifiers (no wall clock)."""
    return f"urn:uuid:msg-{next(_message_counter):08d}"


def reset_message_counter() -> None:
    """Restart MessageID allocation from 1 (test/bench hook).

    The differential fan-out tests run the same seeded scenario twice and
    diff the raw wire bytes; the process-global counter has to restart
    between runs or every MessageID differs trivially.
    """
    global _message_counter
    _message_counter = itertools.count(1)


def _echo_of(epr: EndpointReference) -> list[XElem]:
    """What addressing a message to ``epr`` makes its sender echo as headers."""
    return [elem.copy() for elem in (*epr.reference_parameters, *epr.reference_properties)]


@dataclass
class MessageHeaders:
    """The addressing properties of one message."""

    to: str
    action: str
    message_id: Optional[str] = None
    relates_to: Optional[str] = None
    reply_to: Optional[EndpointReference] = None
    fault_to: Optional[EndpointReference] = None
    #: reference parameters/properties echoed from the target EPR
    echoed: list[XElem] = field(default_factory=list)

    @classmethod
    def request(
        cls,
        target: EndpointReference,
        action: str,
        *,
        reply_to: Optional[EndpointReference] = None,
    ) -> "MessageHeaders":
        headers = cls(to=target.address, action=action, message_id=fresh_message_id())
        headers.reply_to = reply_to
        headers.echoed = _echo_of(target)
        return headers

    @classmethod
    def reply(cls, request: "MessageHeaders", action: str, version: WsaVersion) -> "MessageHeaders":
        # WS-Addressing 1.0 Core 3.4 (the 2004/08 submission likewise): a
        # reply goes to the ReplyTo endpoint, so that endpoint's reference
        # parameters and properties are headers of the reply
        target = request.reply_to or EndpointReference.anonymous(version)
        reply = cls(target.address, action, fresh_message_id(), request.message_id)
        reply.echoed = _echo_of(target)
        return reply


def apply_headers(
    envelope: SoapEnvelope, headers: MessageHeaders, version: WsaVersion
) -> SoapEnvelope:
    """Stamp addressing headers onto an envelope (mutates and returns it)."""
    envelope.add_header(text_element(version.qname("To"), headers.to), must_understand=True)
    envelope.add_header(
        text_element(version.qname("Action"), headers.action), must_understand=True
    )
    if headers.message_id:
        envelope.add_header(text_element(version.qname("MessageID"), headers.message_id))
    if headers.relates_to:
        envelope.add_header(text_element(version.qname("RelatesTo"), headers.relates_to))
    if headers.reply_to is not None:
        envelope.add_header(headers.reply_to.to_element(version, version.qname("ReplyTo")))
    if headers.fault_to is not None:
        envelope.add_header(headers.fault_to.to_element(version, version.qname("FaultTo")))
    for echoed in headers.echoed:
        block = echoed.copy()
        if version is WsaVersion.V2005_08:
            block.attrs[version.is_reference_parameter_attr] = "true"
        envelope.add_header(block)
    return envelope


def reply_envelope(
    request: MessageHeaders, action: str, body: XElem, version: WsaVersion
) -> SoapEnvelope:
    """The response to ``request``: ``body`` under reply addressing."""
    reply = SoapEnvelope(SoapVersion.V11)
    apply_headers(reply, MessageHeaders.reply(request, action, version), version)
    reply.add_body(body)
    return reply


def detect_wsa_version(envelope: SoapEnvelope) -> Optional[WsaVersion]:
    """Find which WS-Addressing namespace the envelope's headers use."""
    for block in envelope.headers:
        version = WsaVersion.find_namespace(block.content.name.namespace)
        if version is not None:
            return version
    return None


#: local names of the message-information headers; a block with one of these
#: names in the detected version's namespace is consumed, never echoed
_MESSAGE_INFORMATION = frozenset(
    ("To", "Action", "MessageID", "RelatesTo", "ReplyTo", "FaultTo", "From")
)


def _stripped_text(block: Optional[XElem]) -> Optional[str]:
    return block.full_text().strip() if block is not None else None


def extract_headers(envelope: SoapEnvelope, version: Optional[WsaVersion] = None) -> MessageHeaders:
    """Recover addressing headers; auto-detects the version when not given.

    One pass over the header blocks: the first block of each
    message-information name wins, and every block outside that vocabulary
    (other namespaces, other WS-Addressing versions) is echoed in order.
    """
    if version is None:
        version = detect_wsa_version(envelope)
        if version is None:
            raise ValueError("envelope carries no WS-Addressing headers")
    namespace = version.namespace
    found: dict[str, XElem] = {}
    echoed: list[XElem] = []
    for block in envelope.headers:
        content = block.content
        name = content.name
        if name.namespace == namespace and name.local in _MESSAGE_INFORMATION:
            found.setdefault(name.local, content)
        else:
            echoed.append(content)
    headers = MessageHeaders(
        to=_stripped_text(found.get("To")) or "",
        action=_stripped_text(found.get("Action")) or "",
        message_id=_stripped_text(found.get("MessageID")),
        relates_to=_stripped_text(found.get("RelatesTo")),
        echoed=echoed,
    )
    reply_to = found.get("ReplyTo")
    if reply_to is not None:
        headers.reply_to = EndpointReference.from_element(reply_to, version)
    fault_to = found.get("FaultTo")
    if fault_to is not None:
        headers.fault_to = EndpointReference.from_element(fault_to, version)
    return headers
