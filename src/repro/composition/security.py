"""WS-Security-style message signing, composed onto any endpoint.

A signature header (HMAC-SHA256 over the serialized body, keyed by a shared
secret) rides in the SOAP header with ``mustUnderstand``; receivers wrapped
by :func:`secure_endpoint` reject missing or invalid signatures with a
version-correct SOAP fault.  The WSE/WSN message bodies are untouched —
security is composed *around* the notification specifications, which is the
whole point of the paper's observation (4).
"""

from __future__ import annotations

import hashlib
import hmac

from repro.soap.envelope import SoapEnvelope
from repro.soap.fault import FaultCode, SoapFault
from repro.transport.endpoint import ActionHandler, SoapEndpoint
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import QName
from repro.xmlkit.writer import serialize_xml

#: WS-Security 2004 namespace (wsse)
WSSE_NS = (
    "http://docs.oasis-open.org/wss/2004/01/oasis-200401-wss-wssecurity-secext-1.0.xsd"
)
SECURITY_HEADER = QName(WSSE_NS, "Security")
_SIGNATURE = QName(WSSE_NS, "SignatureValue")
_KEY_ID = QName(WSSE_NS, "KeyIdentifier")


class SecurityFault(SoapFault):
    def __init__(self, reason: str) -> None:
        super().__init__(
            FaultCode.SENDER, reason, subcode=QName(WSSE_NS, "FailedAuthentication")
        )


def _body_digest(envelope: SoapEnvelope, key: bytes) -> str:
    material = "".join(serialize_xml(element) for element in envelope.body)
    return hmac.new(key, material.encode("utf-8"), hashlib.sha256).hexdigest()


def sign_envelope(envelope: SoapEnvelope, key: bytes) -> SoapEnvelope:
    """Attach a Security header signing the current body (mutates & returns)."""
    header = XElem(SECURITY_HEADER)
    header.append(text_element(_KEY_ID, "shared"))
    header.append(text_element(_SIGNATURE, _body_digest(envelope, key)))
    envelope.add_header(header, must_understand=True)
    return envelope


def verify_envelope(envelope: SoapEnvelope, key: bytes) -> bool:
    """True iff a Security header is present and its signature matches."""
    header = envelope.header(SECURITY_HEADER)
    if header is None:
        return False
    signature_elem = header.find(_SIGNATURE)
    if signature_elem is None:
        return False
    expected = _body_digest(envelope, key)
    return hmac.compare_digest(signature_elem.full_text().strip(), expected)


def secure_endpoint(endpoint: SoapEndpoint, key: bytes) -> None:
    """Harden an existing endpoint: every registered handler (and the
    fallback) now requires a valid signature.  The wrapped specs are not
    modified in any way — pure composition."""

    def wrap(handler: ActionHandler) -> ActionHandler:
        def secured(envelope, headers):
            if not verify_envelope(envelope, key):
                raise SecurityFault("missing or invalid message signature")
            return handler(envelope, headers)

        return secured

    endpoint._handlers = {action: wrap(h) for action, h in endpoint._handlers.items()}
    if endpoint._fallback is not None:
        endpoint._fallback = wrap(endpoint._fallback)
