"""Parse and serialize SOAP envelopes to/from wire XML."""

from __future__ import annotations

from repro.soap.envelope import HeaderBlock, SoapEnvelope, SoapVersion
from repro.xmlkit.element import XElem
from repro.xmlkit.parser import XmlParseError, parse_xml
from repro.xmlkit.writer import serialize_xml


class SoapCodecError(ValueError):
    """The payload is XML but not a well-formed SOAP envelope."""


def envelope_root(envelope: SoapEnvelope) -> XElem:
    """Build the wire tree for an envelope (the envelope byte-template cache
    serializes this same tree, so template output stays byte-identical to
    :func:`serialize_envelope`)."""
    version = envelope.version
    root = XElem(version.qname("Envelope"))
    if envelope.headers:
        header = XElem(version.qname("Header"))
        for block in envelope.headers:
            content = block.content.copy()
            if block.must_understand:
                content.attrs[version.qname("mustUnderstand")] = (
                    "1" if version is SoapVersion.V11 else "true"
                )
            if block.actor is not None:
                attr = "actor" if version is SoapVersion.V11 else "role"
                content.attrs[version.qname(attr)] = block.actor
            header.append(content)
        root.append(header)
    body = XElem(version.qname("Body"))
    for payload in envelope.body:
        body.append(payload)
    root.append(body)
    return root


def serialize_envelope(envelope: SoapEnvelope, *, indent: bool = False) -> str:
    """Render an envelope to XML text."""
    return serialize_xml(envelope_root(envelope), xml_declaration=True, indent=indent)


#: envelope namespace -> its version and names (Header, Body, mustUnderstand, actor/role)
_READING = {
    version.namespace: (version, *map(version.qname, (
        "Header", "Body", "mustUnderstand", "actor" if version is SoapVersion.V11 else "role"
    )))
    for version in SoapVersion
}


def parse_envelope(text: str | bytes) -> SoapEnvelope:
    """Parse wire XML into a :class:`SoapEnvelope`, one scan of the root's children."""
    try:
        root = parse_xml(text)
    except XmlParseError as exc:
        raise SoapCodecError(str(exc)) from exc
    if root.name.local != "Envelope":
        raise SoapCodecError(f"root element is <{root.name}>, not a SOAP Envelope")
    reading = _READING.get(root.name.namespace)
    if reading is None:
        raise SoapCodecError(f"not a SoapVersion namespace: {root.name.namespace!r}")
    version, header_name, body_name, mu_attr, actor_attr = reading
    first: dict = {}  # the first child of each name
    for child in root.children:
        if isinstance(child, XElem):
            first.setdefault(child.name, child)
    header, body = first.get(header_name), first.get(body_name)
    if body is None:
        raise SoapCodecError("envelope has no Body")
    envelope = SoapEnvelope(version)
    for content in header.children if header is not None else ():
        if isinstance(content, XElem):
            attrs = content.attrs
            envelope.headers.append(HeaderBlock(
                content, attrs.pop(mu_attr, "") in ("1", "true"), attrs.pop(actor_attr, None)
            ))
    envelope.body.extend([child for child in body.children if isinstance(child, XElem)])
    return envelope


def envelope_bytes(envelope: SoapEnvelope) -> bytes:
    """UTF-8 wire bytes; the transport layer accounts message sizes with this."""
    return serialize_envelope(envelope).encode("utf-8")
