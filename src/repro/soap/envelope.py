"""The SOAP envelope data model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.xmlkit.element import XElem
from repro.xmlkit.names import Namespaces, NamespaceVersion, QName


class SoapVersion(NamespaceVersion):
    """SOAP protocol version; carries its envelope namespace."""

    V11 = Namespaces.SOAP11
    V12 = Namespaces.SOAP12


@dataclass
class HeaderBlock:
    """One SOAP header block with its processing attributes."""

    content: XElem
    must_understand: bool = False
    #: SOAP 1.1 ``actor`` / SOAP 1.2 ``role`` URI (``None`` = ultimate receiver)
    actor: Optional[str] = None

    @property
    def name(self) -> QName:
        return self.content.name


@dataclass
class SoapEnvelope:
    """A SOAP message: header blocks plus body elements.

    The body holds zero or more payload elements (zero is legal for
    acknowledgement-style responses; WS-Eventing ``UnsubscribeResponse`` has
    an empty body in the 08/2004 version).
    """

    version: SoapVersion = SoapVersion.V11
    headers: list[HeaderBlock] = field(default_factory=list)
    body: list[XElem] = field(default_factory=list)

    # --- header access -----------------------------------------------------

    def add_header(
        self,
        content: XElem,
        *,
        must_understand: bool = False,
        actor: Optional[str] = None,
    ) -> "SoapEnvelope":
        self.headers.append(HeaderBlock(content, must_understand, actor))
        return self

    def header(self, name: QName) -> Optional[XElem]:
        """First header block with the given qualified name."""
        for block in self.headers:
            if block.name == name:
                return block.content
        return None

    def header_text(self, name: QName) -> Optional[str]:
        block = self.header(name)
        return block.full_text().strip() if block is not None else None

    # --- body access ----------------------------------------------------------

    def add_body(self, content: XElem) -> "SoapEnvelope":
        self.body.append(content)
        return self

    def body_element(self) -> XElem:
        """The single body payload element; a Sender fault when there is not
        exactly one, so a handler answers a malformed request with a fault."""
        elements = [child for child in self.body if isinstance(child, XElem)]
        if len(elements) != 1:
            from repro.soap.fault import FaultCode, SoapFault  # fault.py imports this module

            raise SoapFault(
                FaultCode.SENDER, f"expected exactly one body element, found {len(elements)}"
            )
        return elements[0]

    def first_body(self) -> Optional[XElem]:
        for child in self.body:
            if isinstance(child, XElem):
                return child
        return None

    def is_fault(self) -> bool:
        first = self.first_body()
        return first is not None and first.name == self.version.qname("Fault")

    # --- misc -----------------------------------------------------------------

    def copy(self) -> "SoapEnvelope":
        return SoapEnvelope(
            self.version,
            [HeaderBlock(block.content.copy(), block.must_understand, block.actor) for block in self.headers],
            [element.copy() for element in self.body],
        )
