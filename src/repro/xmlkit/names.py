"""Qualified names and the namespace URIs of every specification in the paper.

The comparative study hinges on *version* differences: WS-Eventing 01/2004 vs
08/2004, WS-BaseNotification 1.0/1.2 vs 1.3, and the three WS-Addressing
releases they bind to (2003/03, 2004/08, 2005/08).  Each version has its own
namespace URI, and several of the paper's "message format difference"
categories (section V.4) are literally namespace differences, so the URIs are
first-class constants here.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional, TypeVar


class QName(NamedTuple):
    """An XML qualified name: a ``(namespace URI, local part)`` pair.

    ``namespace`` is ``""`` for names in no namespace.  QNames are hashable
    and compare by value, which lets element/attribute lookup be exact even
    when two specifications use the same local name in different namespaces
    (e.g. ``Subscribe`` exists in both WS-Eventing and WS-BaseNotification).

    A named tuple rather than a dataclass: a received envelope is a few
    dozen names to build, hash and compare, and a tuple does all three in C.
    """

    namespace: str
    local: str

    def __str__(self) -> str:  # Clark notation, convenient in errors/tests
        if self.namespace:
            return "{%s}%s" % (self.namespace, self.local)
        return self.local

    @classmethod
    def from_clark(cls, text: str) -> "QName":
        """Parse ``{uri}local`` Clark notation (or a bare local name)."""
        if text.startswith("{"):
            uri, _, local = text[1:].partition("}")
            if not local:
                raise ValueError(f"malformed Clark name: {text!r}")
            return cls(uri, local)
        return cls("", text)


class Namespaces:
    """Namespace URIs for every specification exercised by the reproduction."""

    # --- XML / SOAP ------------------------------------------------------
    XML = "http://www.w3.org/XML/1998/namespace"
    XMLNS = "http://www.w3.org/2000/xmlns/"
    XSD = "http://www.w3.org/2001/XMLSchema"
    XSI = "http://www.w3.org/2001/XMLSchema-instance"
    SOAP11 = "http://schemas.xmlsoap.org/soap/envelope/"
    SOAP12 = "http://www.w3.org/2003/05/soap-envelope"

    # --- WS-Addressing: the three versions the two spec families bind to --
    WSA_2003_03 = "http://schemas.xmlsoap.org/ws/2003/03/addressing"
    WSA_2004_08 = "http://schemas.xmlsoap.org/ws/2004/08/addressing"
    WSA_2005_08 = "http://www.w3.org/2005/08/addressing"

    # --- WS-Eventing: the two released versions ---------------------------
    WSE_2004_01 = "http://schemas.xmlsoap.org/ws/2004/01/eventing"
    WSE_2004_08 = "http://schemas.xmlsoap.org/ws/2004/08/eventing"

    # --- WS-Notification family -------------------------------------------
    # 1.0 (03/2004, initial refactor), 1.2 (OASIS submission), 1.3 (PRD2).
    WSNT_10 = "http://www.ibm.com/xmlns/stdwip/web-services/WS-BaseNotification"
    WSNT_12 = "http://docs.oasis-open.org/wsn/2004/06/wsn-WS-BaseNotification-1.2-draft-01.xsd"
    WSNT_13 = "http://docs.oasis-open.org/wsn/b-2"
    WSNT_BROKERED_13 = "http://docs.oasis-open.org/wsn/br-2"
    WSTOP_10 = "http://www.ibm.com/xmlns/stdwip/web-services/WS-Topics"
    WSTOP_13 = "http://docs.oasis-open.org/wsn/t-1"

    # --- WSRF (required by WSN <= 1.2, optional in 1.3) --------------------
    WSRF_RP = "http://docs.oasis-open.org/wsrf/rp-2"
    WSRF_RL = "http://docs.oasis-open.org/wsrf/rl-2"
    WSRF_BF = "http://docs.oasis-open.org/wsrf/bf-2"

    # --- filter dialects ----------------------------------------------------
    DIALECT_XPATH10 = "http://www.w3.org/TR/1999/REC-xpath-19991116"
    DIALECT_TOPIC_SIMPLE = "http://docs.oasis-open.org/wsn/t-1/TopicExpression/Simple"
    DIALECT_TOPIC_CONCRETE = "http://docs.oasis-open.org/wsn/t-1/TopicExpression/Concrete"
    DIALECT_TOPIC_FULL = "http://docs.oasis-open.org/wsn/t-1/TopicExpression/Full"

    #: conventional prefixes used by the serializer for readable messages
    PREFERRED_PREFIXES = {
        SOAP11: "s11",
        SOAP12: "s12",
        XSD: "xsd",
        XSI: "xsi",
        WSA_2003_03: "wsa03",
        WSA_2004_08: "wsa04",
        WSA_2005_08: "wsa",
        WSE_2004_01: "wse01",
        WSE_2004_08: "wse",
        WSNT_10: "wsnt10",
        WSNT_12: "wsnt12",
        WSNT_13: "wsnt",
        WSNT_BROKERED_13: "wsntbr",
        WSTOP_10: "wstop10",
        WSTOP_13: "wstop",
        WSRF_RP: "wsrf-rp",
        WSRF_RL: "wsrf-rl",
        WSRF_BF: "wsrf-bf",
    }


_V = TypeVar("_V", bound="NamespaceVersion")


class NamespaceVersion(Enum):
    """Base of the specification-version enums (SOAP, WS-Addressing,
    WS-Eventing, WS-Notification): a member's value is its namespace URI.

    ``qname`` keeps the names it has built per member.  Every caller passes
    a local name from the specification's own vocabulary, so each table is
    a few dozen entries and the wire path builds no name twice.
    """

    def __init__(self, namespace: str) -> None:
        self.namespace = namespace
        self._qnames: dict[str, QName] = {}

    def qname(self, local: str) -> QName:
        name = self._qnames.get(local)
        if name is None:
            name = self._qnames[local] = QName(self.namespace, local)
        return name

    @classmethod
    def find_namespace(cls: type[_V], uri: str) -> Optional[_V]:
        """The version whose namespace is ``uri``, or ``None``."""
        return cls._value2member_map_.get(uri)  # type: ignore[return-value]

    @classmethod
    def from_namespace(cls: type[_V], uri: str) -> _V:
        """Like :meth:`find_namespace` but raises ``ValueError`` when absent."""
        version = cls.find_namespace(uri)
        if version is None:
            raise ValueError(f"not a {cls.__name__} namespace: {uri!r}")
        return version


def qn(namespace: str, local: str) -> QName:
    """Shorthand constructor used pervasively by the message builders."""
    return QName(namespace, local)
