"""XML infoset substrate for the WS-* event notification stack.

This package provides everything the SOAP/WS-Addressing/WS-Eventing/
WS-Notification layers need from XML, so that the reproduction does not
depend on any third-party web-services tooling.  The element tree, the
serializer and the XPath engine are written here; tokenizing is left to
expat (the stdlib ``pyexpat`` binding), whose callbacks build the tree:

- :mod:`repro.xmlkit.names` -- qualified names and the namespace URIs used by
  every specification in the paper (all three WS-Addressing versions, both
  WS-Eventing versions, the WS-Notification family, WSRF, SOAP 1.1/1.2), and
  the base class of the specification-version enums.
- :mod:`repro.xmlkit.element` -- a small, explicit element tree (``XElem``).
- :mod:`repro.xmlkit.parser` / :mod:`repro.xmlkit.writer` -- parse (expat,
  one pass, bounded nesting, no DOCTYPE) and serialize with deterministic
  namespace-prefix management.
- :mod:`repro.xmlkit.xpath` -- an XPath 1.0 subset engine (a lexer and a
  parser that builds each expression's closures as it parses) used as the
  content-based filter dialect in both WS-Eventing and WS-Notification 1.3.
"""

from repro.xmlkit.names import QName, Namespaces
from repro.xmlkit.element import FrozenElementError, XElem
from repro.xmlkit.parser import parse_xml, XmlParseError
from repro.xmlkit.writer import XmlCharacterError, serialize_xml
from repro.xmlkit.xpath import XPath, XPathError

__all__ = [
    "QName",
    "Namespaces",
    "FrozenElementError",
    "XElem",
    "XmlCharacterError",
    "parse_xml",
    "XmlParseError",
    "serialize_xml",
    "XPath",
    "XPathError",
]
