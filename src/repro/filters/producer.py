"""WSN ProducerProperties filters.

WS-Notification's third filter type selects on properties of the *producer*
rather than the message: the expression (XPath dialect) is evaluated over the
producer's resource-properties document.  The paper points out WS-Eventing
has no equivalent ("WS-Eventing does not specify a way to filter messages
using the ProducerProperties of publishers").
"""

from __future__ import annotations

from typing import Optional

from repro.filters.base import Filter, FilterContext, FilterError
from repro.filters.compilecache import compiled_xpath
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import Namespaces, QName
from repro.xmlkit.xpath import XPathError

_DOC_ROOT = QName(Namespaces.WSRF_RP, "ProducerProperties")


def properties_document(properties: dict[str, str]) -> XElem:
    """Render a producer's property map as the document filters see.

    Property names become (namespace-less) element names so filter
    expressions can say ``boolean(/*/priority > 3)`` or ``/*/cluster='A'``.
    """
    document = XElem(_DOC_ROOT)
    for name, value in sorted(properties.items()):
        document.append(text_element(QName("", name), value))
    return document


class ProducerPropertiesFilter(Filter):
    """Filter over the producer's properties, XPath 1.0 dialect."""

    dialect = Namespaces.DIALECT_XPATH10

    def __init__(self, expression: str, namespaces: Optional[dict[str, str]] = None) -> None:
        try:
            self._xpath = compiled_xpath(expression, namespaces)
        except XPathError as exc:
            raise FilterError(f"invalid producer-properties filter {expression!r}: {exc}") from exc
        self.expression = expression

    def matches(self, context: FilterContext) -> bool:
        document = context.producer_document
        if document is None:
            document = properties_document(context.producer_properties)
        try:
            return self._xpath.matches(document)
        except XPathError as exc:
            raise FilterError(f"filter evaluation failed: {exc}") from exc

    def describe(self) -> str:
        return f"producer-properties({self.expression})"
