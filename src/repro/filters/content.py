"""XPath message-content filters.

This is WS-Eventing's default (and only defined) filter dialect and
WS-Notification 1.3's MessageContent filter.  Per both specs, the expression
is evaluated against the notification message and its result is coerced to a
boolean.
"""

from __future__ import annotations

from typing import Optional

from repro.filters.base import AndFilter, Filter, FilterContext, FilterError
from repro.filters.compilecache import compiled_xpath
from repro.xmlkit.names import Namespaces
from repro.xmlkit.xpath import XPath, XPathError


class MessageContentFilter(Filter):
    """A content-based filter: an XPath expression over the payload."""

    dialect = Namespaces.DIALECT_XPATH10

    def __init__(self, expression: str, namespaces: Optional[dict[str, str]] = None) -> None:
        try:
            #: shared by every filter with this predicate (see compilecache)
            self.xpath = compiled_xpath(expression, namespaces)
        except XPathError as exc:
            raise FilterError(f"invalid XPath filter {expression!r}: {exc}") from exc
        self.expression = expression

    def matches(self, context: FilterContext) -> bool:
        try:
            return self.xpath.matches(context.payload)
        except XPathError as exc:
            raise FilterError(f"filter evaluation failed: {exc}") from exc

    def describe(self) -> str:
        return f"xpath({self.expression})"


def content_expression_of(filter: Filter) -> Optional[XPath]:
    """The content constraint the subscription index can extract from a
    filter (the counterpart of ``topic_expression_of``): the compiled
    expression of its first MessageContent part, or ``None``."""
    parts = filter.parts if isinstance(filter, AndFilter) else (filter,)
    for part in parts:
        if isinstance(part, MessageContentFilter):
            return part.xpath
    return None
