"""The common filter interface."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

from repro.xmlkit.element import XElem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.filters.topics import TopicPath


class FilterError(Exception):
    """A filter expression is invalid (bad dialect, bad syntax, ...)."""


@dataclass
class FilterContext:
    """Everything a WS filter may inspect about one notification.

    - ``payload``: the notification message content (an XML element);
    - ``topic``: the topic path string the producer published on, if any;
    - ``producer_properties``: resource properties of the producer, for
      WSN ProducerProperties filters;
    - ``producer_document``: the same properties as the frozen document the
      producer rebuilds only when they change (``None``: rendered on demand).
    """

    payload: XElem
    topic: Optional[str] = None
    producer_properties: dict[str, str] = field(default_factory=dict)
    producer_document: Optional[XElem] = None

    @cached_property
    def topic_path(self) -> "TopicPath":
        """``topic`` parsed once for every reader of this publication (the
        route seeds it when its topic space already parsed the topic); a
        topic that does not parse raises ``FilterError`` at every read."""
        from repro.filters.topics import TopicPath

        return TopicPath.parse(self.topic)


class Filter:
    """A predicate over notifications."""

    #: dialect URI, where the spec defines one
    dialect: str = ""

    def matches(self, context: FilterContext) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


def admits(filter: Filter, context: FilterContext, instr, family: str, subscription: str) -> bool:
    """``filter.matches(context)`` inside a fan-out: a filter that fails to
    evaluate on this message costs only its own subscription the message —
    a non-match, counted and put on the message's lineage, never raised."""
    try:
        return filter.matches(context)
    except FilterError as exc:
        instr.count("fanout.filter_errors", family=family, reason="evaluation")
        lineage = instr.trace_context()
        if lineage is not None:
            instr.lineage_event(
                lineage.lineage_id, "filter_error", subscription=subscription, error=str(exc)
            )
        return False


class AcceptAllFilter(Filter):
    """No filtering: the CORBA Event Service behaviour (every consumer gets
    every event on the channel) and the default when a subscription carries
    no filter element."""

    def matches(self, context: FilterContext) -> bool:
        return True

    def describe(self) -> str:
        return "accept-all"


class AndFilter(Filter):
    """Conjunction of filters.

    WS-Notification allows a subscription to combine TopicExpression,
    ProducerProperties and MessageContent filters — "a subscriber can use any
    or all of these filters" — with AND semantics.  WS-Eventing allows at
    most one filter, a difference Table 3 records.
    """

    def __init__(self, parts: Sequence[Filter]) -> None:
        self.parts = list(parts)

    def matches(self, context: FilterContext) -> bool:
        return all(part.matches(context) for part in self.parts)

    def describe(self) -> str:
        return " AND ".join(part.describe() for part in self.parts) or "accept-all"
