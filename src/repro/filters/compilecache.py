"""Compiled-filter cache: parse each distinct filter expression once.

At 100k subscribers the Subscribe storm dominated by re-parsing the same
handful of XPath expressions (and topic expressions) once per subscription.
Both compiled forms are immutable after construction — :class:`repro.xmlkit.
xpath.XPath` keeps only its closures and namespace map, evaluation state
lives in a per-call context or with the document — so identical expressions
can share one instance.

Keys capture everything that affects compilation and little else: for XPath
the expression text plus the bindings whose prefix occurs in it (the other
in-scope bindings differ from client to client and dialect to dialect, and
one shared instance per predicate is what lets a fan-out evaluate it once);
``(text, dialect URI)`` for topic expressions.  Failed compilations are
*not* cached — callers wrap them in dialect-specific
:class:`~repro.filters.base.FilterError` messages and a
bad expression is rejected at Subscribe time, never in the hot path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, TypeVar

from repro.xmlkit.xpath import XPath

T = TypeVar("T")


class FilterCompileStats:
    """Process-wide counters for the compiled-filter caches."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


#: module-level singleton (benchmarks snapshot/reset around measured runs)
FILTER_COMPILE_STATS = FilterCompileStats()


class LRUCache:
    """A small LRU memo used by every compiled-filter cache."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()

    def get_or_build(self, key: tuple, build: Callable[[], T]) -> T:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            FILTER_COMPILE_STATS.hits += 1
            return entry  # type: ignore[return-value]
        value = build()  # exceptions propagate uncached
        FILTER_COMPILE_STATS.misses += 1
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_xpath_cache = LRUCache()


def xpath_key(expression: str, namespaces: Optional[dict[str, str]] = None) -> tuple:
    """What identifies ``expression``'s compiled form under ``namespaces``."""
    # a prefix the expression uses occurs in its text, so every other binding
    # can be left out of the key (one that merely occurs is kept: harmless)
    used = sorted(item for item in (namespaces or {}).items() if item[0] in expression)
    return (expression, tuple(used))


def compiled_xpath(
    expression: str, namespaces: Optional[dict[str, str]] = None
) -> XPath:
    """The shared compiled form of ``expression`` under ``namespaces``."""
    key = xpath_key(expression, namespaces)
    return _xpath_cache.get_or_build(key, lambda: XPath(expression, namespaces))


def clear_caches() -> None:
    """Drop every compiled-filter cache (tests and benchmarks)."""
    from repro.filters import topics

    _xpath_cache.clear()
    if topics._topic_expression_cache is not None:
        topics._topic_expression_cache.clear()
