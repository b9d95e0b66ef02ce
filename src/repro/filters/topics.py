"""Hierarchical topic spaces and the WS-Topics expression dialects.

WS-Topics defines a forest of named topic trees.  A publisher tags each
notification with a *concrete* topic path (``root/child/leaf``); a subscriber
supplies a topic expression in one of three dialects:

- **Simple**: a single root topic name — matches that root topic only;
- **Concrete**: a full path — matches exactly that topic node;
- **Full**: paths with ``*`` (any one name at that level), ``//`` descendant
  wildcards (written ``//.`` for "this node and all its descendants" in the
  spec's syntax; we accept both ``//.`` and ``//``-separated forms) and
  ``|`` unions.

The paper notes topic-based filtering was *required* in WSN 1.0/1.2 and
became optional in 1.3 (Table 1), and that WS-Eventing has no topic notion
at all — a wrapped WSE message carries the topic in a SOAP *header* while
WSN carries it in the ``Notify`` body (message-format difference category 6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Hashable, Iterator, Optional

from repro.filters.base import AcceptAllFilter, AndFilter, Filter, FilterContext, FilterError
from repro.filters.compilecache import xpath_key
from repro.filters.content import MessageContentFilter
from repro.xmlkit.element import XElem
from repro.xmlkit.names import Namespaces
from repro.xmlkit.xpath import XPath, XPathError
from repro.xmlkit.xpath.engine import document_of


class TopicDialect(Enum):
    SIMPLE = Namespaces.DIALECT_TOPIC_SIMPLE
    CONCRETE = Namespaces.DIALECT_TOPIC_CONCRETE
    FULL = Namespaces.DIALECT_TOPIC_FULL

    @property
    def uri(self) -> str:
        return self.value

    @classmethod
    def from_uri(cls, uri: str) -> "TopicDialect":
        for dialect in cls:
            if dialect.value == uri:
                return dialect
        raise FilterError(f"unknown topic dialect: {uri!r}")


@dataclass(frozen=True)
class TopicPath:
    """A concrete topic path: non-empty tuple of topic names."""

    parts: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.parts or any(not p or "/" in p or "*" in p for p in self.parts):
            raise FilterError(f"invalid topic path: {self.parts!r}")

    @classmethod
    def parse(cls, text: str) -> "TopicPath":
        text = text.strip()
        if not text:
            raise FilterError("empty topic path")
        return cls(tuple(part for part in text.split("/") if part))

    @property
    def root(self) -> str:
        return self.parts[0]

    def __str__(self) -> str:
        return "/".join(self.parts)


@dataclass
class TopicNode:
    name: str
    children: dict[str, "TopicNode"] = field(default_factory=dict)
    #: spec's final attribute: a final topic admits no child topics
    final: bool = False

    def walk(self, prefix: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
        path = (*prefix, self.name)
        yield path
        for child in self.children.values():
            yield from child.walk(path)


class TopicNamespace:
    """A named topic space: a forest of topic trees.

    The namespace both *documents* the topics a producer supports (WSN
    producers advertise their topic set as a resource property) and
    *validates* published paths when ``fixed`` is set (the spec's
    fixed-topic-set marker).
    """

    def __init__(self, target_namespace: str = "", *, fixed: bool = False) -> None:
        self.target_namespace = target_namespace
        self.fixed = fixed
        self.roots: dict[str, TopicNode] = {}

    def add(self, path: str | TopicPath, *, final: bool = False) -> TopicPath:
        """Register a topic (and its ancestors)."""
        topic = TopicPath.parse(path) if isinstance(path, str) else path
        level = self.roots
        node: Optional[TopicNode] = None
        for part in topic.parts:
            if node is not None and node.final:
                raise FilterError(f"topic {node.name!r} is final; cannot add child {part!r}")
            node = level.setdefault(part, TopicNode(part))
            level = node.children
        assert node is not None
        node.final = final
        return topic

    def contains(self, path: str | TopicPath) -> bool:
        topic = TopicPath.parse(path) if isinstance(path, str) else path
        level = self.roots
        node: Optional[TopicNode] = None
        for part in topic.parts:
            node = level.get(part)
            if node is None:
                return False
            level = node.children
        return True

    def validate_publication(self, path: str | TopicPath) -> TopicPath:
        """Check a published topic; unknown topics are admitted (and grown)
        unless the namespace is fixed."""
        topic = TopicPath.parse(path) if isinstance(path, str) else path
        if self.contains(topic):
            return topic
        if self.fixed:
            raise FilterError(f"topic {topic} is not in the fixed topic set")
        return self.add(topic)

    def all_paths(self) -> list[str]:
        paths: list[str] = []
        for root in self.roots.values():
            paths.extend("/".join(p) for p in root.walk(()))
        return sorted(paths)


@dataclass(frozen=True)
class _Alternative:
    """One `|`-branch of a full topic expression, pre-split into segments."""

    segments: tuple[str, ...]  # each is a name, '*' or '' ('' marks a // gap)
    descendants_of_last: bool = False  # trailing //. : subtree included


class TopicExpression:
    """A compiled topic expression in one of the three dialects."""

    def __init__(self, text: str, dialect: TopicDialect = TopicDialect.CONCRETE) -> None:
        self.text = text.strip()
        self.dialect = dialect
        if not self.text:
            raise FilterError("empty topic expression")
        if dialect is TopicDialect.SIMPLE:
            if "/" in self.text or "*" in self.text or "|" in self.text:
                raise FilterError(
                    f"Simple dialect allows only a root topic name, got {self.text!r}"
                )
            self._alternatives = [_Alternative((self.text,))]
        elif dialect is TopicDialect.CONCRETE:
            if "*" in self.text or "|" in self.text:
                raise FilterError(
                    f"Concrete dialect allows no wildcards/unions, got {self.text!r}"
                )
            self._alternatives = [_Alternative(tuple(TopicPath.parse(self.text).parts))]
        else:
            self._alternatives = [
                self._compile_full(branch) for branch in self.text.split("|")
            ]

    @staticmethod
    def _compile_full(branch: str) -> _Alternative:
        branch = branch.strip()
        if not branch:
            raise FilterError("empty union branch in topic expression")
        descendants = False
        if branch.endswith("//.") or branch.endswith("//*"):
            descendants = True
            branch = branch[:-3].rstrip("/")
            if not branch:
                raise FilterError("'//.' needs a preceding path")
        segments: list[str] = []
        # '//' introduces a gap segment matching any number of levels
        for i, chunk in enumerate(branch.split("//")):
            if i > 0:
                segments.append("")
            for part in chunk.split("/"):
                if part:
                    segments.append(part)
        if not segments:
            raise FilterError(f"invalid topic expression branch: {branch!r}")
        return _Alternative(tuple(segments), descendants)

    # --- matching ----------------------------------------------------------

    def matches(self, path: str | TopicPath) -> bool:
        topic = TopicPath.parse(path) if isinstance(path, str) else path
        if self.dialect is TopicDialect.SIMPLE:
            # Simple expressions denote the root topic itself
            return len(topic.parts) == 1 and topic.parts[0] == self.text
        return any(self._match_alt(alt, topic.parts) for alt in self._alternatives)

    @staticmethod
    def _match_alt(alt: _Alternative, parts: tuple[str, ...]) -> bool:
        return _match_segments(alt.segments, parts, alt.descendants_of_last)

    @cached_property
    def roots(self) -> tuple:
        """The topic roots this expression pins, or ``(None,)`` when a branch
        opens with ``*`` or ``//`` — then no static root set bounds what it
        selects.  Computed once: compiled expressions are shared."""
        heads = {alternative.segments[0] for alternative in self._alternatives}
        return (None,) if heads & {"", "*"} else tuple(heads)

    @property
    def alternatives(self) -> list[_Alternative]:
        """The compiled ``|``-branches (read-only; the subscription index
        inserts each branch into its trie)."""
        return list(self._alternatives)

    def __str__(self) -> str:
        return self.text


def _match_segments(
    segments: tuple[str, ...], parts: tuple[str, ...], descendants: bool
) -> bool:
    """Match wildcard segments against a concrete path (recursive descent)."""
    if not segments:
        return not parts or descendants
    head, rest = segments[0], segments[1:]
    if head == "":  # '//' gap: skip zero or more levels
        return any(
            _match_segments(rest, parts[skip:], descendants)
            for skip in range(len(parts) + 1)
        )
    if not parts:
        return False
    if head != "*" and head != parts[0]:
        return False
    if not rest:
        return len(parts) == 1 or descendants
    return _match_segments(rest, parts[1:], descendants)


#: the ``undecided`` of a lookup whose every content expression evaluated
_NONE: frozenset[str] = frozenset()


class _IndexNode:
    """One trie level of a :class:`TopicSubscriptionIndex`.

    Children are keyed by expression segment: a literal topic name, ``'*'``
    (any one name) or ``''`` (a ``//`` gap matching any number of levels) —
    the same alphabet :func:`_match_segments` walks.  ``exact`` and
    ``subtree`` hold the subscriptions whose expression *ends* here, without
    and with a trailing ``//.`` (descendants too); a key is in one of them.
    They are key-only dicts: smaller than sets, and a set takes their keys
    in one ``update``.
    """

    __slots__ = ("children", "exact", "subtree")

    def __init__(self) -> None:
        self.children: dict[str, _IndexNode] = {}
        self.exact: dict[str, None] = {}
        self.subtree: dict[str, None] = {}


class _Group:
    """The content buckets one evaluation per payload decides: the
    expressions ``P[Q = 'lit']`` sharing the probe ``P/Q`` (see
    :attr:`XPath.equality`; keyed like ``compiled_xpath``), a bucket per
    literal the probe's string-values admit; any other expression alone,
    its bucket under ``True``."""

    __slots__ = ("probe", "by_literal", "buckets", "always")

    def __init__(self, content: XPath) -> None:
        equality = content.equality
        self.by_literal = equality is not None
        self.probe = XPath(equality[0], content.namespaces) if equality else content
        self.buckets: dict[str | bool, set[str]] = {}
        self.always = 0  # how many of its keys are always-candidates


@lru_cache(maxsize=4096)  # compiled expressions are shared: one slot each
def _slot(content: XPath) -> tuple[Hashable, str | bool]:
    """A content expression's group key and bucket: its probe's and literal, or itself and True."""
    probe, value = content.equality or (None, True)
    return (content if probe is None else xpath_key(probe, content.namespaces)), value


class TopicSubscriptionIndex:
    """Topic-expression trie plus content buckets, mapping a publication to
    candidate keys.

    The fan-out fast path registers every subscription here: topic-filtered
    ones under their compiled expression branches, everything else (no topic
    constraint, or a filter the index cannot see through) in an always-
    candidate bucket; those with a MessageContent part also in a content
    group (see :class:`_Group`), the rest in the set of keys with no content
    constraint.  :meth:`candidates` then returns the subscriptions whose
    topic constraint admits the published path and whose content expression
    admits the payload — each group evaluated once however many keys and
    literals it holds — in subscription insertion order, so delivery order
    (and therefore wire bytes) is identical to a linear scan over the
    subscription table.  For a key added ``final`` (see
    :func:`index_decides`) the answer is the filter's: callers run the full
    filter only of the keys in :attr:`residual`, and of those in
    :attr:`undecided` (a group whose probe or expression raised on this
    payload, so each key's own filter reports the error).
    """

    def __init__(self) -> None:
        self._root = _IndexNode()
        self._seq: dict[str, int] = {}  # key -> insertion rank
        self._always: set[str] = set()
        self._terminals: dict[str, list[_IndexNode]] = {}
        self._counter = itertools.count()
        self._trie_entries = 0
        #: probe key or lone expression -> its group
        self._groups: dict[Hashable, _Group] = {}
        self._content_of: dict[str, XPath] = {}
        self._plain: set[str] = set()  # the keys with no content constraint
        #: topic root -> how many keys pin it, under ``None`` the keys that
        #: may match below any root (see :attr:`TopicExpression.roots`)
        self.root_refs: dict[Optional[str], int] = {}
        self._roots_of: dict[str, tuple] = {}
        #: content groups the latest ``candidates`` call evaluated, one probe
        #: or lone expression each (the fan-out reports it as ``fanout.xpath_evals``)
        self.content_evals = 0
        #: the keys whose filter holds more than the index represents
        self.residual: set[str] = set()
        #: keys the latest ``candidates`` call admitted without deciding
        self.undecided: frozenset[str] = _NONE

    def add(
        self,
        key: str,
        expression: Optional[TopicExpression],
        content: Optional[XPath] = None,
        final: bool = False,
    ) -> None:
        """Register ``key``; ``expression=None`` means always-candidate on
        the topic side, ``content=None`` no content constraint, ``final``
        that the two are the key's whole filter."""
        if key in self._seq:
            self.discard(key)
        self._seq[key] = next(self._counter)
        if not final:
            self.residual.add(key)
        refs = self.root_refs
        self._roots_of[key] = roots = (None,) if expression is None else expression.roots
        for root in roots:
            refs[root] = refs.get(root, 0) + 1
        if content is None:
            self._plain.add(key)
        else:
            group_key, value = _slot(content)
            group = self._groups.get(group_key)
            if group is None:
                group = self._groups[group_key] = _Group(content)
            group.buckets.setdefault(value, set()).add(key)
            if expression is None:
                group.always += 1
            self._content_of[key] = content
        if expression is None:
            self._always.add(key)
            return
        terminals: list[_IndexNode] = []
        for alt in expression.alternatives:
            node = self._root
            for segment in alt.segments:
                node = node.children.setdefault(segment, _IndexNode())
            # two branches ending on one node: descendants is the superset
            if alt.descendants_of_last or key in node.subtree:
                node.exact.pop(key, None)
                node.subtree[key] = None
            else:
                node.exact[key] = None
            terminals.append(node)
            self._trie_entries += 1
        self._terminals[key] = terminals

    def discard(self, key: str) -> None:
        if self._seq.pop(key, None) is None:
            return
        refs = self.root_refs
        for root in self._roots_of.pop(key):
            if refs[root] == 1:
                del refs[root]
            else:
                refs[root] -= 1
        always = key in self._always
        self._always.discard(key)
        self._plain.discard(key)
        self.residual.discard(key)
        for node in self._terminals.pop(key, ()):
            node.exact.pop(key, None)
            node.subtree.pop(key, None)
            self._trie_entries -= 1
        content = self._content_of.pop(key, None)
        if content is not None:
            group_key, value = _slot(content)
            group = self._groups[group_key]
            buckets = group.buckets
            buckets[value].discard(key)
            group.always -= always  # a bool: one less always-candidate, or none
            if not buckets[value]:
                del buckets[value]
                if not buckets:
                    del self._groups[group_key]

    def candidates(
        self, topic: Optional[str | TopicPath], payload: Optional[XElem] = None
    ) -> list[str]:
        """Keys whose topic constraint admits ``topic`` and, given the
        ``payload``, whose content expression admits it (insertion order).

        Each probe, and each lone expression with a topic-live key, is
        evaluated once, through the payload's one XPath document; the result
        is assembled from the buckets that admit and the keys with no content
        constraint, so nothing is copied or pruned per rejected bucket."""
        found = self._trie_candidates(topic)
        always = self._always
        self.content_evals = 0
        self.undecided = _NONE
        if payload is None:  # content unasked: every content key is undecided
            self.undecided = frozenset(self._content_of)
            found |= always
            return sorted(found, key=self._seq.__getitem__)
        admitted: list[str] = []
        if self._groups:  # else no XPath tree is built for this payload
            document = document_of(payload)
            evals = 0
            for group_key, group in self._groups.items():
                buckets = group.buckets
                # a probe skips the topic check, a look into every literal's bucket
                if not (group.by_literal or group.always) and found.isdisjoint(buckets[True]):
                    continue  # the topic side already ruled the lone bucket out
                evals += 1
                try:
                    values = (document.strings(group_key, group.probe) if group.by_literal
                              else (document.verdict(group.probe),))
                except XPathError:
                    # undecided: each subscription's own filter reports it
                    live = [key for bucket in buckets.values() for key in bucket
                            if key in always or key in found]
                    self.undecided = self.undecided.union(live)
                    admitted += live
                    continue
                for value in values:
                    bucket = buckets.get(value)
                    if bucket is not None:
                        admitted += [key for key in bucket if key in always or key in found]
            self.content_evals = evals
        plain = self._plain
        if plain:
            admitted += plain & always
            admitted += plain & found
        return sorted(admitted, key=self._seq.__getitem__)

    def topic_candidates(self, topic: Optional[str | TopicPath]) -> set[str]:
        """Keys whose topic constraint admits ``topic``, in no order; content
        is not consulted and ``content_evals`` is left as it was."""
        found = self._trie_candidates(topic)
        found |= self._always
        return found

    def _trie_candidates(self, topic: Optional[str | TopicPath]) -> set[str]:
        """The keys with a topic expression that admits ``topic``."""
        found: set[str] = set()
        if topic is not None and self._trie_entries:
            path = TopicPath.parse(topic) if isinstance(topic, str) else topic
            self._collect(self._root, path.parts, found)
        return found

    def _collect(
        self, node: _IndexNode, parts: tuple[str, ...], found: set[str]
    ) -> None:
        # terminal test mirrors _match_segments: consumed path, or descendants
        if not parts:
            found.update(node.exact)
        found.update(node.subtree)
        gap = node.children.get("")
        if gap is not None:  # '//': skip zero or more levels
            for skip in range(len(parts) + 1):
                self._collect(gap, parts[skip:], found)
        if parts:
            literal = node.children.get(parts[0])
            if literal is not None:
                self._collect(literal, parts[1:], found)
            star = node.children.get("*")
            if star is not None:
                self._collect(star, parts[1:], found)

    @property
    def topical(self) -> bool:
        """Whether any key is registered under a topic expression: only then
        does a candidate lookup read the published topic's path."""
        return self._trie_entries > 0

    def __len__(self) -> int:
        return len(self._seq)

    def __contains__(self, key: str) -> bool:
        return key in self._seq


def topic_expression_of(filter: Filter) -> Optional[TopicExpression]:
    """The topic constraint the index can extract from a subscription filter.

    ``None`` means the filter has no (visible) topic constraint, so the
    subscription must be a candidate for every publication.  An ``AndFilter``
    is constrained by its first topic part (the remaining parts still run as
    the residual filter on the candidate set).
    """
    if isinstance(filter, TopicFilter):
        return filter.expression
    if isinstance(filter, AndFilter):
        for part in filter.parts:
            if isinstance(part, TopicFilter):
                return part.expression
    return None


def expression_roots(expression: Optional[TopicExpression]) -> Optional[set[str]]:
    """The topic roots ``expression`` pins, or ``None`` when it may match
    below any root (no expression at all, or see :attr:`TopicExpression.roots`)."""
    if expression is None or expression.roots == (None,):
        return None
    return set(expression.roots)


#: compiled topic expressions are immutable after __init__ — identical
#: (text, dialect) pairs across subscriptions share one instance (the cache
#: lives here, not in compilecache, to avoid a circular import; stats and
#: capacity policy are compilecache's)
_topic_expression_cache = None  # populated lazily below


def compiled_topic_expression(text: str, dialect_uri: str) -> TopicExpression:
    """The shared compiled form of a topic expression."""
    global _topic_expression_cache
    if _topic_expression_cache is None:
        from repro.filters.compilecache import LRUCache

        _topic_expression_cache = LRUCache()
    return _topic_expression_cache.get_or_build(
        (text, dialect_uri),
        lambda: TopicExpression(text, TopicDialect.from_uri(dialect_uri)),
    )


class TopicFilter(Filter):
    """A subscription filter selecting by topic expression."""

    def __init__(self, expression: TopicExpression) -> None:
        self.expression = expression
        self.dialect = expression.dialect.uri

    @classmethod
    def parse(cls, text: str, dialect_uri: str) -> "TopicFilter":
        return cls(compiled_topic_expression(text, dialect_uri))

    def matches(self, context: FilterContext) -> bool:
        if context.topic is None:
            return False
        return self.expression.matches(context.topic_path)

    def describe(self) -> str:
        return f"topic({self.expression})"


#: the filter kinds the index represents whole (see :func:`index_decides`)
_INDEXED = (AcceptAllFilter, TopicFilter, MessageContentFilter)


def index_decides(filter: Filter) -> bool:
    """Whether the index's admission is all of ``filter``: accept-all, one
    topic part, one content part, or the AND of one of each.  Anything more
    (a ProducerProperties part, a second topic or content part) stays
    residual: the fan-out runs that key's full filter on every candidacy."""
    if type(filter) is not AndFilter:
        return type(filter) in _INDEXED
    kinds = [type(part) for part in filter.parts]
    return len(set(kinds)) == len(kinds) and all(kind in _INDEXED for kind in kinds)
