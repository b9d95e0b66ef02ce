"""Serialize :class:`XElem` trees to XML text.

Prefix management is deterministic: the well-known WS-* namespaces get their
conventional prefixes (``wsa``, ``wse``, ``wsnt``...), unknown namespaces get
``ns0``, ``ns1``... in first-use order.  Deterministic output matters for the
message-format comparison benchmarks, which diff serialized messages
byte-for-byte.

Frozen subtrees (:meth:`XElem.freeze`) additionally act as serialization
cache points: the first time a frozen element is written it remembers the
exact text it produced together with the prefix assignment it was produced
under, and every later write under the *same* prefix assignment splices that
text back in verbatim.  Because notification fan-out reuses one frozen
payload across every push, the body of a publication is serialized once and
re-used byte-identically for each subscriber.
"""

from __future__ import annotations

import re

from repro.xmlkit.element import XElem
from repro.xmlkit.names import Namespaces, QName

#: every character XML 1.0's ``Char`` production leaves out: the C0 controls
#: other than tab, LF and CR, the surrogate block, U+FFFE and U+FFFF
_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
#: the ASCII ones, each mapped to NUL (itself one): the escape pass maps
#: them, so one ``in`` test of its output finds them in an ASCII value, and
#: only a non-ASCII value is searched for the rest
_C0 = dict.fromkeys([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20)], "\x00")
# a single translate pass per text node (was: chained str.replace passes)
# \r must be a character reference: the XML line-end normalization pass turns
# a literal \r (or \r\n) into \n before the parser ever sees it
_TEXT_TRANSLATION = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
) | _C0
# attribute-value normalization additionally folds \t and \n to spaces, so
# all three must ride as character references to round-trip exactly
_ATTR_TRANSLATION = str.maketrans(
    {
        "&": "&amp;",
        "<": "&lt;",
        ">": "&gt;",
        '"': "&quot;",
        "\t": "&#9;",
        "\n": "&#10;",
        "\r": "&#13;",
    }
) | _C0


class XmlCharacterError(ValueError):
    """A tree holds a character XML 1.0 forbids: written out, no parser
    (ours included) would read it back, so the writer refuses it.  Every
    path to the log or the wire writes through here, so neither ever
    receives one."""


def _refuse_forbidden(value: str) -> None:
    """Raise :class:`XmlCharacterError` naming the first character of
    ``value`` that XML 1.0 forbids, if there is one."""
    found = _FORBIDDEN.search(value)
    if found is not None:
        raise XmlCharacterError(
            f"U+{ord(found.group()):04X} at offset {found.start()} of {value[:40]!r}"
            " is not an XML 1.0 character"
        )


#: local names found clean, so a name is checked once, not per write
#: (bounded: a caller may build any number of names)
_CLEAN_NAMES: set[str] = set()


def _admit_name(local: str) -> None:
    _refuse_forbidden(local)
    if len(_CLEAN_NAMES) >= 4096:
        _CLEAN_NAMES.clear()
    _CLEAN_NAMES.add(local)


def _escape_text(value: str) -> str:
    escaped = value.translate(_TEXT_TRANSLATION)
    if "\x00" in escaped or not value.isascii():
        _refuse_forbidden(value)
    return escaped


def _escape_attr(value: str) -> str:
    escaped = value.translate(_ATTR_TRANSLATION)
    if "\x00" in escaped or not value.isascii():
        _refuse_forbidden(value)
    return escaped


class WriterStats:
    """Serialization accounting for the fan-out benchmarks (single-threaded)."""

    __slots__ = ("frozen_serializations", "frozen_splices", "tree_serializations")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.frozen_serializations = 0
        self.frozen_splices = 0
        #: full top-level tree walks (:func:`serialize_xml` calls) — the
        #: envelope byte-template cache exists to drive this to zero on the
        #: steady-state fan-out path
        self.tree_serializations = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "frozen_serializations": self.frozen_serializations,
            "frozen_splices": self.frozen_splices,
            "tree_serializations": self.tree_serializations,
        }


WRITER_STATS = WriterStats()


class _PrefixAllocator:
    #: a sealed allocator (the one a framed head was compiled under, shared by
    #: every body spliced behind it) refuses a namespace it never declared
    sealed = False

    def __init__(self) -> None:
        self._by_uri: dict[str, str] = {}
        self._used: set[str] = set()
        self._counter = 0

    def prefix_for(self, uri: str) -> str:
        if uri in self._by_uri:
            return self._by_uri[uri]
        if self.sealed:
            raise LookupError(f"no prefix declared for namespace {uri!r}")
        preferred = Namespaces.PREFERRED_PREFIXES.get(uri)
        if preferred and preferred not in self._used:
            prefix = preferred
        else:
            prefix = f"ns{self._counter}"
            self._counter += 1
            while prefix in self._used:
                prefix = f"ns{self._counter}"
                self._counter += 1
        self._by_uri[uri] = prefix
        self._used.add(prefix)
        return prefix

    def declared(self) -> dict[str, str]:
        return dict(self._by_uri)


def serialize_xml(root: XElem, *, xml_declaration: bool = False, indent: bool = False) -> str:
    """Serialize a tree to a string.

    All namespace declarations are hoisted to the root element (a single
    two-pass walk), which keeps notification payload serialization compact
    and stable regardless of tree construction order.  A frozen root (a
    payload logged standalone) leaves its children's splice caches alone.
    """
    WRITER_STATS.tree_serializations += 1
    allocator = _PrefixAllocator()
    _collect_namespaces(root, allocator)
    parts: list[str] = []
    if xml_declaration:
        parts.append('<?xml version="1.0" encoding="utf-8"?>')
        if indent:
            parts.append("\n")
    level = 0 if indent else None
    _write(root, allocator, parts, declare_namespaces=True, indent=level, splice=root._fcache is None)
    return "".join(parts)


def serialize_with_allocator(root: XElem) -> tuple[str, _PrefixAllocator]:
    """Serialize like :func:`serialize_xml` (declaration, no indent) but also
    return the prefix allocator, so a caller can compile byte-templates whose
    splice slots must be rendered under the exact same prefix assignment."""
    WRITER_STATS.tree_serializations += 1
    allocator = _PrefixAllocator()
    _collect_namespaces(root, allocator)
    parts: list[str] = ['<?xml version="1.0" encoding="utf-8"?>']
    _write(root, allocator, parts, declare_namespaces=True, indent=None)
    return "".join(parts), allocator


def serialize_subtree(elem: XElem, allocator: _PrefixAllocator) -> str:
    """Serialize one subtree under an existing prefix assignment, without
    namespace declarations — the exact text :func:`serialize_xml` would embed
    for this subtree inside a document whose root declared ``allocator``'s
    prefixes."""
    parts: list[str] = []
    _write(elem, allocator, parts, declare_namespaces=False, indent=None)
    return "".join(parts)


def frozen_splice_text(elem: XElem, mapping: tuple[str, ...]) -> str:
    """The spliced text of a frozen subtree under a known prefix assignment.

    ``mapping`` pairs positionally with the subtree's frozen namespace order
    (:func:`frozen_namespace_order`).  This is the render-time half of the
    envelope byte-template cache: the template remembers the payload slot's
    prefix mapping once, and every later payload with the same namespace
    shape splices straight from (or refills) its own serialization cache.
    """
    state = elem._fcache
    if state is None:
        raise ValueError("frozen_splice_text requires a frozen element")
    if state[1] == mapping and state[2] is not None:
        WRITER_STATS.frozen_splices += 1
        return state[2]
    allocator = _PrefixAllocator()
    for uri, prefix in zip(_frozen_namespace_order(elem), mapping):
        allocator._by_uri[uri] = prefix
        allocator._used.add(prefix)
    sub: list[str] = []
    _write(elem, allocator, sub, declare_namespaces=False, indent=None, splice=False)
    text = "".join(sub)
    state[1] = mapping
    state[2] = text
    WRITER_STATS.frozen_serializations += 1
    return text


def frozen_namespace_order(elem: XElem) -> tuple[str, ...]:
    """Public accessor for a frozen subtree's memoized namespace order (the
    template cache keys notification shapes on it)."""
    return _frozen_namespace_order(elem)


def namespace_order(elem: XElem) -> tuple[str, ...]:
    """The same order for any subtree (a framed head is keyed on its body's)."""
    if elem._fcache is not None:
        return _frozen_namespace_order(elem)
    return tuple(_namespace_order(elem))


def _namespace_order(elem: XElem, order: dict[str, None] | None = None) -> dict[str, None]:
    """Namespaces of a subtree in first-use pre-order (a dict as an ordered
    set) — the exact order :func:`_collect_namespaces` would register them in.
    Plain recursion: a control envelope asks per message, and a recursive
    closure is a reference cycle per call for the collector to find."""
    if order is None:
        order = {}
    uri = elem.name.namespace
    if uri:
        order.setdefault(uri)
    for attr in elem.attrs:
        ns = attr.namespace
        if ns and ns not in (Namespaces.XMLNS, Namespaces.XML):
            order.setdefault(ns)
    for child in elem.children:
        if not isinstance(child, str):
            _namespace_order(child, order)
    return order


def _frozen_namespace_order(elem: XElem) -> tuple[str, ...]:
    state = elem._fcache
    assert state is not None
    if state[0] is None:
        state[0] = tuple(_namespace_order(elem))
    return state[0]


def _collect_namespaces(elem: XElem, allocator: _PrefixAllocator) -> None:
    if elem._fcache is not None:  # frozen: replay the memoized namespace order
        for uri in _frozen_namespace_order(elem):
            allocator.prefix_for(uri)
        return
    if elem.name.namespace:
        allocator.prefix_for(elem.name.namespace)
    for attr in elem.attrs:
        if attr.namespace and attr.namespace not in (Namespaces.XMLNS, Namespaces.XML):
            allocator.prefix_for(attr.namespace)
    for child in elem.elements():
        _collect_namespaces(child, allocator)


def _tag(name: QName, allocator: _PrefixAllocator) -> str:
    if name.local not in _CLEAN_NAMES:
        _admit_name(name.local)
    if not name.namespace:
        return name.local
    return f"{allocator.prefix_for(name.namespace)}:{name.local}"


def _write_frozen(elem: XElem, allocator: _PrefixAllocator, parts: list[str]) -> None:
    """Write a frozen subtree through its serialization cache.

    The cache is valid only for the prefix assignment it was filled under:
    the key is the tuple of prefixes the allocator maps this subtree's
    namespaces to.  A different assignment (a different envelope context)
    falls back to a normal serialization and re-primes the cache.
    """
    state = elem._fcache
    assert state is not None
    mapping = tuple(
        allocator.prefix_for(uri) for uri in _frozen_namespace_order(elem)
    )
    if state[1] == mapping and state[2] is not None:
        WRITER_STATS.frozen_splices += 1
        parts.append(state[2])
        return
    sub: list[str] = []
    _write(elem, allocator, sub, declare_namespaces=False, indent=None, splice=False)
    text = "".join(sub)
    state[1] = mapping
    state[2] = text
    WRITER_STATS.frozen_serializations += 1
    parts.append(text)


def _write(
    elem: XElem,
    allocator: _PrefixAllocator,
    parts: list[str],
    *,
    declare_namespaces: bool,
    indent: int | None,
    splice: bool = True,
) -> None:
    pad = "  " * indent if indent is not None else ""
    tag = _tag(elem.name, allocator)
    parts.append(f"{pad}<{tag}")
    if declare_namespaces:
        for uri, prefix in sorted(allocator.declared().items(), key=lambda kv: kv[1]):
            parts.append(f' xmlns:{prefix}="{_escape_attr(uri)}"')
    for attr, value in elem.attrs.items():
        if attr.local not in _CLEAN_NAMES:
            _admit_name(attr.local)
        if attr.namespace == Namespaces.XML:
            attr_tag = f"xml:{attr.local}"
        elif attr.namespace:
            attr_tag = f"{allocator.prefix_for(attr.namespace)}:{attr.local}"
        else:
            attr_tag = attr.local
        parts.append(f' {attr_tag}="{_escape_attr(value)}"')
    if not elem.children:
        parts.append("/>")
        if indent is not None:
            parts.append("\n")
        return
    parts.append(">")
    # indentation must not alter mixed content, so any text child disables it
    only_text = any(isinstance(child, str) for child in elem.children)
    if indent is not None and not only_text:
        parts.append("\n")
    child_indent = indent + 1 if indent is not None and not only_text else None
    for child in elem.children:
        if isinstance(child, str):
            parts.append(_escape_text(child))
        elif splice and child_indent is None and child._fcache is not None:
            # top-most frozen boundary: cached text or one serialization
            _write_frozen(child, allocator, parts)
        else:
            _write(
                child,
                allocator,
                parts,
                declare_namespaces=False,
                indent=child_indent,
                splice=splice,
            )
    if indent is not None and not only_text:
        parts.append(pad)
    parts.append(f"</{tag}>")
    if indent is not None:
        parts.append("\n")
