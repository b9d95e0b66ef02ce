"""A small explicit element tree.

``XElem`` is deliberately simpler than ``xml.etree.ElementTree``: children are
a single ordered list that mixes sub-elements and text chunks, names are
:class:`~repro.xmlkit.names.QName` values, and structural equality is defined
(whitespace-insensitively for text) so tests and the mediation layer can
compare whole SOAP messages directly.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Optional, Union

from repro.xmlkit.names import QName

Child = Union["XElem", str]


class FrozenElementError(TypeError):
    """Raised when a mutating operation reaches a frozen element."""


class XElem:
    """An XML element: qualified name, attributes, and ordered children.

    Children may be ``XElem`` instances or ``str`` text chunks.  Attribute
    keys are :class:`QName` (unprefixed attributes have an empty namespace).
    """

    __slots__ = ("name", "attrs", "children", "_frozen", "_fcache")

    def __init__(
        self,
        name: QName,
        attrs: Optional[dict[QName, str]] = None,
        children: Optional[Iterable[Child]] = None,
    ) -> None:
        if not isinstance(name, QName):
            raise TypeError(f"element name must be a QName, got {type(name).__name__}")
        self.name = name
        self._frozen = False
        self._fcache: Optional[list] = None  # writer's serialization cache slot
        self.attrs: dict[QName, str] = dict(attrs) if attrs else {}
        self.children: list[Child] = []
        if children:
            for child in children:
                self.append(child)

    # --- construction ----------------------------------------------------

    def append(self, child: Child) -> "XElem":
        """Append a sub-element or text chunk; returns ``self`` for chaining."""
        if self._frozen:
            raise FrozenElementError(f"element <{self.name}> is frozen")
        if not isinstance(child, (XElem, str)):
            raise TypeError(f"child must be XElem or str, got {type(child).__name__}")
        self.children.append(child)
        return self

    def extend(self, children: Iterable[Child]) -> "XElem":
        for child in children:
            self.append(child)
        return self

    def set(self, attr: QName, value: str) -> "XElem":
        if self._frozen:
            raise FrozenElementError(f"element <{self.name}> is frozen")
        self.attrs[attr] = value
        return self

    # --- immutability -----------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "XElem":
        """Recursively make this tree immutable; returns ``self``.

        A frozen payload can be shared across an entire notification fan-out
        (queues, batches, push closures) without per-subscriber deep copies:
        mutation raises :class:`FrozenElementError`, and :meth:`copy` hands
        back a fresh mutable tree for the paths that genuinely rewrite.
        Freezing also gives the serializer a stable place to cache the
        element's serialized form (see :mod:`repro.xmlkit.writer`).
        """
        if self._frozen:
            return self
        for child in self.children:
            if isinstance(child, XElem):
                child.freeze()
        self.children = tuple(self.children)  # type: ignore[assignment]
        self.attrs = MappingProxyType(self.attrs)  # type: ignore[assignment]
        self._frozen = True
        self._fcache = [None, None, None]
        return self

    # --- navigation --------------------------------------------------------

    def elements(self) -> Iterator["XElem"]:
        """Iterate direct sub-elements (skipping text chunks)."""
        for child in self.children:
            if isinstance(child, XElem):
                yield child

    def find(self, name: QName) -> Optional["XElem"]:
        """First direct sub-element with the given qualified name."""
        for child in self.children:
            if isinstance(child, XElem) and child.name == name:
                return child
        return None

    def find_all(self, name: QName) -> list["XElem"]:
        return [child for child in self.children if isinstance(child, XElem) and child.name == name]

    def require(self, name: QName) -> "XElem":
        """Like :meth:`find` but raises ``KeyError`` when absent."""
        found = self.find(name)
        if found is None:
            raise KeyError(f"<{self.name}> has no <{name}> child")
        return found

    def descendants(self) -> Iterator["XElem"]:
        """All sub-elements, depth-first, excluding ``self``."""
        for child in self.elements():
            yield child
            yield from child.descendants()

    # --- text ---------------------------------------------------------------

    def text(self) -> str:
        """Concatenated text of *direct* text children."""
        return "".join(child for child in self.children if isinstance(child, str))

    def full_text(self) -> str:
        """Concatenated text of the whole subtree (XPath string-value)."""
        if len(self.children) == 1 and isinstance(self.children[0], str):
            return self.children[0]  # a lone text child: an address, an action, a topic
        parts: list[str] = []
        self._collect_text(parts)
        return "".join(parts)

    def _collect_text(self, parts: list[str]) -> None:
        for child in self.children:
            if isinstance(child, str):
                parts.append(child)
            else:
                child._collect_text(parts)

    # --- comparison ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XElem):
            return NotImplemented
        return (
            self.name == other.name
            and self.attrs == other.attrs
            and _normalized_children(self) == _normalized_children(other)
        )

    def __hash__(self) -> int:  # identity hash: elements are mutable
        return id(self)

    def __repr__(self) -> str:
        return f"XElem({self.name}, attrs={len(self.attrs)}, children={len(self.children)})"

    def copy(self) -> "XElem":
        """Deep copy (always mutable, even when the source tree is frozen);
        the mediation layer rewrites copies, never originals."""
        dup = XElem(self.name, dict(self.attrs))
        for child in self.children:
            dup.append(child.copy() if isinstance(child, XElem) else child)
        return dup


def _normalized_children(elem: XElem) -> list[Child]:
    """Children with whitespace-only text dropped and adjacent text merged."""
    merged: list[Child] = []
    for child in elem.children:
        if isinstance(child, str):
            if not child.strip():
                continue
            if merged and isinstance(merged[-1], str):
                merged[-1] = merged[-1] + child
                continue
        merged.append(child)
    return merged


def element(name: QName, *children: Child, **text: str) -> XElem:
    """Terse element factory: ``element(qn, child1, "text")``."""
    elem = XElem(name)
    for child in children:
        elem.append(child)
    return elem


def text_element(name: QName, value: str) -> XElem:
    """An element whose only content is a text value."""
    return XElem(name, children=[value])
