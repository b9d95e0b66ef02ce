"""Node wrappers giving :class:`XElem` trees the XPath data model.

XPath needs parent pointers, document order, and distinct node kinds for
attributes and text; ``XElem`` keeps none of these (it is a pure message
payload structure).  The evaluator therefore wraps the tree once per
document into ``XNode`` objects carrying a document-order index.  Every node
answers ``children`` and ``attributes`` (empty where the kind has none), so
a compiled step reads an axis without asking what kind of node it is on.
"""

from __future__ import annotations

from typing import Optional

from repro.xmlkit.element import XElem
from repro.xmlkit.names import QName


class XNode:
    """Base wrapper: parent pointer plus a document-order index."""

    __slots__ = ("parent", "order")

    children: list["XNode"] | tuple = ()
    attributes: list["AttributeNode"] | tuple = ()

    def __init__(self, parent: Optional["XNode"], order: int) -> None:
        self.parent = parent
        self.order = order

    def string_value(self) -> str:
        raise NotImplementedError


class RootNode(XNode):
    """The document root (distinct from the document element)."""

    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__(None, 0)
        self.children: list[XNode] = []

    def string_value(self) -> str:
        return "".join(child.string_value() for child in self.children)


class ElementNode(XNode):
    __slots__ = ("elem", "name", "children", "attributes")

    def __init__(self, elem: XElem, parent: XNode, order: int) -> None:
        super().__init__(parent, order)
        self.elem = elem
        self.name: QName = elem.name
        self.children: list[XNode] = []
        self.attributes: list[AttributeNode] = []

    def string_value(self) -> str:
        children = self.elem.children
        if len(children) == 1 and type(children[0]) is str:
            return children[0]  # a leaf field, the common case
        return self.elem.full_text()


class AttributeNode(XNode):
    __slots__ = ("name", "value")

    def __init__(self, name: QName, value: str, parent: ElementNode, order: int) -> None:
        super().__init__(parent, order)
        self.name = name
        self.value = value

    def string_value(self) -> str:
        return self.value


class TextNode(XNode):
    __slots__ = ("value",)

    def __init__(self, value: str, parent: XNode, order: int) -> None:
        super().__init__(parent, order)
        self.value = value

    def string_value(self) -> str:
        return self.value


def build_tree(root_elem: XElem) -> RootNode:
    """Wrap an element tree, assigning document-order indices."""
    root = RootNode()
    counter = [1]
    root.children.append(_wrap(root_elem, root, counter))
    return root


def _wrap(elem: XElem, parent: XNode, counter: list[int]) -> ElementNode:
    node = ElementNode(elem, parent, counter[0])
    counter[0] += 1
    for attr_name, attr_value in elem.attrs.items():
        node.attributes.append(AttributeNode(attr_name, attr_value, node, counter[0]))
        counter[0] += 1
    for child in elem.children:
        if isinstance(child, str):
            node.children.append(TextNode(child, node, counter[0]))
            counter[0] += 1
        else:
            node.children.append(_wrap(child, node, counter))
    return node


def descendants(node: XNode) -> list[XNode]:
    """The descendants of ``node`` (elements and text) in document order."""
    found: list[XNode] = []
    pending = node.children[::-1]
    while pending:
        child = pending.pop()
        found.append(child)
        if child.children:
            pending += child.children[::-1]
    return found
