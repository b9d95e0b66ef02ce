"""The public :class:`XPath` compiled-expression API.

``XPath(expression)`` parses the expression once, and the parser's grammar
rows build its Python closures as they go (:mod:`repro.xmlkit.xpath.parser`),
so an evaluation is one call of the expression's closure and never looks at
the text again.  Node trees are built once per frozen document
(:func:`document_of`), which also keeps each expression's verdict on it.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.xmlkit.element import XElem
from repro.xmlkit.xpath.errors import XPathEvaluationError
from repro.xmlkit.xpath.nodes import (
    AttributeNode,
    ElementNode,
    RootNode,
    TextNode,
    XNode,
    build_tree,
)
from repro.xmlkit.xpath.parser import parse_xpath
from repro.xmlkit.xpath.values import XPathValue, is_node_set, to_boolean


class Document:
    """What XPath keeps about one tree: its node tree, built once, and what
    each compiled expression (a boolean) or probe (string-values) gave on it."""

    __slots__ = ("root", "tree", "verdicts", "values")

    def __init__(self, root: XElem) -> None:
        self.root = root  # a strong reference: the identity test below is safe
        self.tree = build_tree(root)
        self.verdicts: dict[XPath, bool] = {}
        self.values: dict[Hashable, set[str]] = {}

    def verdict(self, xpath: "XPath") -> bool:
        """``xpath``'s boolean on this document, evaluated at most once."""
        verdict = self.verdicts.get(xpath)
        if verdict is None:
            verdict = self.verdicts[xpath] = to_boolean(xpath._value(self.tree))
        return verdict

    def strings(self, key: Hashable, probe: "XPath") -> set[str]:
        """The string-values of the nodes ``probe`` selects, evaluated once per ``key``."""
        values = self.values.get(key)
        if values is None:
            values = self.values[key] = {node.string_value() for node in probe._value(self.tree)}
        return values


#: the frozen trees evaluated most recently, newest first.  A fan-out walks
#: one frozen payload past every subscription, interleaved at most with the
#: producer's frozen properties document, so two is all that is ever live;
#: an unfrozen tree can change between calls and is never looked up here.
_recent_documents: list[Document] = []


def document_of(root: XElem) -> Document:
    """The document of ``root``: shared while a frozen tree is among the two
    most recently evaluated, private to the caller for an unfrozen one."""
    if not root.frozen:
        return Document(root)
    for document in _recent_documents:
        if document.root is root:
            return document
    document = Document(root)
    _recent_documents[:] = [document, *_recent_documents[:1]]
    return document


class XPath:
    """A compiled XPath expression.

    ``namespaces`` maps the prefixes used in the expression to namespace URIs
    (the way a WSE/WSN subscription message carries in-scope namespace
    bindings for its filter expression).  They are resolved here, so an
    undeclared prefix fails the compilation with :class:`XPathSyntaxError`.
    """

    def __init__(self, expression: str, namespaces: Optional[dict[str, str]] = None) -> None:
        self.expression = expression
        self.namespaces = dict(namespaces or {})
        parsed = parse_xpath(expression, self.namespaces)
        self._run = parsed.run
        #: ``(P/Q, 'lit')`` of ``P[Q = 'lit']``, see :class:`~.parser.Expr`
        self.equality = parsed.equality if parsed.nodes else None

    def __repr__(self) -> str:
        return f"XPath({self.expression!r})"

    def _value(self, tree: RootNode) -> XPathValue:
        """One evaluation over an already wrapped document."""
        return self._run(tree, 1, 1)

    def evaluate(self, root: XElem) -> XPathValue:
        """Evaluate against a document whose root element is ``root``.

        Returns the raw XPath value: a node-set is returned as a list of the
        underlying :class:`XElem`/attribute/text values.
        """
        value = self._value(document_of(root).tree)
        if is_node_set(value):
            return [_unwrap(node) for node in value]
        return value

    def matches(self, root: XElem) -> bool:
        """Boolean-coerced evaluation — the WS filter-dialect semantics.

        On a frozen ``root`` the answer is computed once and kept while that
        tree is among the most recently evaluated, so a fan-out pays for each
        distinct expression once however many subscriptions carry it.
        """
        return document_of(root).verdict(self)

    def select(self, root: XElem) -> list[XElem]:
        """Evaluate and keep only element nodes (common in tests/tools)."""
        value = self.evaluate(root)
        if not is_node_set(value):
            raise XPathEvaluationError(
                f"{self.expression!r} evaluated to a {type(value).__name__}, not a node-set"
            )
        return [item for item in value if isinstance(item, XElem)]


def _unwrap(node: XNode):
    if isinstance(node, ElementNode):
        return node.elem
    if isinstance(node, (AttributeNode, TextNode)):
        return node.value
    return node  # RootNode
