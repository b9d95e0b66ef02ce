"""The XPath evaluator and the public :class:`XPath` compiled-expression API."""

from __future__ import annotations

import math
from typing import Optional

from repro.xmlkit.element import XElem
from repro.xmlkit.xpath import ast
from repro.xmlkit.xpath.errors import XPathEvaluationError
from repro.xmlkit.xpath.functions import Context
from repro.xmlkit.xpath.nodes import (
    AttributeNode,
    ElementNode,
    RootNode,
    TextNode,
    XNode,
    build_tree,
    descendants,
)
from repro.xmlkit.xpath.parser import parse_xpath
from repro.xmlkit.xpath.values import (
    NodeSet,
    XPathValue,
    compare,
    is_node_set,
    merge_node_sets,
    to_boolean,
    to_number,
)


class _FrozenDocument:
    """What XPath keeps about one frozen tree: its node tree, built once, and
    the boolean each compiled expression gave on it."""

    __slots__ = ("root", "tree", "verdicts")

    def __init__(self, root: XElem) -> None:
        self.root = root  # a strong reference: the identity test below is safe
        self.tree = build_tree(root)
        self.verdicts: dict[XPath, bool] = {}


#: the frozen trees evaluated most recently, newest first.  A fan-out walks
#: one frozen payload past every subscription, interleaved at most with the
#: producer's frozen properties document, so two is all that is ever live;
#: an unfrozen tree can change between calls and is never looked up here.
_recent_documents: list[_FrozenDocument] = []


def _document_of(root: XElem) -> _FrozenDocument:
    for document in _recent_documents:
        if document.root is root:
            return document
    document = _FrozenDocument(root)
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
        self._ast = parse_xpath(expression, self.namespaces)

    def __repr__(self) -> str:
        return f"XPath({self.expression!r})"

    def _value(self, tree: RootNode) -> XPathValue:
        """One evaluation over an already wrapped document."""
        return _evaluate(self._ast, Context(tree, 1, 1))

    def evaluate(self, root: XElem) -> XPathValue:
        """Evaluate against a document whose root element is ``root``.

        Returns the raw XPath value: a node-set is returned as a list of the
        underlying :class:`XElem`/attribute/text values.
        """
        value = self._value(_document_of(root).tree if root.frozen else build_tree(root))
        if is_node_set(value):
            return [_unwrap(node) for node in value]
        return value

    def matches(self, root: XElem) -> bool:
        """Boolean-coerced evaluation — the WS filter-dialect semantics.

        On a frozen ``root`` the answer is computed once and kept while that
        tree is among the most recently evaluated, so a fan-out pays for each
        distinct expression once however many subscriptions carry it.
        """
        if not root.frozen:
            return to_boolean(self._value(build_tree(root)))
        document = _document_of(root)
        verdict = document.verdicts.get(self)
        if verdict is None:
            verdict = document.verdicts[self] = to_boolean(self._value(document.tree))
        return verdict

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
    if isinstance(node, AttributeNode):
        return node.value
    if isinstance(node, TextNode):
        return node.value
    return node  # RootNode


# --- expression evaluation ---------------------------------------------------


def _evaluate(expr: ast.Expr, ctx: Context) -> XPathValue:
    if isinstance(expr, ast.NumberLit):
        return expr.value
    if isinstance(expr, ast.StringLit):
        return expr.value
    if isinstance(expr, ast.UnaryMinus):
        return -to_number(_evaluate(expr.operand, ctx))
    if isinstance(expr, ast.BinaryOp):
        return _evaluate_binary(expr, ctx)
    if isinstance(expr, ast.FunctionCall):
        return expr.fn(ctx, [_evaluate(arg, ctx) for arg in expr.args])
    if isinstance(expr, ast.LocationPath):
        return _evaluate_path(expr, ctx)
    if isinstance(expr, ast.FilterPath):
        return _evaluate_filter_path(expr, ctx)
    raise XPathEvaluationError(f"unhandled AST node {type(expr).__name__}")


def _evaluate_binary(expr: ast.BinaryOp, ctx: Context) -> XPathValue:
    op = expr.op
    if op == "or":
        return to_boolean(_evaluate(expr.left, ctx)) or to_boolean(_evaluate(expr.right, ctx))
    if op == "and":
        return to_boolean(_evaluate(expr.left, ctx)) and to_boolean(_evaluate(expr.right, ctx))
    left = _evaluate(expr.left, ctx)
    right = _evaluate(expr.right, ctx)
    if op in ("=", "!=", "<", "<=", ">", ">="):
        return compare(op, left, right)
    if op == "|":
        if not (is_node_set(left) and is_node_set(right)):
            raise XPathEvaluationError("'|' requires node-set operands")
        return merge_node_sets(left, right)
    a, b = to_number(left), to_number(right)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "div":
        if b == 0:
            if a == 0 or math.isnan(a):
                return math.nan
            return math.inf if a > 0 else -math.inf
        return a / b
    if op == "mod":
        if b == 0 or math.isnan(a) or math.isnan(b):
            return math.nan
        return math.fmod(a, b)
    raise XPathEvaluationError(f"unknown operator {op!r}")


def _evaluate_path(path: ast.LocationPath, ctx: Context) -> NodeSet:
    if path.absolute:
        node: XNode = ctx.node
        while node.parent is not None:
            node = node.parent
        current: NodeSet = [node]
    else:
        current = [ctx.node]
    return _apply_steps(path.steps, current)


def _evaluate_filter_path(expr: ast.FilterPath, ctx: Context) -> XPathValue:
    value = _evaluate(expr.primary, ctx)
    if expr.predicates or expr.steps:
        if not is_node_set(value):
            raise XPathEvaluationError("predicates/steps require a node-set")
        value = _filter_nodes(value, expr.predicates)
        value = _apply_steps(expr.steps, value)
    return value


def _apply_steps(steps: tuple[ast.Step, ...], current: NodeSet) -> NodeSet:
    for step in steps:
        gathered: list[XNode] = []
        seen: set[int] = set()
        for node in current:
            for candidate in _axis_nodes(step.axis, node):
                if _test_matches(step.test, step.axis, candidate):
                    if id(candidate) not in seen:
                        seen.add(id(candidate))
                        gathered.append(candidate)
        gathered.sort(key=lambda n: n.order)
        current = _filter_nodes(gathered, step.predicates)
    return current


def _filter_nodes(nodes: NodeSet, predicates: tuple[ast.Expr, ...]) -> NodeSet:
    for predicate in predicates:
        kept: list[XNode] = []
        size = len(nodes)
        for position, node in enumerate(nodes, start=1):
            value = _evaluate(predicate, Context(node, position, size))
            if isinstance(value, float):
                if value == position:  # positional predicate
                    kept.append(node)
            elif to_boolean(value):
                kept.append(node)
        nodes = kept
    return nodes


def _axis_nodes(axis: str, node: XNode):
    if axis == "child":
        return list(getattr(node, "children", ()))
    if axis == "attribute":
        return list(getattr(node, "attributes", ()))
    if axis == "self":
        return [node]
    if axis == "parent":
        return [node.parent] if node.parent is not None else []
    if axis == "descendant":
        return list(descendants(node))
    if axis == "descendant-or-self":
        return [node, *descendants(node)]
    raise XPathEvaluationError(f"unsupported axis {axis!r}")


def _test_matches(test: ast.NodeTest, axis: str, node: XNode) -> bool:
    if test.kind == "node":
        return True
    if test.kind == "text":
        return isinstance(node, TextNode)
    # name test: the principal node type is attribute on the attribute axis,
    # element everywhere else
    if not isinstance(node, AttributeNode if axis == "attribute" else ElementNode):
        return False
    if test.local == "*":
        return test.prefix is None or node.name.namespace == test.namespace
    return node.name.local == test.local and node.name.namespace == test.namespace
