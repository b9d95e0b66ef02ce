"""The XPath compiler and the public :class:`XPath` compiled-expression API.

``XPath(expression)`` parses the expression once and turns its AST into
Python closures once: one closure per AST node, taking ``(node, position,
size)`` — the context node, its proximity position and the context size.
Literals, QNames, operators and library functions are bound when the closure
is made, so an evaluation never looks at the AST again.  Two shapes that the
filter dialects use on every publish are compiled specially:

- a step taken from a single context node (``/ev:Reading``, ``ev:host``
  inside a predicate) gathers that node's axis with one comprehension — no
  id-set and no sort, since one node's axis is already in document order;
- a node-set compared with a literal (``ev:host = 'h042'``) runs over the
  nodes and stops at the first that compares true.

The gathering closure of a step is shared by every expression taking that
step.  A step over several context nodes runs its predicates on what each
context node gathers, so a positional predicate counts per context node
(XPath 1.0 section 2.4), and then merges the survivors (document order, no
duplicates).  A predicate that gives a number is positional; any other value
is taken as a boolean.  Node trees are built once per frozen document
(:func:`document_of`), which also keeps each expression's verdict on it.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Optional

from repro.xmlkit.element import XElem
from repro.xmlkit.names import QName
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

#: a compiled expression: (context node, position, size) -> its value
Compiled = Callable[[XNode, int, int], XPathValue]
#: a compiled step taken from one context node: node -> node-set (it also
#: takes, and ignores, position and size: a relative one-step path is one)
FromNode = Callable[..., NodeSet]
#: a compiled step or filter over a node-set: node-set -> node-set
OverNodes = Callable[[NodeSet], NodeSet]


class Document:
    """What XPath keeps about one tree: its node tree, built once, and the
    boolean each compiled expression gave on it."""

    __slots__ = ("root", "tree", "verdicts")

    def __init__(self, root: XElem) -> None:
        self.root = root  # a strong reference: the identity test below is safe
        self.tree = build_tree(root)
        self.verdicts: dict[XPath, bool] = {}

    def verdict(self, xpath: "XPath") -> bool:
        """``xpath``'s boolean on this document, evaluated at most once."""
        verdict = self.verdicts.get(xpath)
        if verdict is None:
            verdict = self.verdicts[xpath] = to_boolean(xpath._value(self.tree))
        return verdict


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
        self._run = _compile(parse_xpath(expression, self.namespaces))

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


# --- expressions -----------------------------------------------------------------


def _compile(expr: ast.Expr) -> Compiled:
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        raise XPathEvaluationError(f"unhandled AST node {type(expr).__name__}")
    return compiler(expr)


def _literal(expr: ast.NumberLit | ast.StringLit) -> Compiled:
    value = expr.value
    return lambda node, position, size: value


def _negation(expr: ast.UnaryMinus) -> Compiled:
    operand = _compile(expr.operand)
    return lambda node, position, size: -to_number(operand(node, position, size))


def _call(expr: ast.FunctionCall) -> Compiled:
    fn, args = expr.fn, tuple(_compile(arg) for arg in expr.args)

    def call(node: XNode, position: int, size: int) -> XPathValue:
        return fn(Context(node, position, size), [arg(node, position, size) for arg in args])

    return call


def _binary(expr: ast.BinaryOp) -> Compiled:
    op = expr.op
    if op in _COMPARISONS:
        return _comparison(expr)
    left, right = _compile(expr.left), _compile(expr.right)
    if op == "or":
        return lambda node, position, size: (
            to_boolean(left(node, position, size)) or to_boolean(right(node, position, size))
        )
    if op == "and":
        return lambda node, position, size: (
            to_boolean(left(node, position, size)) and to_boolean(right(node, position, size))
        )
    if op == "|":

        def union(node: XNode, position: int, size: int) -> NodeSet:
            a, b = left(node, position, size), right(node, position, size)
            if not (is_node_set(a) and is_node_set(b)):
                raise XPathEvaluationError("'|' requires node-set operands")
            return merge_node_sets(a, b)

        return union
    arithmetic = _ARITHMETIC[op]
    return lambda node, position, size: arithmetic(
        to_number(left(node, position, size)), to_number(right(node, position, size))
    )


def _divide(a: float, b: float) -> float:
    if b == 0:
        if a == 0 or math.isnan(a):
            return math.nan
        return math.inf if a > 0 else -math.inf
    return a / b


def _modulo(a: float, b: float) -> float:
    if b == 0 or math.isnan(a) or math.isnan(b):
        return math.nan
    return math.fmod(a, b)


_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "div": _divide, "mod": _modulo,
}


_COMPARISONS = {
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _is_node_set(expr: ast.Expr) -> bool:
    """Whether ``expr`` evaluates to a node-set whatever the document (a
    filter path over something else raises instead of returning)."""
    return isinstance(expr, (ast.LocationPath, ast.FilterPath)) or (
        isinstance(expr, ast.BinaryOp) and expr.op == "|"
    )


def _comparison(expr: ast.BinaryOp) -> Compiled:
    op, left, right = expr.op, expr.left, expr.right
    literals = (ast.StringLit, ast.NumberLit)
    if isinstance(left, literals) and _is_node_set(right):
        op, left, right = _FLIPPED[op], right, left
    if isinstance(right, literals) and _is_node_set(left):
        return _nodes_against_literal(op, _compile(left), right)
    left_value, right_value = _compile(left), _compile(right)
    return lambda node, position, size: compare(
        op, left_value(node, position, size), right_value(node, position, size)
    )


def _nodes_against_literal(
    op: str, nodes: Compiled, literal: ast.StringLit | ast.NumberLit
) -> Compiled:
    """A node-set compared with a literal: true at the first node whose
    string-value (a string literal under ``=``/``!=``) or number (otherwise)
    compares true with it — XPath 1.0 section 3.4."""
    test = _COMPARISONS[op]
    if isinstance(literal, ast.StringLit) and op in ("=", "!="):
        text = literal.value

        def against_string(node: XNode, position: int, size: int) -> bool:
            for candidate in nodes(node, position, size):
                if test(candidate.string_value(), text):
                    return True
            return False

        return against_string
    number = to_number(literal.value)

    def against_number(node: XNode, position: int, size: int) -> bool:
        for candidate in nodes(node, position, size):
            if test(to_number(candidate.string_value()), number):
                return True
        return False

    return against_number


# --- paths -----------------------------------------------------------------------


def _location_path(path: ast.LocationPath) -> Compiled:
    if not path.steps:  # "/": the root node alone

        def root(node: XNode, position: int, size: int) -> NodeSet:
            while node.parent is not None:
                node = node.parent
            return [node]

        return root
    first, rest = _from_node(path.steps[0]), _over_nodes(path.steps[1:])
    if not path.absolute:
        if rest is None:
            return first
        return lambda node, position, size: rest(first(node))

    def absolute(node: XNode, position: int, size: int) -> NodeSet:
        while node.parent is not None:
            node = node.parent
        return first(node) if rest is None else rest(first(node))

    return absolute


def _filter_path(expr: ast.FilterPath) -> Compiled:
    primary = _compile(expr.primary)
    predicates, steps = _predicates(expr.predicates), _over_nodes(expr.steps)

    def filter_path(node: XNode, position: int, size: int) -> NodeSet:
        value = primary(node, position, size)
        if not is_node_set(value):
            raise XPathEvaluationError("predicates/steps require a node-set")
        if predicates is not None:
            value = predicates(value)
        return value if steps is None else steps(value)

    return filter_path


_COMPILERS: dict[type, Callable[..., Compiled]] = {
    ast.NumberLit: _literal,
    ast.StringLit: _literal,
    ast.UnaryMinus: _negation,
    ast.FunctionCall: _call,
    ast.BinaryOp: _binary,
    ast.LocationPath: _location_path,
    ast.FilterPath: _filter_path,
}


# --- steps -----------------------------------------------------------------------

_ORDER = operator.attrgetter("order")

#: each axis as a reader: node -> the axis' nodes in document order
_AXES: dict[str, Callable[[XNode], list | tuple]] = {
    "child": operator.attrgetter("children"),
    "attribute": operator.attrgetter("attributes"),
    "self": lambda node: (node,),
    "parent": lambda node: () if node.parent is None else (node.parent,),
    "descendant": descendants,
    "descendant-or-self": lambda node: [node, *descendants(node)],
}


@functools.lru_cache(maxsize=1024)
def _gather(axis_name: str, test: ast.NodeTest) -> FromNode:
    """The nodes on an axis from one node that pass a node test, in document
    order.  Shared by every expression taking the same step: a closure
    depends on nothing else.  Its position and size parameters are there so
    that it is also a compiled relative path of that one step."""
    axis = _AXES[axis_name]
    if test.kind == "node":
        return lambda node, position=1, size=1: list(axis(node))
    if test.kind == "text":
        return lambda node, position=1, size=1: [n for n in axis(node) if type(n) is TextNode]
    # a name test: the principal node type is attribute on the attribute
    # axis, element everywhere else
    kind = AttributeNode if axis_name == "attribute" else ElementNode
    if test.local == "*":
        if test.prefix is None:
            return lambda node, position=1, size=1: [n for n in axis(node) if type(n) is kind]
        namespace = test.namespace
        return lambda node, position=1, size=1: [
            n for n in axis(node) if type(n) is kind and n.name.namespace == namespace
        ]
    name = QName(test.namespace, test.local)
    return lambda node, position=1, size=1: [
        n for n in axis(node) if type(n) is kind and n.name == name
    ]


def _from_node(step: ast.Step) -> FromNode:
    """``step`` taken from a single context node."""
    gather, predicates = _gather(step.axis, step.test), _predicates(step.predicates)
    if predicates is None:
        return gather
    return lambda node, position=1, size=1: predicates(gather(node))


def _step_over(step: ast.Step) -> OverNodes:
    """``step`` taken from every node of a node-set: each context node's
    nodes pass the predicates on their own (XPath 1.0 section 2.4), then
    are merged in document order."""
    take = _from_node(step)

    def over(nodes: NodeSet) -> NodeSet:
        if len(nodes) == 1:
            return take(nodes[0])
        merged: dict[int, XNode] = {}
        for node in nodes:
            for found in take(node):
                merged[id(found)] = found
        return sorted(merged.values(), key=_ORDER)

    return over


def _over_nodes(steps: tuple[ast.Step, ...]) -> Optional[OverNodes]:
    """``steps`` in sequence over a node-set, or ``None`` for no steps."""
    if not steps:
        return None
    overs = [_step_over(step) for step in steps]
    if len(overs) == 1:
        return overs[0]

    def chain(nodes: NodeSet) -> NodeSet:
        for over in overs:
            nodes = over(nodes)
        return nodes

    return chain


def _predicates(predicates: tuple[ast.Expr, ...]) -> Optional[OverNodes]:
    """The filter ``predicates`` apply to a node-set, or ``None`` for none.
    A number keeps the node at that position; any other value keeps it when
    true (a non-empty string or node-set, a true boolean)."""
    if not predicates:
        return None
    tests = [_compile(predicate) for predicate in predicates]

    def keep(nodes: NodeSet) -> NodeSet:
        for test in tests:
            size = len(nodes)
            nodes = [
                node
                for position, node in enumerate(nodes, 1)
                if (
                    value == position
                    if type(value := test(node, position, size)) is float
                    else value
                )
            ]
        return nodes

    return keep
