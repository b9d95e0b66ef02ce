"""Recursive-descent parser for the XPath 1.0 subset grammar, compiling as it
parses.

Grammar (simplified to the supported axes and node types)::

    Expr            ::= OrExpr
    OrExpr          ::= AndExpr ('or' AndExpr)*
    AndExpr         ::= EqualityExpr ('and' EqualityExpr)*
    EqualityExpr    ::= RelationalExpr (('='|'!=') RelationalExpr)*
    RelationalExpr  ::= AdditiveExpr (('<'|'<='|'>'|'>=') AdditiveExpr)*
    AdditiveExpr    ::= MultiplicativeExpr (('+'|'-') MultiplicativeExpr)*
    MultiplicativeExpr ::= UnaryExpr (('*'|'div'|'mod') UnaryExpr)*
    UnaryExpr       ::= '-'* UnionExpr
    UnionExpr       ::= PathExpr ('|' PathExpr)*
    PathExpr        ::= LocationPath
                      | FilterExpr (('/'|'//') RelativeLocationPath)?
    FilterExpr      ::= PrimaryExpr Predicate*
    PrimaryExpr     ::= '(' Expr ')' | Literal | Number | FunctionCall

The six binary levels from ``or`` to ``*`` are one table run by the shared
precedence ladder of :mod:`repro.util.grammar`, and so is ``|``; the token
cursor is the shared one too, so an expression nested deeper than
``MAX_DEPTH`` is a syntax error here like in the other filter languages.

Each grammar row returns the Python closure of what it parsed, taking
``(node, position, size)`` -- the context node, its proximity position and
the context size -- wrapped in an :class:`Expr` that also says whether it is
a literal or a node-set.  Names are resolved when their closure is made: a
name test's prefix to its namespace URI, a function call to its
implementation, with the argument count checked, so an undeclared prefix,
an unknown function or a wrong arity is a syntax error of the expression.
Two shapes that the filter dialects use on every publish are compiled
specially:

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
is taken as a boolean.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, NamedTuple, Optional

from repro.util.grammar import Cursor, Token, binary, prefixed
from repro.xmlkit.names import QName
from repro.xmlkit.xpath.errors import XPathEvaluationError, XPathSyntaxError
from repro.xmlkit.xpath.functions import FUNCTIONS, Context
from repro.xmlkit.xpath.lexer import tokenize
from repro.xmlkit.xpath.nodes import AttributeNode, ElementNode, TextNode, XNode, descendants
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


class Expr(NamedTuple):
    """A parsed expression: its closure, its value if it is a literal,
    whether it gives a node-set whatever the document (a filter path over
    something else raises instead of returning), a relative location path's
    text, and an equality form: ``(Q, 'lit')`` of ``Q = 'lit'`` (Q such a
    path, 'lit' a string, either side), ``(P/Q, 'lit')`` of a location path
    ``P[Q = 'lit']``, that predicate its last step's only one, which is
    non-empty exactly when a node ``P/Q`` selects has the string-value 'lit'."""

    run: Compiled
    literal: Optional[str | float] = None
    nodes: bool = False
    path: Optional[str] = None
    equality: Optional[tuple[str, str]] = None


# --- expressions -----------------------------------------------------------------


def _literal(value: str | float) -> Expr:
    return Expr(lambda node, position, size: value, literal=value)


def _negation(token: Token, operand: Expr) -> Expr:
    run = operand.run
    return Expr(lambda node, position, size: -to_number(run(node, position, size)))


def _call(fn: Callable, args: list[Expr]) -> Expr:
    runs = tuple(arg.run for arg in args)

    def call(node: XNode, position: int, size: int) -> XPathValue:
        return fn(Context(node, position, size), [arg(node, position, size) for arg in runs])

    return Expr(call)


def _binary(token: Token, left_expr: Expr, right_expr: Expr) -> Expr:
    op = token.value
    if op in _COMPARISONS:
        path = left_expr.path or right_expr.path
        literal = right_expr.literal if left_expr.path else left_expr.literal
        equality = (path, literal) if op == "=" and path and type(literal) is str else None
        return Expr(_comparison(op, left_expr, right_expr), equality=equality)
    left, right = left_expr.run, right_expr.run
    if op == "or":
        return Expr(lambda node, position, size: (
            to_boolean(left(node, position, size)) or to_boolean(right(node, position, size))
        ))
    if op == "and":
        return Expr(lambda node, position, size: (
            to_boolean(left(node, position, size)) and to_boolean(right(node, position, size))
        ))
    if op == "|":

        def union(node: XNode, position: int, size: int) -> NodeSet:
            a, b = left(node, position, size), right(node, position, size)
            if not (is_node_set(a) and is_node_set(b)):
                raise XPathEvaluationError("'|' requires node-set operands")
            return merge_node_sets(a, b)

        return Expr(union, nodes=True)
    arithmetic = _ARITHMETIC[op]
    return Expr(lambda node, position, size: arithmetic(
        to_number(left(node, position, size)), to_number(right(node, position, size))
    ))


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


def _comparison(op: str, left: Expr, right: Expr) -> Compiled:
    if left.literal is not None and right.nodes:
        op, left, right = _FLIPPED[op], right, left
    if right.literal is not None and left.nodes:
        return _nodes_against_literal(op, left.run, right.literal)
    left_value, right_value = left.run, right.run
    return lambda node, position, size: compare(
        op, left_value(node, position, size), right_value(node, position, size)
    )


def _nodes_against_literal(op: str, nodes: Compiled, literal: str | float) -> Compiled:
    """A node-set compared with a literal: true at the first node whose
    string-value (a string literal under ``=``/``!=``) or number (otherwise)
    compares true with it — XPath 1.0 section 3.4."""
    test = _COMPARISONS[op]
    if isinstance(literal, str) and op in ("=", "!="):
        text = literal

        def against_string(node: XNode, position: int, size: int) -> bool:
            for candidate in nodes(node, position, size):
                if test(candidate.string_value(), text):
                    return True
            return False

        return against_string
    number = to_number(literal)

    def against_number(node: XNode, position: int, size: int) -> bool:
        for candidate in nodes(node, position, size):
            if test(to_number(candidate.string_value()), number):
                return True
        return False

    return against_number


# --- paths -----------------------------------------------------------------------


def _location_path(absolute: bool, steps: list[FromNode]) -> Compiled:
    if not steps:  # "/": the root node alone

        def root(node: XNode, position: int, size: int) -> NodeSet:
            while node.parent is not None:
                node = node.parent
            return [node]

        return root
    first, rest = steps[0], _over_nodes(steps[1:])
    if not absolute:
        if rest is None:
            return first
        return lambda node, position, size: rest(first(node))

    def absolute_path(node: XNode, position: int, size: int) -> NodeSet:
        while node.parent is not None:
            node = node.parent
        return first(node) if rest is None else rest(first(node))

    return absolute_path


def _filter_path(
    primary: Compiled, predicates: Optional[OverNodes], steps: Optional[OverNodes]
) -> Compiled:
    def filter_path(node: XNode, position: int, size: int) -> NodeSet:
        value = primary(node, position, size)
        if not is_node_set(value):
            raise XPathEvaluationError("predicates/steps require a node-set")
        if predicates is not None:
            value = predicates(value)
        return value if steps is None else steps(value)

    return filter_path


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
def _gather(
    axis_name: str, kind: str, namespace: Optional[str] = None, local: Optional[str] = None
) -> FromNode:
    """The nodes on an axis from one node that pass a node test -- ``kind``
    ``"node"``, ``"text"`` or ``"name"`` (``local`` may be ``*``, and
    ``namespace`` is ``None`` for an unprefixed ``*``) -- in document order.
    Shared by every expression taking the same step: a closure depends on
    nothing else.  Its position and size parameters are there so that it is
    also a compiled relative path of that one step."""
    axis = _AXES[axis_name]
    if kind == "node":
        return lambda node, position=1, size=1: list(axis(node))
    if kind == "text":
        return lambda node, position=1, size=1: [n for n in axis(node) if type(n) is TextNode]
    # a name test: the principal node type is attribute on the attribute
    # axis, element everywhere else
    principal = AttributeNode if axis_name == "attribute" else ElementNode
    if local == "*":
        if namespace is None:
            return lambda node, position=1, size=1: [n for n in axis(node) if type(n) is principal]
        return lambda node, position=1, size=1: [
            n for n in axis(node) if type(n) is principal and n.name.namespace == namespace
        ]
    name = QName(namespace, local)
    return lambda node, position=1, size=1: [
        n for n in axis(node) if type(n) is principal and n.name == name
    ]


def _from_node(gather: FromNode, predicates: Optional[OverNodes]) -> FromNode:
    """A step taken from a single context node."""
    if predicates is None:
        return gather
    return lambda node, position=1, size=1: predicates(gather(node))


def _step_over(take: FromNode) -> OverNodes:
    """A step taken from every node of a node-set: each context node's nodes
    pass the predicates on their own (XPath 1.0 section 2.4), then are merged
    in document order."""

    def over(nodes: NodeSet) -> NodeSet:
        if len(nodes) == 1:
            return take(nodes[0])
        merged: dict[int, XNode] = {}
        for node in nodes:
            for found in take(node):
                merged[id(found)] = found
        return sorted(merged.values(), key=_ORDER)

    return over


def _over_nodes(steps: list[FromNode]) -> Optional[OverNodes]:
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


def _predicates(tests: list[Compiled]) -> Optional[OverNodes]:
    """The filter predicates ``tests`` apply to a node-set, or ``None`` for
    none.  A number keeps the node at that position; any other value keeps
    it when true (a non-empty string or node-set, a true boolean)."""
    if not tests:
        return None

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


# --- the grammar rows ------------------------------------------------------------

_SUPPORTED_AXES = {"child", "attribute", "self", "parent", "descendant", "descendant-or-self"}
_PRIMARY_STARTS = ("number", "literal", "function", "(")
_STEP_STARTS = ("name", "star", "@", ".", "..", "axis", "nodetype")
_DESCENDANT_OR_SELF = _gather("descendant-or-self", "node")

#: the binary operators below unary minus, by binding power
_LADDER = {
    ("operator", op): power
    for power, ops in enumerate(
        (("or",), ("and",), ("=", "!="), ("<", "<=", ">", ">="), ("+", "-"), ("*", "div", "mod")),
        start=1,
    )
    for op in ops
}
#: ... and the one above it
_UNION = {("operator", "|"): 1}


class _Parser:
    def __init__(self, expression: str, namespaces: dict[str, str]) -> None:
        self.text = expression
        self.namespaces = namespaces
        #: ``('[' offset, equality)`` of the last step parsed, if its one predicate is one
        self.tested: Optional[tuple[int, tuple[str, str]]] = None
        self.cursor = Cursor(
            tokenize(expression),
            lambda message, position: XPathSyntaxError(message, expression, position),
        )

    def expr(self) -> Expr:
        return binary(self.cursor, _LADDER, self.unary, _binary)

    def unary(self) -> Expr:
        return prefixed(self.cursor, "operator", ("-",), self.union, _negation)

    def union(self) -> Expr:
        return binary(self.cursor, _UNION, self.path, _binary)

    def path(self) -> Expr:
        if self.cursor.peek().kind not in _PRIMARY_STARTS:
            return self.location_path()
        primary, predicates = self.primary(), self.predicates()
        steps = _over_nodes(self.relative_steps())
        if predicates is None and steps is None:
            return primary
        return Expr(_filter_path(primary.run, predicates, steps), nodes=True)

    def primary(self) -> Expr:
        cursor = self.cursor
        token = cursor.advance()
        if token.kind == "(":
            return cursor.enclosed(self.expr, ")")
        if token.kind == "number":
            return _literal(float(token.value))
        if token.kind == "literal":
            return _literal(token.value)
        return self.function_call(token)

    def function_call(self, name_token: Token) -> Expr:
        cursor = self.cursor
        cursor.expect("(")
        args = cursor.enclosed(self.arguments, ")")
        name = name_token.value
        if name not in FUNCTIONS:
            raise cursor.fail(f"unknown function {name}()", name_token)
        fn, low, high = FUNCTIONS[name]
        if len(args) < low or (high is not None and len(args) > high):
            raise cursor.fail(f"{name}() does not take {len(args)} argument(s)", name_token)
        return _call(fn, args)

    def arguments(self) -> list[Expr]:
        if self.cursor.at(")"):
            return []
        args = [self.expr()]
        while self.cursor.accept(","):
            args.append(self.expr())
        return args

    def location_path(self) -> Expr:
        cursor = self.cursor
        steps: list[FromNode] = []
        start = cursor.peek().position
        absolute = cursor.at("operator", "/", "//")
        if cursor.accept("operator", "/"):
            if cursor.peek().kind not in _STEP_STARTS:
                return Expr(_location_path(True, steps), nodes=True)
        elif cursor.accept("operator", "//"):
            steps.append(_DESCENDANT_OR_SELF)
        steps.append(self.step())
        steps.extend(self.relative_steps())
        path = None if absolute else self.text[start:cursor.peek().position].rstrip()
        equality = None
        if self.tested is not None:  # the last step's one predicate: P[Q = 'lit']
            bracket, (tested, literal) = self.tested
            equality = (f"{self.text[start:bracket].rstrip()}/{tested}", literal)
        return Expr(_location_path(absolute, steps), nodes=True, path=path, equality=equality)

    def relative_steps(self) -> list[FromNode]:
        cursor = self.cursor
        steps: list[FromNode] = []
        while cursor.at("operator", "/", "//"):
            if cursor.advance().value == "//":
                steps.append(_DESCENDANT_OR_SELF)
            steps.append(self.step())
        return steps

    def step(self) -> FromNode:
        cursor = self.cursor
        token = cursor.peek()
        if token.kind in (".", ".."):
            cursor.advance()
            axis = "self" if token.kind == "." else "parent"
            return _from_node(_gather(axis, "node"), self.predicates())
        axis = "child"
        if cursor.accept("@"):
            axis = "attribute"
        elif token.kind == "axis":
            if token.value not in _SUPPORTED_AXES:
                raise cursor.fail(f"unsupported axis {token.value!r}")
            axis = cursor.advance().value
        return _from_node(_gather(axis, *self.node_test()), self.predicates())

    def node_test(self) -> tuple:
        """``(kind, namespace, local)`` of the node test, as :func:`_gather` takes them."""
        cursor = self.cursor
        token = cursor.advance()
        if token.kind == "nodetype":
            cursor.expect("(")
            cursor.expect(")")
            if token.value in ("text", "node"):
                return (token.value,)
            raise cursor.fail(f"unsupported node type {token.value}()", token)
        if token.kind == "star":
            return ("name", None, "*")
        if token.kind != "name":
            raise cursor.fail(f"expected a node test, found {token.value!r}", token)
        if not cursor.accept(":"):
            return ("name", "", token.value)
        uri = self.namespaces.get(token.value)
        if uri is None:
            raise cursor.fail(f"undeclared namespace prefix {token.value!r}", token)
        if cursor.accept("star"):
            return ("name", uri, "*")
        return ("name", uri, cursor.expect("name").value)

    def predicates(self) -> Optional[OverNodes]:
        bracket = self.cursor.peek().position
        tests: list[Expr] = []
        while self.cursor.accept("["):
            tests.append(self.cursor.enclosed(self.expr, "]"))
        self.tested = None
        if len(tests) == 1 and not tests[0].nodes and tests[0].equality is not None:
            self.tested = (bracket, tests[0].equality)
        return _predicates([test.run for test in tests])


def parse_xpath(expression: str, namespaces: Optional[dict[str, str]] = None) -> Expr:
    """Parse an XPath expression into its closure and what the grammar rows
    saw of its form, resolving the prefixes it uses against ``namespaces``."""
    parser = _Parser(expression, namespaces or {})
    expr = parser.expr()
    parser.cursor.end()
    return expr
