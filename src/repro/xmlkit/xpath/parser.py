"""Recursive-descent parser for the XPath 1.0 subset grammar.

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

Names are resolved here, once: a name test's prefix to its namespace URI, a
function call to its implementation, with the argument count checked.  An
undeclared prefix, an unknown function or a wrong arity is therefore a
syntax error of the expression, not a failure of some later evaluation.
"""

from __future__ import annotations

from typing import Optional

from repro.util.grammar import Cursor, Token, binary, prefixed
from repro.xmlkit.xpath import ast
from repro.xmlkit.xpath.errors import XPathSyntaxError
from repro.xmlkit.xpath.functions import FUNCTIONS
from repro.xmlkit.xpath.lexer import TokenKind, tokenize

_SUPPORTED_AXES = {"child", "attribute", "self", "parent", "descendant", "descendant-or-self"}
_PRIMARY_STARTS = (TokenKind.NUMBER, TokenKind.LITERAL, TokenKind.FUNC, TokenKind.LPAREN)
_STEP_STARTS = (
    TokenKind.NAME, TokenKind.STAR, TokenKind.AT, TokenKind.DOT, TokenKind.DOTDOT,
    TokenKind.AXIS, TokenKind.NODETYPE,
)
_DESCENDANT_OR_SELF = ast.Step("descendant-or-self", ast.NodeTest("node"))

#: the binary operators below unary minus, by binding power
_LADDER = {
    (TokenKind.OPERATOR, op): power
    for power, ops in enumerate(
        (("or",), ("and",), ("=", "!="), ("<", "<=", ">", ">="), ("+", "-"), ("*", "div", "mod")),
        start=1,
    )
    for op in ops
}
#: ... and the one above it
_UNION = {(TokenKind.OPERATOR, "|"): 1}


def _binary_op(token: Token, left: ast.Expr, right: ast.Expr) -> ast.BinaryOp:
    return ast.BinaryOp(token.value, left, right)


def _unary_minus(token: Token, operand: ast.Expr) -> ast.UnaryMinus:
    return ast.UnaryMinus(operand)


class _Parser:
    def __init__(self, expression: str, namespaces: dict[str, str]) -> None:
        self.namespaces = namespaces
        self.cursor = Cursor(
            tokenize(expression),
            lambda message, position: XPathSyntaxError(message, expression, position),
        )

    def parse(self) -> ast.Expr:
        expr = self.parse_expr()
        self.cursor.end()
        return expr

    def parse_expr(self) -> ast.Expr:
        return binary(self.cursor, _LADDER, self.parse_unary, _binary_op)

    def parse_unary(self) -> ast.Expr:
        return prefixed(self.cursor, TokenKind.OPERATOR, ("-",), self.parse_union, _unary_minus)

    def parse_union(self) -> ast.Expr:
        return binary(self.cursor, _UNION, self.parse_path, _binary_op)

    def parse_path(self) -> ast.Expr:
        if self.cursor.peek().kind not in _PRIMARY_STARTS:
            return self.parse_location_path()
        primary, predicates = self.parse_primary(), self.parse_predicates()
        steps = tuple(self.parse_relative_steps())
        return ast.FilterPath(primary, predicates, steps) if predicates or steps else primary

    def parse_primary(self) -> ast.Expr:
        cursor = self.cursor
        token = cursor.advance()
        if token.kind is TokenKind.LPAREN:
            return cursor.enclosed(self.parse_expr, TokenKind.RPAREN)
        if token.kind is TokenKind.NUMBER:
            return ast.NumberLit(float(token.value))
        if token.kind is TokenKind.LITERAL:
            return ast.StringLit(token.value)
        return self.parse_function_call(token)

    def parse_function_call(self, name_token: Token) -> ast.FunctionCall:
        cursor = self.cursor
        cursor.expect(TokenKind.LPAREN)
        args = cursor.enclosed(self.parse_arguments, TokenKind.RPAREN)
        name = name_token.value
        if name not in FUNCTIONS:
            raise cursor.fail(f"unknown function {name}()", name_token)
        fn, low, high = FUNCTIONS[name]
        if len(args) < low or (high is not None and len(args) > high):
            raise cursor.fail(f"{name}() does not take {len(args)} argument(s)", name_token)
        return ast.FunctionCall(name, tuple(args), fn)

    def parse_arguments(self) -> list[ast.Expr]:
        if self.cursor.at(TokenKind.RPAREN):
            return []
        args = [self.parse_expr()]
        while self.cursor.accept(TokenKind.COMMA):
            args.append(self.parse_expr())
        return args

    def parse_location_path(self) -> ast.LocationPath:
        cursor = self.cursor
        steps: list[ast.Step] = []
        absolute = cursor.at(TokenKind.OPERATOR, "/", "//")
        if cursor.accept(TokenKind.OPERATOR, "/"):
            if cursor.peek().kind not in _STEP_STARTS:
                return ast.LocationPath(True, ())
        elif cursor.accept(TokenKind.OPERATOR, "//"):
            steps.append(_DESCENDANT_OR_SELF)
        steps.append(self.parse_step())
        steps.extend(self.parse_relative_steps())
        return ast.LocationPath(absolute, tuple(steps))

    def parse_relative_steps(self) -> list[ast.Step]:
        cursor = self.cursor
        steps: list[ast.Step] = []
        while cursor.at(TokenKind.OPERATOR, "/", "//"):
            if cursor.advance().value == "//":
                steps.append(_DESCENDANT_OR_SELF)
            steps.append(self.parse_step())
        return steps

    def parse_step(self) -> ast.Step:
        cursor = self.cursor
        token = cursor.peek()
        if token.kind in (TokenKind.DOT, TokenKind.DOTDOT):
            cursor.advance()
            axis = "self" if token.kind is TokenKind.DOT else "parent"
            return ast.Step(axis, ast.NodeTest("node"), self.parse_predicates())
        axis = "child"
        if cursor.accept(TokenKind.AT):
            axis = "attribute"
        elif token.kind is TokenKind.AXIS:
            if token.value not in _SUPPORTED_AXES:
                raise cursor.fail(f"unsupported axis {token.value!r}")
            axis = cursor.advance().value
        test = self.parse_node_test()
        return ast.Step(axis, test, self.parse_predicates())

    def parse_node_test(self) -> ast.NodeTest:
        cursor = self.cursor
        token = cursor.advance()
        if token.kind is TokenKind.NODETYPE:
            cursor.expect(TokenKind.LPAREN)
            cursor.expect(TokenKind.RPAREN)
            if token.value in ("text", "node"):
                return ast.NodeTest(token.value)
            raise cursor.fail(f"unsupported node type {token.value}()", token)
        if token.kind is TokenKind.STAR:
            return ast.NodeTest("name", prefix=None, local="*")
        if token.kind is not TokenKind.NAME:
            raise cursor.fail(f"expected a node test, found {token.value!r}", token)
        if not cursor.accept(TokenKind.COLON):
            return ast.NodeTest("name", prefix=None, local=token.value)
        uri = self.namespaces.get(token.value)
        if uri is None:
            raise cursor.fail(f"undeclared namespace prefix {token.value!r}", token)
        if cursor.accept(TokenKind.STAR):
            return ast.NodeTest("name", token.value, "*", uri)
        return ast.NodeTest("name", token.value, cursor.expect(TokenKind.NAME).value, uri)

    def parse_predicates(self) -> tuple[ast.Expr, ...]:
        predicates = []
        while self.cursor.accept(TokenKind.LBRACKET):
            predicates.append(self.cursor.enclosed(self.parse_expr, TokenKind.RBRACKET))
        return tuple(predicates)


def parse_xpath(expression: str, namespaces: Optional[dict[str, str]] = None) -> ast.Expr:
    """Parse an XPath expression into an AST, resolving the prefixes it uses
    against ``namespaces``."""
    return _Parser(expression, namespaces or {}).parse()
