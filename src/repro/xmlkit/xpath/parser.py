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

Names are resolved here, once: a name test's prefix to its namespace URI, a
function call to its implementation, with the argument count checked.  An
undeclared prefix, an unknown function or a wrong arity is therefore a
syntax error of the expression, not a failure of some later evaluation.
"""

from __future__ import annotations

from typing import Optional

from repro.xmlkit.xpath import ast
from repro.xmlkit.xpath.errors import XPathSyntaxError
from repro.xmlkit.xpath.functions import FUNCTIONS
from repro.xmlkit.xpath.lexer import Token, TokenKind, tokenize

_SUPPORTED_AXES = {
    "child",
    "attribute",
    "self",
    "parent",
    "descendant",
    "descendant-or-self",
}


class _Parser:
    def __init__(self, expression: str, namespaces: dict[str, str]) -> None:
        self.expression = expression
        self.namespaces = namespaces
        self.tokens = tokenize(expression)
        self.pos = 0

    # --- token helpers ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def expect(self, kind: TokenKind, value: str | None = None) -> Token:
        token = self.peek()
        if token.kind is not kind or (value is not None and token.value != value):
            raise XPathSyntaxError(
                f"expected {value or kind.name}, found {token.value or 'end of input'}",
                self.expression,
                token.position,
            )
        return self.advance()

    def at_operator(self, *values: str) -> bool:
        token = self.peek()
        return token.kind is TokenKind.OPERATOR and token.value in values

    # --- grammar ------------------------------------------------------------

    def parse(self) -> ast.Expr:
        expr = self.parse_or()
        token = self.peek()
        if token.kind is not TokenKind.EOF:
            raise XPathSyntaxError(
                f"trailing input: {token.value!r}", self.expression, token.position
            )
        return expr

    def _binary_chain(self, ops: tuple[str, ...], sub) -> ast.Expr:
        left = sub()
        while self.at_operator(*ops):
            op = self.advance().value
            left = ast.BinaryOp(op, left, sub())
        return left

    def parse_or(self) -> ast.Expr:
        return self._binary_chain(("or",), self.parse_and)

    def parse_and(self) -> ast.Expr:
        return self._binary_chain(("and",), self.parse_equality)

    def parse_equality(self) -> ast.Expr:
        return self._binary_chain(("=", "!="), self.parse_relational)

    def parse_relational(self) -> ast.Expr:
        return self._binary_chain(("<", "<=", ">", ">="), self.parse_additive)

    def parse_additive(self) -> ast.Expr:
        return self._binary_chain(("+", "-"), self.parse_multiplicative)

    def parse_multiplicative(self) -> ast.Expr:
        return self._binary_chain(("*", "div", "mod"), self.parse_unary)

    def parse_unary(self) -> ast.Expr:
        negations = 0
        while self.at_operator("-"):
            self.advance()
            negations += 1
        expr = self.parse_union()
        for _ in range(negations):
            expr = ast.UnaryMinus(expr)
        return expr

    def parse_union(self) -> ast.Expr:
        return self._binary_chain(("|",), self.parse_path)

    def parse_path(self) -> ast.Expr:
        token = self.peek()
        if token.kind in (TokenKind.NUMBER, TokenKind.LITERAL, TokenKind.FUNC) or (
            token.kind is TokenKind.LPAREN
        ):
            primary = self.parse_primary()
            predicates = self.parse_predicates()
            steps: list[ast.Step] = []
            if self.at_operator("/", "//"):
                steps = self.parse_relative_steps()
            if predicates or steps:
                return ast.FilterPath(primary, tuple(predicates), tuple(steps))
            return primary
        return self.parse_location_path()

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind is TokenKind.LPAREN:
            self.advance()
            expr = self.parse_or()
            self.expect(TokenKind.RPAREN)
            return expr
        if token.kind is TokenKind.NUMBER:
            self.advance()
            return ast.NumberLit(float(token.value))
        if token.kind is TokenKind.LITERAL:
            self.advance()
            return ast.StringLit(token.value)
        if token.kind is TokenKind.FUNC:
            return self.parse_function_call()
        raise XPathSyntaxError(
            f"unexpected token {token.value!r}", self.expression, token.position
        )

    def parse_function_call(self) -> ast.FunctionCall:
        name_token = self.expect(TokenKind.FUNC)
        self.expect(TokenKind.LPAREN)
        args: list[ast.Expr] = []
        if self.peek().kind is not TokenKind.RPAREN:
            args.append(self.parse_or())
            while self.peek().kind is TokenKind.COMMA:
                self.advance()
                args.append(self.parse_or())
        self.expect(TokenKind.RPAREN)
        name = name_token.value
        if name not in FUNCTIONS:
            raise XPathSyntaxError(
                f"unknown function {name}()", self.expression, name_token.position
            )
        fn, low, high = FUNCTIONS[name]
        if len(args) < low or (high is not None and len(args) > high):
            raise XPathSyntaxError(
                f"{name}() does not take {len(args)} argument(s)",
                self.expression,
                name_token.position,
            )
        return ast.FunctionCall(name, tuple(args), fn)

    def parse_location_path(self) -> ast.LocationPath:
        absolute = False
        steps: list[ast.Step] = []
        if self.at_operator("/"):
            self.advance()
            absolute = True
            if not self._at_step_start():
                return ast.LocationPath(True, ())
        elif self.at_operator("//"):
            self.advance()
            absolute = True
            steps.append(ast.Step("descendant-or-self", ast.NodeTest("node")))
        steps.append(self.parse_step())
        steps.extend(self.parse_relative_steps(initial=False))
        return ast.LocationPath(absolute, tuple(steps))

    def parse_relative_steps(self, initial: bool = True) -> list[ast.Step]:
        steps: list[ast.Step] = []
        while self.at_operator("/", "//"):
            sep = self.advance().value
            if sep == "//":
                steps.append(ast.Step("descendant-or-self", ast.NodeTest("node")))
            steps.append(self.parse_step())
        return steps

    def _at_step_start(self) -> bool:
        token = self.peek()
        return token.kind in (
            TokenKind.NAME,
            TokenKind.STAR,
            TokenKind.AT,
            TokenKind.DOT,
            TokenKind.DOTDOT,
            TokenKind.AXIS,
            TokenKind.NODETYPE,
        )

    def parse_step(self) -> ast.Step:
        token = self.peek()
        if token.kind is TokenKind.DOT:
            self.advance()
            return ast.Step("self", ast.NodeTest("node"), tuple(self.parse_predicates()))
        if token.kind is TokenKind.DOTDOT:
            self.advance()
            return ast.Step("parent", ast.NodeTest("node"), tuple(self.parse_predicates()))
        axis = "child"
        if token.kind is TokenKind.AT:
            self.advance()
            axis = "attribute"
        elif token.kind is TokenKind.AXIS:
            if token.value not in _SUPPORTED_AXES:
                raise XPathSyntaxError(
                    f"unsupported axis {token.value!r}", self.expression, token.position
                )
            axis = token.value
            self.advance()
        test = self.parse_node_test()
        return ast.Step(axis, test, tuple(self.parse_predicates()))

    def parse_node_test(self) -> ast.NodeTest:
        token = self.peek()
        if token.kind is TokenKind.NODETYPE:
            self.advance()
            self.expect(TokenKind.LPAREN)
            self.expect(TokenKind.RPAREN)
            if token.value == "text":
                return ast.NodeTest("text")
            if token.value == "node":
                return ast.NodeTest("node")
            raise XPathSyntaxError(
                f"unsupported node type {token.value}()", self.expression, token.position
            )
        if token.kind is TokenKind.STAR:
            self.advance()
            return ast.NodeTest("name", prefix=None, local="*")
        if token.kind is TokenKind.NAME:
            first = self.advance().value
            if self.peek().kind is TokenKind.COLON:
                self.advance()
                uri = self.namespaces.get(first)
                if uri is None:
                    raise XPathSyntaxError(
                        f"undeclared namespace prefix {first!r}",
                        self.expression,
                        token.position,
                    )
                if self.peek().kind is TokenKind.STAR:
                    self.advance()
                    return ast.NodeTest("name", first, "*", uri)
                local = self.expect(TokenKind.NAME).value
                return ast.NodeTest("name", first, local, uri)
            return ast.NodeTest("name", prefix=None, local=first)
        raise XPathSyntaxError(
            f"expected a node test, found {token.value!r}", self.expression, token.position
        )

    def parse_predicates(self) -> list[ast.Expr]:
        predicates: list[ast.Expr] = []
        while self.peek().kind is TokenKind.LBRACKET:
            self.advance()
            predicates.append(self.parse_or())
            self.expect(TokenKind.RBRACKET)
        return predicates


def parse_xpath(expression: str, namespaces: Optional[dict[str, str]] = None) -> ast.Expr:
    """Parse an XPath expression into an AST, resolving the prefixes it uses
    against ``namespaces``."""
    return _Parser(expression, namespaces or {}).parse()
