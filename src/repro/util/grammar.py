"""One front end for the filter expression languages.

Table 3's filter languages -- XPath 1.0, JMS message selectors, the CORBA
extended Trader Constraint Language -- are one idea in three syntaxes: a
boolean expression over an event.  Their parsers share a positioned
:class:`Token`, a regex :class:`Scanner`, a :class:`Cursor` that raises the
language's own syntax error at a position, one table-driven precedence
ladder (:func:`binary`, with :func:`prefixed` for prefix operators) and one
bound, :data:`MAX_DEPTH`, on how deeply an expression nests.

An expression's depth is the number of constructs open around its deepest
point: each open parenthesis, bracket or argument list, each prefix
operator, and each binary operator already applied in a chain (``a + b + c``
nests twice, like the left-deep tree it parses to).  Past ``MAX_DEPTH`` the
expression is a syntax error, so neither a parser nor the evaluator it
builds can exhaust the interpreter's stack on hostile input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping, Optional

#: the deepest an expression may nest (see the module docstring)
MAX_DEPTH = 32

#: (message, offset) -> the language's syntax error
ErrorFactory = Callable[[str, int], Exception]

_BLANK = re.compile(r"\s*").match


@dataclass(frozen=True, slots=True)
class Token:
    kind: Hashable
    value: str
    position: int


class Scanner:
    """A lexer from one master pattern: each alternative is a named group
    whose name is the token's kind; whitespace between tokens is skipped, and
    input that no alternative matches is reported at its first non-blank
    character.  A ``name`` whose lower-cased text is a keyword becomes a
    ``keyword`` token carrying that text.  The last token is ``end``."""

    def __init__(self, pattern: str, keywords: frozenset[str]) -> None:
        self._match = re.compile(rf"\s*(?:{pattern})", re.VERBOSE).match
        self._keywords = keywords

    def __call__(self, text: str, error: ErrorFactory) -> list[Token]:
        tokens: list[Token] = []
        position, end = 0, len(text.rstrip())
        while position < end:
            match = self._match(text, position)
            if match is None:
                position = _BLANK(text, position).end()
                raise error(f"unexpected input {text[position:position + 10].rstrip()!r}", position)
            kind, value = match.lastgroup, match.group(match.lastgroup)
            if kind == "name" and value.lower() in self._keywords:
                kind, value = "keyword", value.lower()
            tokens.append(Token(kind, value, match.start(match.lastgroup)))
            position = match.end()
        tokens.append(Token("end", "", len(text)))
        return tokens


class Cursor:
    """A position in a token list whose last token marks the end of input,
    and the depth the parse has reached there."""

    __slots__ = ("tokens", "pos", "depth", "error")

    def __init__(self, tokens: list[Token], error: ErrorFactory) -> None:
        self.tokens, self.pos, self.depth, self.error = tokens, 0, 0, error

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos = min(self.pos + 1, len(self.tokens) - 1)
        return token

    def at(self, kind: Hashable, *values: str) -> bool:
        token = self.tokens[self.pos]
        return token.kind == kind and (not values or token.value in values)

    def accept(self, kind: Hashable, *values: str) -> Optional[Token]:
        return self.advance() if self.at(kind, *values) else None

    def expect(self, kind: Hashable, *values: str) -> Token:
        if not self.at(kind, *values):
            wanted = " or ".join(values) or kind
            raise self.fail(f"expected {wanted}, found {self.peek().value or 'end of input'!r}")
        return self.advance()

    def fail(self, message: str, token: Optional[Token] = None) -> Exception:
        """The language's syntax error at ``token`` (the next one by default)."""
        return self.error(message, (token or self.peek()).position)

    def nest(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.fail(f"expression nested deeper than {MAX_DEPTH}")

    def enclosed(self, parse: Callable[[], Any], kind: Hashable, *closing: str) -> Any:
        """``parse()`` one level deeper, then the closing ``kind`` token."""
        self.nest()
        result = parse()
        self.expect(kind, *closing)
        self.depth -= 1
        return result

    def end(self) -> None:
        if self.pos < len(self.tokens) - 1:
            raise self.fail(f"trailing input {self.peek().value!r}")


def decimal(cursor: Cursor, token: Token) -> int | float:
    """The value of a decimal literal: a float if it has a point, else an
    int; one with more digits than ``int()`` converts is a syntax error."""
    try:
        return float(token.value) if "." in token.value else int(token.value)
    except ValueError:
        raise cursor.fail(f"number {token.value[:12]}... too long", token) from None


def binary(cursor: Cursor, table: Mapping, operand: Callable, combine: Callable, floor: int = 1):
    """Left-associative binary operators by precedence climbing: ``table``
    maps an operator token's ``(kind, value)`` to its binding power (higher
    binds tighter, 1 the loosest), ``operand()`` parses what sits between
    operators and ``combine(token, left, right)`` joins two operands."""
    left, chained = operand(), 0
    while (power := table.get((cursor.peek().kind, cursor.peek().value), 0)) >= floor:
        token = cursor.advance()
        cursor.nest()
        chained += 1
        left = combine(token, left, binary(cursor, table, operand, combine, power + 1))
    cursor.depth -= chained
    return left


def prefixed(cursor: Cursor, kind: Hashable, values: tuple, operand: Callable, apply: Callable):
    """Any number of prefix operators ``values`` before ``operand()``;
    ``apply(token, operand)`` applies one, innermost first."""
    tokens = []
    while cursor.at(kind, *values):
        tokens.append(cursor.advance())
        cursor.nest()
    result = operand()
    for token in reversed(tokens):
        result = apply(token, result)
    cursor.depth -= len(tokens)
    return result
