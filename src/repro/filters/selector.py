"""JMS message selectors: the SQL92 conditional-expression subset.

Table 3's JMS column lists "message selector on header fields / a subset of
the SQL92 conditional expression syntax".  This module implements that
language: comparison, arithmetic, ``AND``/``OR``/``NOT`` with SQL
three-valued logic, ``BETWEEN``, ``IN``, ``LIKE`` (with ``ESCAPE``) and
``IS [NOT] NULL``, evaluated over a message's header fields and properties.

The grammar rows below run over :mod:`repro.util.grammar` and build the
selector's closure directly: one closure per construct, taking the message's
fields and returning ``True``, ``False`` or ``None`` (unknown).
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Mapping, Optional, Union

from repro.filters.base import FilterError
from repro.util.grammar import Cursor, Scanner, Token, binary, decimal, prefixed

Value = Union[str, float, int, bool, None]
#: a compiled selector construct: fields -> its value
Compiled = Callable[[Mapping[str, Value]], Value]

_scan = Scanner(
    r"""
      (?P<number>\d+\.\d*|\.\d+|\d+)
    | (?P<name>[A-Za-z_$][A-Za-z0-9_$.]*)
    | (?P<string>'(?:[^']|'')*')
    | (?P<op><>|<=|>=|[=<>+\-*/(),])
    """,
    frozenset({"and", "or", "not", "between", "in", "like", "escape", "is", "null", "true", "false"}),
)

_LOGIC = {("keyword", "or"): 1, ("keyword", "and"): 2}
_ARITHMETIC = {("op", "+"): 1, ("op", "-"): 1, ("op", "*"): 2, ("op", "/"): 2}
_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


# --- SQL three-valued logic: True / False / None = unknown --------------------


def _and3(a, b):
    return False if a is False or b is False else None if a is None or b is None else True


def _or3(a, b):
    return True if a is True or b is True else None if a is None or b is None else False


def _not3(a):
    return None if a is None else (not a)


def _as_bool(value):
    # non-boolean operands of AND/OR/NOT are unknown
    return value if value is None or isinstance(value, bool) else None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compare(op: str, left: Value, right: Value):
    if left is None or right is None:
        return None
    numeric = _is_number(left) and _is_number(right)
    if op in _ORDERINGS:
        # ordering is only defined on numerics in JMS selectors
        return _ORDERINGS[op](float(left), float(right)) if numeric else None
    if isinstance(left, bool) or isinstance(right, bool):
        equal = isinstance(left, bool) and isinstance(right, bool) and left == right
    elif numeric:
        equal = float(left) == float(right)
    else:
        equal = isinstance(left, str) and isinstance(right, str) and left == right
    return equal if op == "=" else not equal


def _like(pattern: str, escape: Optional[str]) -> Callable[[str], Optional[re.Match]]:
    """The matcher of a LIKE pattern: ``%`` any run, ``_`` any one character,
    and the escape character takes the one after it literally."""
    parts = re.findall(f"{re.escape(escape)}.|." if escape else ".", pattern, re.DOTALL)
    body = "".join(".*" if p == "%" else "." if p == "_" else re.escape(p[-1]) for p in parts)
    return re.compile(f"^{body}$", re.DOTALL).match


_ARITHMETIC_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": lambda a, b: a / b if b != 0 else None,
}


def _connective(token: Token, left: Compiled, right: Compiled) -> Compiled:
    join = _and3 if token.value == "and" else _or3
    return lambda fields: join(_as_bool(left(fields)), _as_bool(right(fields)))


def _arithmetic(token: Token, left: Compiled, right: Compiled) -> Compiled:
    apply = _ARITHMETIC_OPS[token.value]

    def arithmetic(fields):
        a, b = left(fields), right(fields)
        return apply(a, b) if _is_number(a) and _is_number(b) else None

    return arithmetic


def _inverse(token: Token, operand: Compiled) -> Compiled:
    return lambda fields: _not3(_as_bool(operand(fields)))


def _sign(token: Token, operand: Compiled) -> Compiled:
    if token.value == "+":
        return operand

    def negate(fields):
        value = operand(fields)
        return -value if _is_number(value) else None

    return negate


class _Parser:
    def __init__(self, text: str) -> None:
        def error(message: str, position: int) -> FilterError:
            return FilterError(f"selector syntax error: {message} at offset {position} in {text!r}")

        self.cursor = Cursor(_scan(text, error), error)

    def disjunction(self) -> Compiled:
        return binary(self.cursor, _LOGIC, self.negation, _connective)

    def negation(self) -> Compiled:
        return prefixed(self.cursor, "keyword", ("not",), self.comparison, _inverse)

    def comparison(self) -> Compiled:
        cursor = self.cursor
        left = self.sum()
        if (token := cursor.accept("op", *_COMPARISONS)) is not None:
            op, right = token.value, self.sum()
            return lambda fields: _compare(op, left(fields), right(fields))
        if cursor.accept("keyword", "is"):
            negated = cursor.accept("keyword", "not") is not None
            cursor.expect("keyword", "null")
            return lambda fields: (left(fields) is None) is not negated
        negated = cursor.at("keyword", "not") and cursor.peek(1).kind == "keyword" and (
            cursor.peek(1).value in ("between", "in", "like")
        )
        if negated:
            cursor.advance()
        if cursor.accept("keyword", "between"):
            low = self.sum()
            cursor.expect("keyword", "and")
            high = self.sum()

            def between(fields):
                value, lo, hi = left(fields), low(fields), high(fields)
                inside = _and3(_compare(">=", value, lo), _compare("<=", value, hi))
                return _not3(inside) if negated else inside

            return between
        if cursor.accept("keyword", "in"):
            cursor.expect("op", "(")
            values = {self.string()}
            while cursor.accept("op", ","):
                values.add(self.string())
            cursor.expect("op", ")")

            def member(fields):
                value = left(fields)
                if value is None:
                    return None
                return (isinstance(value, str) and value in values) is not negated

            return member
        if cursor.accept("keyword", "like"):
            pattern, escape = self.string(), None
            if cursor.accept("keyword", "escape"):
                escape = self.string()
                if len(escape) != 1:
                    raise cursor.fail("LIKE escape must be a single character")
            match = _like(pattern, escape)

            def like(fields):
                value = left(fields)
                if value is None:
                    return None
                return isinstance(value, str) and (match(value) is not None) is not negated

            return like
        return left

    def sum(self) -> Compiled:
        return binary(self.cursor, _ARITHMETIC, self.signed, _arithmetic)

    def signed(self) -> Compiled:
        return prefixed(self.cursor, "op", ("-", "+"), self.primary, _sign)

    def string(self) -> str:
        return self.cursor.expect("string").value[1:-1].replace("''", "'")

    def primary(self) -> Compiled:
        cursor = self.cursor
        token = cursor.peek()
        if token.kind == "string":
            value: Value = self.string()
            return lambda fields: value
        cursor.advance()
        if token.kind == "number":
            value = decimal(cursor, token)
        elif token.kind == "keyword" and token.value in ("true", "false"):
            value = token.value == "true"
        elif token.kind == "name":
            return operator.methodcaller("get", token.value)
        elif token.kind == "op" and token.value == "(":
            return cursor.enclosed(self.disjunction, "op", ")")
        else:
            raise cursor.fail(f"unexpected {token.value or 'end of input'!r}", token)
        return lambda fields: value


class MessageSelector:
    """A compiled JMS message selector."""

    def __init__(self, expression: str) -> None:
        self.expression = expression.strip()
        if not self.expression:
            raise FilterError("empty selector")
        parser = _Parser(self.expression)
        self._run = parser.disjunction()
        parser.cursor.end()

    def matches(self, fields: Mapping[str, Value]) -> bool:
        """True iff the selector evaluates to TRUE (unknown/false both fail)."""
        return self._run(fields) is True

    def __repr__(self) -> str:
        return f"MessageSelector({self.expression!r})"
