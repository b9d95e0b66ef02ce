"""The CORBA Notification Service filter language.

The CORBA Notification Service (Table 3, second column) filters structured
events with constraint expressions "whose syntax follows the extended Trader
Constraint Language".  This module implements the subset real notification
filters used:

- boolean connectives ``and`` / ``or`` / ``not``;
- comparisons ``==`` ``!=`` ``<`` ``<=`` ``>`` ``>=``;
- arithmetic ``+ - * /``;
- ``exist <component>`` (presence test);
- ``<string> in <component>`` (sequence membership);
- ``<component> ~ <string>`` (substring match);
- event components: ``$type_name``/``$event_name``/``$domain_name``
  shorthands, ``$variable`` lookup in filterable data, and dotted paths like
  ``$.header.fixed_header.event_type.type_name``.

Constraints evaluate over the structured-event representation of
:mod:`repro.baselines.corba.events` (plain nested mappings here, so the
language is independently testable).  The grammar rows below run over
:mod:`repro.util.grammar` and build the constraint's closure directly; a
component path is resolved once, when its closure is built, so a malformed
one (``$.``) is refused with the constraint.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable, Mapping

from repro.filters.base import FilterError
from repro.util.grammar import Cursor, Scanner, Token, binary, decimal, prefixed

#: a compiled constraint construct: event -> its value
Compiled = Callable[[Mapping[str, Any]], Any]

_scan = Scanner(
    r"""
      (?P<number>\d+\.\d*|\.\d+|\d+)
    | (?P<dollar>\$[A-Za-z0-9_.]*)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>'(?:[^'\\]|\\.)*')
    | (?P<op>==|!=|<=|>=|[<>+\-*/()~])
    """,
    frozenset({"and", "or", "not", "exist", "in", "true", "false"}),
)

_LOGIC = {("keyword", "or"): 1, ("keyword", "and"): 2}
_ARITHMETIC = {("op", "+"): 1, ("op", "-"): 1, ("op", "*"): 2, ("op", "/"): 2}


class _ComponentMissing(Exception):
    """The constraint refers to absent data: the whole constraint is false."""


_SHORTHANDS = {
    "$type_name": ("header", "fixed_header", "event_type", "type_name"),
    "$domain_name": ("header", "fixed_header", "event_type", "domain_name"),
    "$event_name": ("header", "fixed_header", "event_name"),
}


def _walk(path: tuple[str, ...]) -> Compiled:
    def walk(event):
        current: Any = event
        for part in path:
            if not isinstance(current, Mapping) or part not in current:
                raise _ComponentMissing(".".join(path))
            current = current[part]
        return current

    return walk


def _lookup(name: str) -> Compiled:
    """``$name``: the filterable data, then the variable header."""

    def lookup(event):
        for section in ("filterable_data", "variable_header"):
            mapping = event.get(section)
            if isinstance(mapping, Mapping) and name in mapping:
                return mapping[name]
        raise _ComponentMissing("$" + name)

    return lookup


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _ComponentMissing(f"non-numeric operand {value!r}")
    return value


def _divide(a, b):
    if b == 0:
        raise _ComponentMissing("division by zero")
    return a / b


_ARITHMETIC_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}
_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compare(op: str, left: Any, right: Any) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        equal = isinstance(left, bool) and isinstance(right, bool) and left is right
    elif isinstance(left, (int, float)) and isinstance(right, (int, float)) or (
        isinstance(left, str) and isinstance(right, str)
    ):
        if op in _ORDERINGS:
            return _ORDERINGS[op](left, right)
        equal = left == right
    else:
        equal = False
    if op in _ORDERINGS:
        raise _ComponentMissing("ordering undefined for these operands")
    return equal if op == "==" else not equal


def _connective(token: Token, left: Compiled, right: Compiled) -> Compiled:
    if token.value == "and":
        return lambda event: left(event) and right(event)
    return lambda event: left(event) or right(event)


def _arithmetic(token: Token, left: Compiled, right: Compiled) -> Compiled:
    apply = _ARITHMETIC_OPS[token.value]
    return lambda event: apply(_number(left(event)), _number(right(event)))


def _not(token: Token, operand: Compiled) -> Compiled:
    return lambda event: not operand(event)


def _minus(token: Token, operand: Compiled) -> Compiled:
    return lambda event: -_number(operand(event))


def _exist(component: Compiled) -> Compiled:
    def exist(event):
        try:
            component(event)
        except _ComponentMissing:
            return False
        return True

    return exist


def _contains(haystack: Any, needle: Any) -> bool:
    return isinstance(haystack, str) and isinstance(needle, str) and needle in haystack


def _member(item: Any, sequence: Any) -> bool:
    return isinstance(sequence, (list, tuple)) and item in sequence


#: the relations between two operands: ``(kind, value)`` of its token -> test
_RELATIONS = {
    **{("op", op): functools.partial(_compare, op) for op in ("==", "!=", *_ORDERINGS)},
    ("op", "~"): _contains,
    ("keyword", "in"): _member,
}


class _Parser:
    def __init__(self, text: str) -> None:
        def error(message: str, position: int) -> FilterError:
            return FilterError(f"TCL syntax error: {message} at offset {position} in {text!r}")

        self.cursor = Cursor(_scan(text, error), error)

    def disjunction(self) -> Compiled:
        return binary(self.cursor, _LOGIC, self.negation, _connective)

    def negation(self) -> Compiled:
        return prefixed(self.cursor, "keyword", ("not",), self.comparison, _not)

    def comparison(self) -> Compiled:
        if self.cursor.accept("keyword", "exist"):
            return _exist(self.component(self.cursor.expect("dollar")))
        left = self.sum()
        relation = _RELATIONS.get((self.cursor.peek().kind, self.cursor.peek().value))
        if relation is None:
            return left
        self.cursor.advance()
        right = self.sum()
        return lambda event: relation(left(event), right(event))

    def sum(self) -> Compiled:
        return binary(self.cursor, _ARITHMETIC, self.signed, _arithmetic)

    def signed(self) -> Compiled:
        return prefixed(self.cursor, "op", ("-",), self.primary, _minus)

    def primary(self) -> Compiled:
        cursor = self.cursor
        token = cursor.advance()
        if token.kind == "number":
            value: Any = decimal(cursor, token)
        elif token.kind == "string":
            value = token.value[1:-1].replace("\\'", "'").replace("\\\\", "\\")
        elif token.kind == "keyword" and token.value in ("true", "false"):
            value = token.value == "true"
        elif token.kind == "dollar":
            return self.component(token)
        elif token.kind == "op" and token.value == "(":
            return cursor.enclosed(self.disjunction, "op", ")")
        elif token.kind == "name":
            raise cursor.fail(f"bare identifier {token.value!r}; TCL components start with '$'", token)
        else:
            raise cursor.fail(f"unexpected {token.value or 'end of input'!r}", token)
        return lambda event: value

    def component(self, token: Token) -> Compiled:
        """The reader of the component ``token`` names, resolved now."""
        text = token.value
        if text in _SHORTHANDS:
            return _walk(_SHORTHANDS[text])
        if text.startswith("$."):
            path = tuple(part for part in text[2:].split(".") if part)
            if not path:
                raise self.cursor.fail(f"empty component path {text!r}", token)
            return _walk(path)
        if text == "$":
            return lambda event: event
        return _lookup(text[1:])


class TclConstraint:
    """A compiled extended-TCL constraint."""

    def __init__(self, expression: str) -> None:
        self.expression = expression.strip()
        if not self.expression:
            raise FilterError("empty TCL constraint")
        parser = _Parser(self.expression)
        self._run = parser.disjunction()
        parser.cursor.end()

    def matches(self, event: Mapping[str, Any]) -> bool:
        """Evaluate against a structured event (nested mappings)."""
        try:
            return bool(self._run(event))
        except _ComponentMissing:
            # TCL semantics: a constraint referring to absent data is false
            return False

    def __repr__(self) -> str:
        return f"TclConstraint({self.expression!r})"
