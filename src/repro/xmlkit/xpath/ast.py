"""AST node definitions for the XPath 1.0 subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union


@dataclass(frozen=True)
class NumberLit:
    value: float


@dataclass(frozen=True)
class StringLit:
    value: str


@dataclass(frozen=True)
class FunctionCall:
    name: str
    args: tuple["Expr", ...]
    #: the library function ``name`` resolved to when the call was parsed
    fn: Callable = field(compare=False, repr=False)


@dataclass(frozen=True)
class BinaryOp:
    op: str  # or and = != < <= > >= + - * div mod |
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnaryMinus:
    operand: "Expr"


@dataclass(frozen=True)
class NodeTest:
    """A node test within a step.

    ``kind`` is ``"name"`` (with ``prefix``/``local``, either possibly ``*``),
    ``"text"`` or ``"node"``.  ``namespace`` is the URI ``prefix`` was bound
    to when the expression was parsed (``""`` for an unprefixed name).
    """

    kind: str
    prefix: Optional[str] = None
    local: Optional[str] = None
    namespace: str = ""


@dataclass(frozen=True)
class Step:
    axis: str  # child attribute self parent descendant descendant-or-self
    test: NodeTest
    predicates: tuple["Expr", ...] = field(default=())


@dataclass(frozen=True)
class LocationPath:
    absolute: bool
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class FilterPath:
    """A primary expression filtered by predicates and/or followed by a path."""

    primary: "Expr"
    predicates: tuple["Expr", ...]
    steps: tuple[Step, ...]


Expr = Union[NumberLit, StringLit, FunctionCall, BinaryOp, UnaryMinus, LocationPath, FilterPath]
