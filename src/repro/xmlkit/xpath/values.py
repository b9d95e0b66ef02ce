"""XPath 1.0 value types and coercion rules.

The four XPath value types are node-set, boolean, number and string.  The
coercion rules here follow XPath 1.0 sections 3.4 (booleans, including
existential node-set comparison) and 4.x (conversion functions).
"""

from __future__ import annotations

import math
import re
from typing import Union

from repro.xmlkit.xpath.nodes import XNode

NodeSet = list  # of XNode, kept in document order with no duplicates
XPathValue = Union[NodeSet, bool, float, str]


def is_node_set(value: XPathValue) -> bool:
    return isinstance(value, list)


def to_boolean(value: XPathValue) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0.0 and not math.isnan(value)
    if isinstance(value, str):
        return len(value) > 0
    return len(value) > 0  # node-set: true iff non-empty


#: XPath 1.0 section 4.4: optional whitespace, an optional minus sign, a
#: Number (``Digits ('.' Digits?)? | '.' Digits``), optional whitespace.
#: No exponent, no plus sign, no ``inf``/``nan`` words, no digit separators.
_NUMBER = re.compile(r"[ \t\r\n]*(-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+))[ \t\r\n]*")


def to_number(value: XPathValue) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        number = _NUMBER.fullmatch(value)
        return float(number.group(1)) if number else math.nan
    return to_number(to_string(value))  # node-set: via string-value


def to_string(value: XPathValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, str):
        return value
    if not value:
        return ""
    return value[0].string_value()  # node-set: first node in document order


def format_number(number: float) -> str:
    """XPath number-to-string: integers print without a decimal point, and
    nothing prints with an exponent (section 4.2), so the text reads back as
    the same number."""
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "Infinity" if number > 0 else "-Infinity"
    if number == int(number):
        return str(int(number))
    text = repr(number)
    if "e" not in text:
        return text
    # a non-integer has an exponent only below 1e-4: the shortest repr's
    # digits behind the zeros its exponent stands for (formatting the float
    # to that many places could round its last digit the other way)
    mantissa, exponent = text.split("e")
    sign, digits = ("-" if number < 0 else ""), mantissa.lstrip("-").replace(".", "")
    return f"{sign}0.{'0' * (-int(exponent) - 1)}{digits}"


def compare(op: str, left: XPathValue, right: XPathValue) -> bool:
    """XPath 1.0 comparison, with existential node-set semantics.

    A node-set compared with a boolean is converted with ``boolean()`` first
    (section 3.4), so an empty node-set equals ``false()``.
    """
    if isinstance(left, bool) and is_node_set(right):
        right = to_boolean(right)
    elif isinstance(right, bool) and is_node_set(left):
        left = to_boolean(left)
    if is_node_set(left) and is_node_set(right):
        left_values = {node.string_value() for node in left}
        right_values = {node.string_value() for node in right}
        if op == "=":
            return bool(left_values & right_values)
        if op == "!=":
            return any(a != b for a in left_values for b in right_values)
        return any(
            _numeric_compare(op, to_number(a), to_number(b))
            for a in left_values
            for b in right_values
        )
    if is_node_set(left):
        return any(_compare_scalar(op, node.string_value(), right) for node in left)
    if is_node_set(right):
        flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        return any(_compare_scalar(flipped, node.string_value(), left) for node in right)
    return _compare_scalar(op, left, right)


def _compare_scalar(op: str, left: XPathValue, right: XPathValue) -> bool:
    if op in ("=", "!="):
        if isinstance(left, bool) or isinstance(right, bool):
            result = to_boolean(left) == to_boolean(right)
        elif isinstance(left, float) or isinstance(right, float):
            result = to_number(left) == to_number(right)
        else:
            result = to_string(left) == to_string(right)
        return result if op == "=" else not result
    return _numeric_compare(op, to_number(left), to_number(right))


def _numeric_compare(op: str, a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def merge_node_sets(a: NodeSet, b: NodeSet) -> NodeSet:
    """Union of two node-sets, deduplicated, in document order."""
    seen: set[int] = set()
    merged: list[XNode] = []
    for node in sorted([*a, *b], key=lambda n: n.order):
        if id(node) not in seen:
            seen.add(id(node))
            merged.append(node)
    return merged
