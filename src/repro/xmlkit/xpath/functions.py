"""The XPath 1.0 core function library (subset used by the filter dialects)."""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.xmlkit.xpath.errors import XPathEvaluationError
from repro.xmlkit.xpath.nodes import AttributeNode, ElementNode, XNode
from repro.xmlkit.xpath.values import (
    XPathValue,
    is_node_set,
    to_boolean,
    to_number,
    to_string,
)


class Context:
    """Evaluation context: node and position/size (prefixes and function
    names are resolved when the expression is compiled)."""

    __slots__ = ("node", "position", "size")

    def __init__(self, node: XNode, position: int, size: int) -> None:
        self.node = node
        self.position = position
        self.size = size


def _node_name(node: XNode) -> str | None:
    if isinstance(node, (ElementNode, AttributeNode)):
        return node.name.local
    return None


def _node_namespace(node: XNode) -> str | None:
    if isinstance(node, (ElementNode, AttributeNode)):
        return node.name.namespace
    return None


def fn_last(ctx: Context, args: list[XPathValue]) -> XPathValue:
    return float(ctx.size)


def fn_position(ctx: Context, args: list[XPathValue]) -> XPathValue:
    return float(ctx.position)


def fn_count(ctx: Context, args: list[XPathValue]) -> XPathValue:
    if not is_node_set(args[0]):
        raise XPathEvaluationError("count() requires a node-set")
    return float(len(args[0]))


def _name_arg(ctx: Context, args: list[XPathValue], extractor) -> str:
    if not args:
        node: XNode | None = ctx.node
    else:
        if not is_node_set(args[0]):
            raise XPathEvaluationError("argument must be a node-set")
        node = args[0][0] if args[0] else None
    if node is None:
        return ""
    return extractor(node) or ""


def fn_local_name(ctx: Context, args: list[XPathValue]) -> XPathValue:
    return _name_arg(ctx, args, _node_name)


def fn_namespace_uri(ctx: Context, args: list[XPathValue]) -> XPathValue:
    return _name_arg(ctx, args, _node_namespace)


def fn_name(ctx: Context, args: list[XPathValue]) -> XPathValue:
    # without prefix bookkeeping in XElem, name() == local-name()
    return _name_arg(ctx, args, _node_name)


def fn_string(ctx: Context, args: list[XPathValue]) -> XPathValue:
    if not args:
        return ctx.node.string_value()
    return to_string(args[0])


def fn_concat(ctx: Context, args: list[XPathValue]) -> XPathValue:
    return "".join(to_string(arg) for arg in args)


def fn_starts_with(ctx: Context, args: list[XPathValue]) -> XPathValue:
    return to_string(args[0]).startswith(to_string(args[1]))


def fn_contains(ctx: Context, args: list[XPathValue]) -> XPathValue:
    return to_string(args[1]) in to_string(args[0])


def fn_substring_before(ctx: Context, args: list[XPathValue]) -> XPathValue:
    haystack, needle = to_string(args[0]), to_string(args[1])
    index = haystack.find(needle)
    return haystack[:index] if index >= 0 else ""


def fn_substring_after(ctx: Context, args: list[XPathValue]) -> XPathValue:
    haystack, needle = to_string(args[0]), to_string(args[1])
    index = haystack.find(needle)
    return haystack[index + len(needle):] if index >= 0 else ""


def fn_substring(ctx: Context, args: list[XPathValue]) -> XPathValue:
    text = to_string(args[0])
    start = to_number(args[1])
    if math.isnan(start):
        return ""
    start_round = round(start)
    if len(args) == 3:
        length = to_number(args[2])
        if math.isnan(length):
            return ""
        end_round = start_round + round(length)
    else:
        end_round = len(text) + 1
    # XPath positions are 1-based; clamp to the string
    begin = max(start_round, 1)
    end = min(end_round, len(text) + 1)
    if begin >= end:
        return ""
    return text[begin - 1 : end - 1]


def fn_string_length(ctx: Context, args: list[XPathValue]) -> XPathValue:
    text = ctx.node.string_value() if not args else to_string(args[0])
    return float(len(text))


def fn_normalize_space(ctx: Context, args: list[XPathValue]) -> XPathValue:
    text = ctx.node.string_value() if not args else to_string(args[0])
    return " ".join(text.split())


def fn_translate(ctx: Context, args: list[XPathValue]) -> XPathValue:
    text, src, dst = (to_string(arg) for arg in args)
    table: dict[int, int | None] = {}
    for i, ch in enumerate(src):
        if ord(ch) in table:
            continue
        table[ord(ch)] = ord(dst[i]) if i < len(dst) else None
    return text.translate(table)


def fn_boolean(ctx: Context, args: list[XPathValue]) -> XPathValue:
    return to_boolean(args[0])


def fn_not(ctx: Context, args: list[XPathValue]) -> XPathValue:
    return not to_boolean(args[0])


def fn_true(ctx: Context, args: list[XPathValue]) -> XPathValue:
    return True


def fn_false(ctx: Context, args: list[XPathValue]) -> XPathValue:
    return False


def fn_number(ctx: Context, args: list[XPathValue]) -> XPathValue:
    if not args:
        return to_number(ctx.node.string_value())
    return to_number(args[0])


def fn_sum(ctx: Context, args: list[XPathValue]) -> XPathValue:
    if not is_node_set(args[0]):
        raise XPathEvaluationError("sum() requires a node-set")
    return float(sum(to_number(node.string_value()) for node in args[0]))


def _rounding(to_integer: Callable[[float], float]) -> Callable[..., XPathValue]:
    """floor(), ceiling() or round(): NaN and the infinities are returned as
    they are (XPath 1.0 section 4.4)."""

    def fn(ctx: Context, args: list[XPathValue]) -> XPathValue:
        value = to_number(args[0])
        return float(to_integer(value)) if math.isfinite(value) else value

    return fn


#: name -> (implementation, fewest arguments, most arguments or None for any
#: number); the parser checks name and arity, so a call that compiles runs
FUNCTIONS: dict[str, tuple[Callable[..., XPathValue], int, Optional[int]]] = {
    "last": (fn_last, 0, 0),
    "position": (fn_position, 0, 0),
    "count": (fn_count, 1, 1),
    "local-name": (fn_local_name, 0, 1),
    "namespace-uri": (fn_namespace_uri, 0, 1),
    "name": (fn_name, 0, 1),
    "string": (fn_string, 0, 1),
    "concat": (fn_concat, 2, None),
    "starts-with": (fn_starts_with, 2, 2),
    "contains": (fn_contains, 2, 2),
    "substring-before": (fn_substring_before, 2, 2),
    "substring-after": (fn_substring_after, 2, 2),
    "substring": (fn_substring, 2, 3),
    "string-length": (fn_string_length, 0, 1),
    "normalize-space": (fn_normalize_space, 0, 1),
    "translate": (fn_translate, 3, 3),
    "boolean": (fn_boolean, 1, 1),
    "not": (fn_not, 1, 1),
    "true": (fn_true, 0, 0),
    "false": (fn_false, 0, 0),
    "number": (fn_number, 0, 1),
    "sum": (fn_sum, 1, 1),
    "floor": (_rounding(math.floor), 1, 1),
    "ceiling": (_rounding(math.ceil), 1, 1),
    "round": (_rounding(lambda value: math.floor(value + 0.5)), 1, 1),  # .5 goes up
}
