"""Golden answers of the XPath evaluator.

``golden/xpath_answers.json`` holds, for every expression x document pair
below, the XPath type and value (or the error class) that the AST-walking
interpreter gave before expressions were compiled into closures.  The
compiled evaluator must reproduce every cell, except the ones listed in
``SPEC_FIXES``: those changed on purpose, when node-set/boolean comparison
(XPath 1.0 section 3.4), string-to-number conversion and ``floor`` /
``ceiling`` of NaN and the infinities (section 4.4) were brought in line
with the recommendation.

``python tests/xmlkit/test_xpath_golden.py`` prints the answers of the
evaluator in ``src`` in the golden file's format (run it with
``PYTHONPATH=src``); the file itself is a record of the old interpreter and
is not re-recorded to make a cell pass.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

from repro.xmlkit import XPath, parse_xml
from repro.xmlkit.xpath import XPathError
from repro.xmlkit.xpath.nodes import AttributeNode, ElementNode, TextNode, build_tree

from test_xpath_frozen_documents import _ATOMS

GOLDEN = Path(__file__).parent / "golden" / "xpath_answers.json"

NS = {"ev": "urn:grid:events", "a": "urn:one", "b": "urn:two"}

DOCUMENTS = {
    # the match_sparse reading: four fields, a value written in exponent form
    "reading": (
        '<ev:Reading xmlns:ev="urn:grid:events"><ev:host>h042</ev:host>'
        "<ev:site>s07</ev:site><ev:kind>load</ev:kind><ev:value>1e3</ev:value>"
        "</ev:Reading>"
    ),
    "status": (
        '<ev:StatusEvent xmlns:ev="urn:grid:events" level="info" seq="12">\n'
        "  <ev:jobId>job-42</ev:jobId>\n"
        "  <ev:progress>75</ev:progress>\n"
        '  <ev:worker rank="0">n01.cluster</ev:worker>\n'
        '  <ev:worker rank="1">n02.cluster</ev:worker>\n'
        "  <ev:metrics><ev:cpu>0.93</ev:cpu><ev:memory>1024</ev:memory></ev:metrics>\n"
        "</ev:StatusEvent>"
    ),
    "mixed": (
        '<a:r xmlns:a="urn:one" xmlns:b="urn:two" a:k="v">'
        '<b:x id="1">aa</b:x><a:y/>tail<b:z><a:w>3</a:w><a:w> 4 </a:w></b:z>'
        "<a:n>Infinity</a:n><a:m> +5 </a:m><a:u>1_000</a:u></a:r>"
    ),
    "empty": '<a:r xmlns:a="urn:one"/>',
}

_AXES = [
    "child::*",
    "/child::*/child::*",
    "/*/attribute::*",
    "//@*",
    "/*/*/self::*",
    "//*/parent::*",
    "/descendant::*",
    "/descendant-or-self::node()",
    "//text()",
    "/*/descendant::text()",
    "//*/..",
    ".",
    "..",
    "/",
    "/*/*/.",
    "//node()",
    "/descendant-or-self::*/@*",
    "//ev:*",
    "//a:*",
    "/*/self::ev:Reading",
    "//*[self::ev:host]",
    "//@seq",
    "//@a:k",
    "/*/child::text()",
    "//*/attribute::*[1]",
    "/ev:Reading/ev:host",
    "/*/*/*/parent::*/parent::*",
    "//b:z//a:w",
    "//*[*]",
]

_POSITIONS = [
    "/*/*[1]",
    "/*/*[last()]",
    "/*/*[position() = 2]",
    "/*/*[position() > 1][1]",
    "(//*)[2]",
    "(//*)[last()]",
    "/*/*[last() - 1]",
    "//*[1]",
    "(//text())[1]",
    "/*/*[position() mod 2 = 0]",
    "/*/*[3.5]",
    "/*/*[0]",
    "count(/*/*[position() < last()])",
    "//*[last()][1]",
    "/*/*[true()][2]",
]

_UNIONS = [
    "/*/*[1] | /*/*[2]",
    "//text() | //@*",
    "/* | /*",
    "(/*/*[2] | /*/*[1])[1]",
    "count(//* | //@*)",
    "//ev:host | //ev:kind | //missing",
    "(//* | /)[1]",
    "(//@* | //text())[last()]",
    "/ | //missing",
]

_FUNCTIONS = [
    "count(//*)",
    "last()",
    "position()",
    "local-name(/*)",
    "local-name()",
    "local-name(//@*)",
    "namespace-uri(/*)",
    "namespace-uri(//@*)",
    "namespace-uri(//text())",
    "name(/*/*)",
    "name()",
    "string(/*)",
    "string()",
    "string(//@*)",
    "string(//missing)",
    "string(1 div 0)",
    "string(-0.5)",
    "string(3)",
    "concat(local-name(/*), '-', count(//*))",
    "starts-with(string(/*/*), 'h')",
    "contains(string(/*), '0')",
    "substring-before('2026-10-17', '-')",
    "substring-after('2026-10-17', '-')",
    "substring-before('abc', 'z')",
    "substring('12345', 1.5, 2.6)",
    "substring('12345', 0, 3)",
    "substring('12345', 0 div 0, 3)",
    "substring('12345', 2)",
    "substring('12345', 1, 0 div 0)",
    "string-length(string(/*))",
    "string-length()",
    "normalize-space('  a   b  ')",
    "normalize-space()",
    "translate('bar', 'abc', 'ABC')",
    "translate('--aaa--', 'abc-', 'ABC')",
    "boolean(//@*)",
    "boolean('')",
    "boolean(0 div 0)",
    "boolean(-1)",
    "not(/*/*)",
    "true()",
    "false()",
    "number(/*/*[last()])",
    "number('12')",
    "number(' 12 ')",
    "number('-.5')",
    "number('12.')",
    "number('.')",
    "number('')",
    "number()",
    "number(true())",
    "sum(//*[not(*)])",
    "sum(//@*)",
    "sum(//missing)",
    "floor(-1.5)",
    "ceiling(-1.5)",
    "floor('x')",
    "ceiling(1 div 0)",
    "round(2.5)",
    "round(-2.5)",
    "round(-0.4)",
    "round(0 div 0)",
    "round(1 div 0)",
    "sum(1)",
    "local-name(1)",
]

_CONVERSIONS = [
    # string -> number, XPath 1.0 section 4.4
    "number('1e3')",
    "number('inf')",
    "number('Infinity')",
    "number('-Infinity')",
    "number('nan')",
    "number(' +5 ')",
    "number('1_000')",
    "number('\t7\n')",
    "number('--1')",
    "number('١٢')",
    "/ev:Reading[ev:value > 999]",
    "//ev:value = 1000",
    "sum(//ev:value)",
    "//a:n > 0",
    "//a:m = 5",
    "//a:u = 1000",
    "'1e3' = 1000",
    "- '1e3'",
    "'Infinity' > 0",
]

_COMPARISONS = [
    # numbers and scalars
    "1 < 2",
    "2 <= 2",
    "'10' > '9'",
    "1 = 1.0",
    "0 div 0 = 0 div 0",
    "0 div 0 != 0 div 0",
    "1 div 0",
    "-1 div 0",
    "0 div 0",
    "0 div -1",
    "5 mod 3",
    "-5 mod 3",
    "5 mod 0",
    "2 * 3 - 1",
    "- - 3",
    "-'x'",
    "true() + 1",
    "'abc' = 'abc'",
    "'a' != 'b'",
    "true() = 'x'",
    "false() = ''",
    "1 = true()",
    "0 = false()",
    "'1' = 1",
    "true() > false()",
    "'a' < 'b'",
    "1 or 0",
    "'' and true()",
    # node-sets against node-sets
    "//* = //*",
    "//@* = //text()",
    "//* != //*",
    "//@* = //@*",
    "//missing = //*",
    "//missing != //missing",
    "//* < //*",
    "//@* >= //text()",
    # node-sets against numbers and strings
    "//* < 5",
    "5 > //*",
    "//* >= 1024",
    "/*/* = 'h042'",
    "/*/* != 'h042'",
    "'h042' = /*/*",
    "/*/*[1] = 'h042'",
    "//missing = ''",
    "//missing != ''",
    "/ev:Reading[ev:host='h042']",
    "/ev:Reading[ev:host='h041']",
    "/ev:Reading[ev:host!='h042']",
    "/ev:StatusEvent[ev:worker = 'n02.cluster']",
    "//*[@rank = 1]",
    "//@rank = 1",
    "//*[. = '75']",
    # node-sets against booleans, XPath 1.0 section 3.4
    "/a/missing = false()",
    "//missing = false()",
    "//missing != true()",
    "//missing = true()",
    "//missing != false()",
    "/*/* = true()",
    "/*/* = false()",
    "/*/* != false()",
    "//a:y = true()",
    "//a:y = false()",
    "//a:y != true()",
    "//*[not(node())] = true()",
    "true() = //missing",
    "false() = //missing",
    "false() != //a:y",
    "//missing < true()",
    "/*/* > false()",
    "//a:y > false()",
    "/*[ev:host = true()]",
    "/*[ev:missing = false()]",
]

EXPRESSIONS = list(
    dict.fromkeys([*_ATOMS, *_AXES, *_POSITIONS, *_UNIONS, *_FUNCTIONS, *_CONVERSIONS, *_COMPARISONS])
)

#: the cells the two spec fixes changed: (expression, document) -> the new
#: answer.  Everything else must equal the old interpreter's answer.
#:
#: XPath 1.0 section 4.4: a string that is not optional whitespace, an
#: optional minus and a Number (no exponent, no plus sign, no ``Infinity``,
#: no digit separators, ASCII digits only) converts to NaN.
NUMBER_FIX: dict[tuple[str, str], dict] = {
    ('sum(//*[number(.) = number(.)]) > 1', 'reading'): {'type': 'boolean', 'value': False},
    ('number(/*/*[last()])', 'reading'): {'type': 'number', 'value': 'nan'},
    ('number(/*/*[last()])', 'mixed'): {'type': 'number', 'value': 'nan'},
    ("number('1e3')", 'reading'): {'type': 'number', 'value': 'nan'},
    ("number('1e3')", 'status'): {'type': 'number', 'value': 'nan'},
    ("number('1e3')", 'mixed'): {'type': 'number', 'value': 'nan'},
    ("number('1e3')", 'empty'): {'type': 'number', 'value': 'nan'},
    ("number('inf')", 'reading'): {'type': 'number', 'value': 'nan'},
    ("number('inf')", 'status'): {'type': 'number', 'value': 'nan'},
    ("number('inf')", 'mixed'): {'type': 'number', 'value': 'nan'},
    ("number('inf')", 'empty'): {'type': 'number', 'value': 'nan'},
    ("number('Infinity')", 'reading'): {'type': 'number', 'value': 'nan'},
    ("number('Infinity')", 'status'): {'type': 'number', 'value': 'nan'},
    ("number('Infinity')", 'mixed'): {'type': 'number', 'value': 'nan'},
    ("number('Infinity')", 'empty'): {'type': 'number', 'value': 'nan'},
    ("number('-Infinity')", 'reading'): {'type': 'number', 'value': 'nan'},
    ("number('-Infinity')", 'status'): {'type': 'number', 'value': 'nan'},
    ("number('-Infinity')", 'mixed'): {'type': 'number', 'value': 'nan'},
    ("number('-Infinity')", 'empty'): {'type': 'number', 'value': 'nan'},
    ("number(' +5 ')", 'reading'): {'type': 'number', 'value': 'nan'},
    ("number(' +5 ')", 'status'): {'type': 'number', 'value': 'nan'},
    ("number(' +5 ')", 'mixed'): {'type': 'number', 'value': 'nan'},
    ("number(' +5 ')", 'empty'): {'type': 'number', 'value': 'nan'},
    ("number('1_000')", 'reading'): {'type': 'number', 'value': 'nan'},
    ("number('1_000')", 'status'): {'type': 'number', 'value': 'nan'},
    ("number('1_000')", 'mixed'): {'type': 'number', 'value': 'nan'},
    ("number('1_000')", 'empty'): {'type': 'number', 'value': 'nan'},
    ("number('١٢')", 'reading'): {'type': 'number', 'value': 'nan'},
    ("number('١٢')", 'status'): {'type': 'number', 'value': 'nan'},
    ("number('١٢')", 'mixed'): {'type': 'number', 'value': 'nan'},
    ("number('١٢')", 'empty'): {'type': 'number', 'value': 'nan'},
    ('/ev:Reading[ev:value > 999]', 'reading'): {'type': 'node-set', 'value': []},
    ('//ev:value = 1000', 'reading'): {'type': 'boolean', 'value': False},
    ('sum(//ev:value)', 'reading'): {'type': 'number', 'value': 'nan'},
    ('//a:n > 0', 'mixed'): {'type': 'boolean', 'value': False},
    ('//a:m = 5', 'mixed'): {'type': 'boolean', 'value': False},
    ('//a:u = 1000', 'mixed'): {'type': 'boolean', 'value': False},
    ("'1e3' = 1000", 'reading'): {'type': 'boolean', 'value': False},
    ("'1e3' = 1000", 'status'): {'type': 'boolean', 'value': False},
    ("'1e3' = 1000", 'mixed'): {'type': 'boolean', 'value': False},
    ("'1e3' = 1000", 'empty'): {'type': 'boolean', 'value': False},
    ("- '1e3'", 'reading'): {'type': 'number', 'value': 'nan'},
    ("- '1e3'", 'status'): {'type': 'number', 'value': 'nan'},
    ("- '1e3'", 'mixed'): {'type': 'number', 'value': 'nan'},
    ("- '1e3'", 'empty'): {'type': 'number', 'value': 'nan'},
    ("'Infinity' > 0", 'reading'): {'type': 'boolean', 'value': False},
    ("'Infinity' > 0", 'status'): {'type': 'boolean', 'value': False},
    ("'Infinity' > 0", 'mixed'): {'type': 'boolean', 'value': False},
    ("'Infinity' > 0", 'empty'): {'type': 'boolean', 'value': False},
    ('//* >= 1024', 'mixed'): {'type': 'boolean', 'value': False},
}
#: XPath 1.0 section 3.4: a node-set compared with a boolean compares
#: ``boolean(node-set)`` with it, so an empty node-set equals ``false()``.
BOOLEAN_FIX: dict[tuple[str, str], dict] = {
    ('/a/missing = false()', 'reading'): {'type': 'boolean', 'value': True},
    ('/a/missing = false()', 'status'): {'type': 'boolean', 'value': True},
    ('/a/missing = false()', 'mixed'): {'type': 'boolean', 'value': True},
    ('/a/missing = false()', 'empty'): {'type': 'boolean', 'value': True},
    ('//missing = false()', 'reading'): {'type': 'boolean', 'value': True},
    ('//missing = false()', 'status'): {'type': 'boolean', 'value': True},
    ('//missing = false()', 'mixed'): {'type': 'boolean', 'value': True},
    ('//missing = false()', 'empty'): {'type': 'boolean', 'value': True},
    ('//missing != true()', 'reading'): {'type': 'boolean', 'value': True},
    ('//missing != true()', 'status'): {'type': 'boolean', 'value': True},
    ('//missing != true()', 'mixed'): {'type': 'boolean', 'value': True},
    ('//missing != true()', 'empty'): {'type': 'boolean', 'value': True},
    ('/*/* = false()', 'mixed'): {'type': 'boolean', 'value': False},
    ('/*/* = false()', 'empty'): {'type': 'boolean', 'value': True},
    ('//a:y = true()', 'mixed'): {'type': 'boolean', 'value': True},
    ('//a:y = false()', 'reading'): {'type': 'boolean', 'value': True},
    ('//a:y = false()', 'status'): {'type': 'boolean', 'value': True},
    ('//a:y = false()', 'mixed'): {'type': 'boolean', 'value': False},
    ('//a:y = false()', 'empty'): {'type': 'boolean', 'value': True},
    ('//a:y != true()', 'reading'): {'type': 'boolean', 'value': True},
    ('//a:y != true()', 'status'): {'type': 'boolean', 'value': True},
    ('//a:y != true()', 'mixed'): {'type': 'boolean', 'value': False},
    ('//a:y != true()', 'empty'): {'type': 'boolean', 'value': True},
    ('//*[not(node())] = true()', 'mixed'): {'type': 'boolean', 'value': True},
    ('//*[not(node())] = true()', 'empty'): {'type': 'boolean', 'value': True},
    ('false() = //missing', 'reading'): {'type': 'boolean', 'value': True},
    ('false() = //missing', 'status'): {'type': 'boolean', 'value': True},
    ('false() = //missing', 'mixed'): {'type': 'boolean', 'value': True},
    ('false() = //missing', 'empty'): {'type': 'boolean', 'value': True},
    ('false() != //a:y', 'mixed'): {'type': 'boolean', 'value': True},
    ('//missing < true()', 'reading'): {'type': 'boolean', 'value': True},
    ('//missing < true()', 'status'): {'type': 'boolean', 'value': True},
    ('//missing < true()', 'mixed'): {'type': 'boolean', 'value': True},
    ('//missing < true()', 'empty'): {'type': 'boolean', 'value': True},
    ('//a:y > false()', 'mixed'): {'type': 'boolean', 'value': True},
    ('/*[ev:missing = false()]', 'reading'): {'type': 'node-set', 'value': ['element#1 {urn:grid:events}Reading']},
    ('/*[ev:missing = false()]', 'status'): {'type': 'node-set', 'value': ['element#1 {urn:grid:events}StatusEvent']},
    ('/*[ev:missing = false()]', 'mixed'): {'type': 'node-set', 'value': ['element#1 {urn:one}r']},
    ('/*[ev:missing = false()]', 'empty'): {'type': 'node-set', 'value': ['element#1 {urn:one}r']},
}
#: XPath 1.0 section 4.4: floor() and ceiling() of NaN or an infinity return
#: it (they raised ValueError and OverflowError from math).
ROUNDING_FIX: dict[tuple[str, str], dict] = {
    **{("floor('x')", document): {'type': 'number', 'value': 'nan'} for document in DOCUMENTS},
    **{('ceiling(1 div 0)', document): {'type': 'number', 'value': 'inf'} for document in DOCUMENTS},
}
#: XPath 1.0 section 2.4: a step's predicates count proximity positions
#: among the nodes each context node gathers (they counted over the nodes
#: gathered from all context nodes, so ``//*[1]`` was the root element alone).
POSITION_FIX: dict[tuple[str, str], dict] = {
    ('//*/attribute::*[1]', 'status'): {'type': 'node-set', 'value': ["attribute#2 level='info'", "attribute#12 rank='0'", "attribute#16 rank='1'"]},
    ('//*/attribute::*[1]', 'mixed'): {'type': 'node-set', 'value': ["attribute#2 {urn:one}k='v'", "attribute#4 id='1'"]},
    ('//*[1]', 'reading'): {'type': 'node-set', 'value': ['element#1 {urn:grid:events}Reading', 'element#2 {urn:grid:events}host']},
    ('//*[1]', 'status'): {'type': 'node-set', 'value': ['element#1 {urn:grid:events}StatusEvent', 'element#5 {urn:grid:events}jobId', 'element#20 {urn:grid:events}cpu']},
    ('//*[1]', 'mixed'): {'type': 'node-set', 'value': ['element#1 {urn:one}r', 'element#3 {urn:two}x', 'element#9 {urn:one}w']},
    ('//*[last()][1]', 'reading'): {'type': 'node-set', 'value': ['element#1 {urn:grid:events}Reading', 'element#8 {urn:grid:events}value']},
    ('//*[last()][1]', 'status'): {'type': 'node-set', 'value': ['element#1 {urn:grid:events}StatusEvent', 'element#19 {urn:grid:events}metrics', 'element#22 {urn:grid:events}memory']},
    ('//*[last()][1]', 'mixed'): {'type': 'node-set', 'value': ['element#1 {urn:one}r', 'element#11 {urn:one}w', 'element#17 {urn:one}u']},
}
SPEC_FIXES = {**NUMBER_FIX, **BOOLEAN_FIX, **ROUNDING_FIX, **POSITION_FIX}


def _node(node) -> str:
    if isinstance(node, ElementNode):
        return f"element#{node.order} {node.name}"
    if isinstance(node, AttributeNode):
        return f"attribute#{node.order} {node.name}={node.value!r}"
    if isinstance(node, TextNode):
        return f"text#{node.order} {node.value!r}"
    return f"root#{node.order}"


def answer(expression: str, document: str) -> dict:
    """The evaluator's answer for one cell, in the golden file's format."""
    root = parse_xml(DOCUMENTS[document])
    try:
        value = XPath(expression, NS)._value(build_tree(root))
    except (XPathError, ArithmeticError, ValueError) as exc:
        # the old floor() and ceiling() of NaN or an infinity raised from
        # math; the record keeps that as it is
        return {"type": "error", "value": type(exc).__name__}
    if isinstance(value, bool):
        return {"type": "boolean", "value": value}
    if isinstance(value, float):
        return {"type": "number", "value": repr(value)}
    if isinstance(value, str):
        return {"type": "string", "value": value}
    return {"type": "node-set", "value": [_node(node) for node in value]}


def _cells() -> list[tuple[str, str]]:
    return [(expression, document) for expression in EXPRESSIONS for document in DOCUMENTS]


def _record() -> dict:
    return {
        "namespaces": NS,
        "documents": DOCUMENTS,
        "cells": [
            {"expression": expression, "document": document, **answer(expression, document)}
            for expression, document in _cells()
        ],
    }


@functools.lru_cache(maxsize=None)
def _golden() -> dict[tuple[str, str], dict]:
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert recorded["namespaces"] == NS and recorded["documents"] == DOCUMENTS
    return {
        (cell["expression"], cell["document"]): {"type": cell["type"], "value": cell["value"]}
        for cell in recorded["cells"]
    }


class TestGoldenAnswers:
    def test_the_record_covers_every_cell(self):
        golden = _golden()
        assert set(golden) == set(_cells())
        assert len(golden) >= 200
        assert set(SPEC_FIXES) <= set(golden)

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_every_cell_is_reproduced(self, expression):
        golden = _golden()
        for document in DOCUMENTS:
            cell = (expression, document)
            expected = SPEC_FIXES.get(cell, golden[cell])
            assert answer(expression, document) == expected, cell

    def test_each_spec_fix_changed_its_cell(self):
        golden = _golden()
        for cell, fixed in SPEC_FIXES.items():
            assert golden[cell] != fixed, cell


def _dump(record: dict) -> str:
    """The golden file's layout: one cell a line, so a diff names the cell."""
    cells = ",\n".join(json.dumps(cell, ensure_ascii=False) for cell in record["cells"])
    return (
        f'{{"namespaces": {json.dumps(record["namespaces"])},\n'
        f'"documents": {json.dumps(record["documents"], ensure_ascii=False)},\n'
        f'"cells": [\n{cells}\n]}}\n'
    )


if __name__ == "__main__":
    sys.stdout.write(_dump(_record()))
