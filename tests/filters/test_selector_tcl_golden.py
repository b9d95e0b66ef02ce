"""Golden answers of the JMS selector and CORBA TCL constraint languages.

``golden/selector_tcl_answers.json`` holds, for every expression x document
pair below, what ``MessageSelector(expr).matches(fields)`` or
``TclConstraint(expr).matches(event)`` answered when both languages were
parsed into tuple ASTs and walked by an interpreter: the boolean, or the
error class and whether it was raised at compile or at match time.  The
closure-compiling front ends must reproduce every cell, except the ones
listed in ``SPEC_FIXES``: those changed on purpose.

``python tests/filters/test_selector_tcl_golden.py`` prints the answers of
the code in ``src`` in the golden file's format (run it with
``PYTHONPATH=src``); the file itself is a record of the old interpreters and
is not re-recorded to make a cell pass.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

from repro.filters.selector import MessageSelector
from repro.filters.tcl import TclConstraint

GOLDEN = Path(__file__).parent / "golden" / "selector_tcl_answers.json"

SELECTOR_DOCUMENTS = {
    "job": {
        "JMSPriority": 7,
        "JMSType": "status",
        "severity": "warning",
        "progress": 75.0,
        "retries": 0,
        "active": True,
        "label": "job_42%done",
        "name": "O'Brien",
    },
    "sparse": {"JMSPriority": 4, "JMSType": "alert"},
    "types": {
        "x": "5",
        "y": 5,
        "b": False,
        "s": "",
        "n": None,
        "f": 2.5,
        "neg": -3,
        "big": 1e300,
        "a.b": 1,
        "$x": "dollar",
        "_y": 5,
    },
    "empty": {},
}

TCL_DOCUMENTS = {
    "job": {
        "header": {
            "fixed_header": {
                "event_type": {"domain_name": "grid", "type_name": "JobStatus"},
                "event_name": "progress-update",
            },
            "variable_header": {"priority": 3},
        },
        "filterable_data": {
            "progress": 75,
            "severity": "warning",
            "job": "job-42",
            "tags": ["urgent", "batch"],
        },
        "variable_header": {"priority": 3},
    },
    "types": {
        "header": {
            "fixed_header": {
                "event_type": {"domain_name": "", "type_name": 7},
                "event_name": "n",
            }
        },
        "filterable_data": {
            "progress": "75",
            "severity": 75,
            "flag": True,
            "zero": 0,
            "empty": "",
            "tags": ["urgent"],
            "job": ["job"],
            "x.y": 1,
            "quote": "a'b",
            "nested": {"a": 1},
        },
        "variable_header": {"priority": 2.5, "progress": 1},
    },
    "bare": {
        "header": {
            "fixed_header": {
                "event_type": {"domain_name": "grid", "type_name": "JobStatus"},
                "event_name": "x",
            }
        }
    },
    "empty": {},
}

_SELECTOR_COMPARISONS = [
    "JMSPriority = 7",
    "JMSPriority <> 7",
    "JMSPriority < 7",
    "JMSPriority <= 7",
    "JMSPriority > 6",
    "JMSPriority >= 8",
    "progress = 75",
    "JMSType = 'status'",
    "JMSType <> 'status'",
    "JMSType > 'a'",
    "active = TRUE",
    "active <> FALSE",
    "active = 1",
    "TRUE = TRUE",
    "FALSE <> TRUE",
    "TRUE < FALSE",
    "JMSType = 7",
    "x = 5",
    "y = '5'",
    "b = FALSE",
    "s = ''",
    "n = n",
    "'a' = 'a'",
    "1 = 1.0",
    "1 < 2.5",
    "big > 1",
    "a.b = 1",
    "$x = 'dollar'",
    "_y = 5",
]

_SELECTOR_ARITHMETIC = [
    "retries + 2 * 3 = 6",
    "(retries + 2) * 3 = 6",
    "progress / 3 = 25",
    "progress / retries > 1",
    "-JMSPriority = -7",
    "+JMSPriority = 7",
    "- -JMSPriority = 7",
    "JMSType + 1 = 2",
    "JMSPriority - 10 < 0",
    "JMSPriority * 1.5 = 10.5",
    "7 / 2 = 3.5",
    "6 / 3 = 2",
    "f * 2 = 5",
    "neg * -1 = 3",
    "big * big > 0",
    "1 + TRUE = 2",
    "-'x' IS NULL",
    "-b IS NULL",
    "1 - 2 - 3 = -4",
    "2 * 3 / 4 = 1.5",
    ".5 + 1. = 1.5",
]

_SELECTOR_LOGIC = [
    "missing = 1 AND JMSPriority = 7",
    "missing = 1 OR JMSPriority = 7",
    "NOT missing = 1",
    "NOT (missing = 1) OR TRUE",
    "missing = 1 OR missing = 2",
    "(missing = 1 AND FALSE) IS NULL",
    "(missing = 1 AND TRUE) IS NULL",
    "(missing = 1 OR TRUE) IS NOT NULL",
    "NOT NOT active = TRUE",
    "active AND TRUE",
    "JMSPriority AND TRUE",
    "NOT JMSPriority",
    "TRUE OR missing",
    "FALSE AND missing",
    "missing OR FALSE",
    "NOT (TRUE AND FALSE) AND NOT FALSE",
    "TRUE",
    "JMSType",
    "JMSPriority = 7 AND JMSType = 'status' OR severity = 'x'",
    "JMSPriority = 0 OR JMSType = 'status' AND severity = 'x'",
]

_SELECTOR_PREDICATES = [
    "progress BETWEEN 50 AND 100",
    "progress NOT BETWEEN 80 AND 100",
    "missing BETWEEN 1 AND 2",
    "missing NOT BETWEEN 1 AND 2",
    "JMSType BETWEEN 'a' AND 'z'",
    "JMSPriority BETWEEN 7 AND 7",
    "JMSPriority BETWEEN 1 + 1 AND 2 * 4",
    "severity IN ('warning', 'error')",
    "severity NOT IN ('info')",
    "missing IN ('a')",
    "missing NOT IN ('a')",
    "JMSPriority IN ('7')",
    "JMSType LIKE 'sta%'",
    "JMSType LIKE 'stat_s'",
    "label LIKE 'job!_42!%done' ESCAPE '!'",
    "JMSType LIKE 'st!_tus' ESCAPE '!'",
    "JMSType NOT LIKE 'err%'",
    "missing LIKE '%'",
    "missing NOT LIKE '%'",
    "JMSPriority LIKE '7'",
    "label LIKE '%!%%' ESCAPE '!'",
    "label LIKE 'job_42%'",
    "s LIKE ''",
    "label LIKE 'JOB%'",
    "JMSType LIKE '.*'",
    "label LIKE '%done!' ESCAPE '!'",
    "name = 'O''Brien'",
    "name LIKE 'O''%'",
    "missing IS NULL",
    "JMSType IS NOT NULL",
    "JMSType IS NULL",
    "n IS NOT NULL",
    "NOT JMSType IS NULL",
    "jmsPriority is not null or JMSPriority = 7",
    "severity In ('warning')",
    "JMSPriority not between 1 and 5",
    "JMSPriority NOT LIKE '7'",
    "JMSPriority NOT IN ('7')",
    "active NOT BETWEEN 0 AND 1",
    "NOT missing BETWEEN 1 AND 2",
    "+'x' = 'x'",
    "JMSPriority - -7 = 14",
    "NOT NOT NOT active = TRUE",
    "label LIKE '%' ESCAPE '%'",
    "label LIKE 'job!' ESCAPE '!'",
]

_SELECTOR_MALFORMED = [
    "",
    "   ",
    "AND",
    "x =",
    "x BETWEEN 1",
    "x IN ()",
    "x IN (1)",
    "x LIKE 'a' ESCAPE 'ab'",
    "x LIKE y",
    "( x = 1",
    "x = 1 )",
    "x != 1",
    "x = 'unterminated",
    "1e3 = 1",
    "x IS 1",
    "x NOT = 1",
    "x = = 1",
    "NOT",
    "x BETWEEN 1 OR 2",
    "2 > 1 = TRUE",
    "x IN ('a',)",
    "x ESCAPE '!'",
    "x = 1 AND",
    "#",
    "x IS NOT",
    "()",
    "x = 1 x = 2",
    "-",
    DEEP_SELECTOR := "(" * 200 + "x = 1" + ")" * 200,
]

SELECTORS = list(
    dict.fromkeys(
        [
            *_SELECTOR_COMPARISONS,
            *_SELECTOR_ARITHMETIC,
            *_SELECTOR_LOGIC,
            *_SELECTOR_PREDICATES,
            *_SELECTOR_MALFORMED,
        ]
    )
)

_TCL_COMPONENTS = [
    "$type_name == 'JobStatus'",
    "$domain_name == 'grid'",
    "$event_name == 'progress-update'",
    "$.header.fixed_header.event_type.type_name == 'JobStatus'",
    "$.header.variable_header.priority == 3",
    "$progress == 75",
    "$priority == 3",
    "$nonexistent == 1",
    "exist $progress",
    "exist $nonexistent",
    "exist $type_name",
    "exist $.header",
    "exist $.nope.deeper",
    "exist $",
    "$ == 1",
    "$.header == 1",
    "$.",
    "$. == 1",
    "exist $.",
    "$.header..fixed_header.event_name == 'progress-update'",
    "$tags == 'x'",
    "$job",
    "$progress",
    "$zero",
    "$flag",
    "$empty",
    "$x.y == 1",
    "exist $x.y",
    "$quote == 'a\\'b'",
    "$nested == $nested",
    "not exist $progress",
    "not not $flag",
    "exist $.header.fixed_header.event_name",
    "$ == $",
    "'a' in $",
    "$tags ~ 'u'",
    "$priority + $progress > 3",
    "-$severity == -75",
    "$nested.a == 1",
    "$.filterable_data.nested.a == 1",
    "$.filterable_data.tags.x",
    "exist $..",
    "$.. == 1",
]

_TCL_OPERATORS = [
    "$progress > 50 and $progress <= 75",
    "$progress != 80",
    "$progress < 50",
    "$progress >= 75",
    "$progress > 50 or $severity == 'fatal'",
    "not ($severity == 'fatal')",
    "not $severity == 'fatal'",
    "$progress + 25 == 100",
    "$progress * 2 > 100",
    "-$progress == -75",
    "- -$progress == 75",
    "$progress / 0 > 1",
    "$progress / 4 == 18.75",
    "$progress - 75 == 0",
    "$severity == 75",
    "$severity != 75",
    "$severity < 'x'",
    "$severity < 75",
    "$job ~ 'job'",
    "$job ~ 'xyz'",
    "$progress ~ '7'",
    "'urgent' in $tags",
    "'idle' in $tags",
    "'urgent' in $job",
    "$missing == 1 or $progress == 75",
    "not $missing == 1",
    "exist $missing or $progress == 75",
    "TRUE == true",
    "true",
    "false",
    "not true",
    "true and false",
    "true or false",
    "$flag == true",
    "$flag != false",
    "$flag < true",
    "($progress and $severity) == 'warning'",
    "($zero or $progress) == 75",
    "1 == 1.0",
    "'a' < 'b'",
    "$progress - -25 == 100",
    "2 * 3 + 1 == 7",
    "2 * (3 + 1) == 8",
    "7 / 2 == 3.5",
    "-'x' == 1",
    "$tags == $tags",
    "$ ~ 'a'",
    "'s' in 's'",
    "$progress * 1.5 > 100",
    "0",
    "1",
    "''",
    "'x'",
    "$empty ~ ''",
    "exist $zero and not $zero",
    "exist $progress and $progress > 70 or $type_name == 'T'",
    "$priority > 2 and exist $domain_name",
]

_TCL_MALFORMED = [
    "",
    "$x ==",
    "(",
    "$x in",
    "foo == 1",
    "'s' ~",
    "$x = 1",
    "$x <> 1",
    "exist 1",
    "exist",
    "$x == 1 )",
    "($x == 1",
    "not",
    "$x == == 1",
    "#",
    "'unterminated",
    "$x == 1 and",
    "1 == 1 == 1",
    "and",
    "$x ~ ~ 'a'",
    "+$x == 1",
    "exist ($x)",
    DEEP_CONSTRAINT := "(" * 200 + "$x == 1" + ")" * 200,
]

CONSTRAINTS = list(dict.fromkeys([*_TCL_COMPONENTS, *_TCL_OPERATORS, *_TCL_MALFORMED]))

#: the cells changed on purpose: (language, expression, document) -> the new
#: answer.  Everything else must equal the old interpreters' answer.
#:
#: Both parsers recursed without a bound and raised ``RecursionError``; an
#: expression nested deeper than ``grammar.MAX_DEPTH`` is a syntax error.
#: A TCL component path with no step (``$.``) raised ``FilterError`` from
#: every match; it is refused when the constraint is built.
SPEC_FIXES: dict[tuple[str, str, str], dict] = {
    (language, expression, document): {"error": "FilterError", "at": "compile"}
    for language, expressions, documents in (
        ("selector", [DEEP_SELECTOR], SELECTOR_DOCUMENTS),
        ("tcl", [DEEP_CONSTRAINT, "$.", "$. == 1", "exist $.", "exist $..", "$.. == 1"], TCL_DOCUMENTS),
    )
    for expression in expressions
    for document in documents
}

_LANGUAGES = {
    "selector": (MessageSelector, SELECTORS, SELECTOR_DOCUMENTS),
    "tcl": (TclConstraint, CONSTRAINTS, TCL_DOCUMENTS),
}


def answer(language: str, expression: str, document: str) -> dict:
    """What one cell answers, in the golden file's format."""
    compile_, _, documents = _LANGUAGES[language]
    try:
        compiled = compile_(expression)
    except Exception as exc:  # noqa: BLE001 - the record keeps any class
        return {"error": type(exc).__name__, "at": "compile"}
    try:
        return {"result": compiled.matches(documents[document])}
    except Exception as exc:  # noqa: BLE001
        return {"error": type(exc).__name__, "at": "match"}


def _cells() -> list[tuple[str, str, str]]:
    return [
        (language, expression, document)
        for language, (_, expressions, documents) in _LANGUAGES.items()
        for expression in expressions
        for document in documents
    ]


def _record() -> dict:
    return {
        "documents": {"selector": SELECTOR_DOCUMENTS, "tcl": TCL_DOCUMENTS},
        "cells": [
            {"language": language, "expression": expression, "document": document,
             **answer(language, expression, document)}
            for language, expression, document in _cells()
        ],
    }


@functools.lru_cache(maxsize=None)
def _golden() -> dict[tuple[str, str, str], dict]:
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert recorded["documents"] == {"selector": SELECTOR_DOCUMENTS, "tcl": TCL_DOCUMENTS}
    return {
        (cell.pop("language"), cell.pop("expression"), cell.pop("document")): cell
        for cell in recorded["cells"]
    }


class TestGoldenAnswers:
    def test_the_record_covers_every_cell(self):
        golden = _golden()
        assert set(golden) == set(_cells())
        assert len(SELECTORS) + len(CONSTRAINTS) >= 150
        assert set(SPEC_FIXES) <= set(golden)

    @pytest.mark.parametrize(
        "language, expression",
        [("selector", e) for e in SELECTORS] + [("tcl", e) for e in CONSTRAINTS],
        ids=lambda value: value if len(value) < 60 else value[:40] + "..." + value[-10:],
    )
    def test_every_cell_is_reproduced(self, language, expression):
        golden = _golden()
        for document in _LANGUAGES[language][2]:
            cell = (language, expression, document)
            expected = SPEC_FIXES.get(cell, golden[cell])
            assert answer(language, expression, document) == expected, cell

    def test_each_spec_fix_changed_its_cell(self):
        golden = _golden()
        for cell, fixed in SPEC_FIXES.items():
            assert golden[cell] != fixed, cell


def _dump(record: dict) -> str:
    """The golden file's layout: one cell a line, so a diff names the cell."""
    cells = ",\n".join(json.dumps(cell, ensure_ascii=False) for cell in record["cells"])
    return (
        f'{{"documents": {json.dumps(record["documents"], ensure_ascii=False)},\n'
        f'"cells": [\n{cells}\n]}}\n'
    )


if __name__ == "__main__":
    sys.stdout.write(_dump(_record()))
