"""Behavioural tests for the XPath engine against realistic event payloads."""

import math

import pytest

from repro.xmlkit import XPath, parse_xml
from repro.xmlkit.xpath.errors import XPathEvaluationError, XPathSyntaxError
from repro.xmlkit.xpath.values import to_number, to_string

NS = {"ev": "urn:grid:events", "s": "urn:soap"}

DOC = parse_xml(
    """
<ev:StatusEvent xmlns:ev="urn:grid:events" level="info" seq="12">
  <ev:jobId>job-42</ev:jobId>
  <ev:progress>75</ev:progress>
  <ev:worker rank="0">n01.cluster</ev:worker>
  <ev:worker rank="1">n02.cluster</ev:worker>
  <ev:metrics>
    <ev:cpu>0.93</ev:cpu>
    <ev:memory>1024</ev:memory>
  </ev:metrics>
</ev:StatusEvent>
"""
)


def ev(expr):
    return XPath(expr, NS).evaluate(DOC)


def match(expr):
    return XPath(expr, NS).matches(DOC)


class TestLocationPaths:
    def test_absolute_child_path(self):
        assert match("/ev:StatusEvent/ev:jobId")

    def test_missing_path_false(self):
        assert not match("/ev:StatusEvent/ev:missing")

    def test_descendant_or_self(self):
        assert ev("count(//ev:worker)") == 2.0

    def test_wildcard_star(self):
        assert ev("count(/ev:StatusEvent/*)") == 5.0

    def test_prefixed_wildcard(self):
        assert ev("count(/ev:StatusEvent/ev:*)") == 5.0

    def test_attribute_axis(self):
        assert ev("/ev:StatusEvent/@level") == ["info"]

    def test_parent_axis(self):
        assert match("//ev:cpu/../ev:memory")

    def test_self_axis_dot(self):
        assert XPath(".", NS).matches(DOC)

    def test_text_node_test(self):
        assert ev("/ev:StatusEvent/ev:jobId/text()") == ["job-42"]

    def test_root_only_path(self):
        result = ev("/")
        assert len(result) == 1

    def test_unprefixed_name_means_no_namespace(self):
        # XPath 1.0: unprefixed name tests match the null namespace
        assert not match("/StatusEvent")

    def test_undeclared_prefix_raises(self):
        # resolved when the expression is compiled, not per evaluation
        with pytest.raises(XPathSyntaxError, match="undeclared namespace prefix 'zz'"):
            XPath("/zz:thing", NS)


class TestPredicates:
    def test_positional(self):
        assert ev("//ev:worker[2]/text()") == ["n02.cluster"]

    def test_last_function(self):
        assert ev("//ev:worker[last()]/text()") == ["n02.cluster"]

    def test_value_comparison(self):
        assert match("/ev:StatusEvent[ev:progress > 50]")
        assert not match("/ev:StatusEvent[ev:progress > 80]")

    def test_attribute_predicate(self):
        assert ev("//ev:worker[@rank='1']/text()") == ["n02.cluster"]

    def test_chained_predicates(self):
        assert ev("//ev:worker[@rank][1]/text()") == ["n01.cluster"]

    def test_existence_predicate(self):
        assert match("/ev:StatusEvent[ev:metrics]")


class TestPositionsPerContextNode:
    """XPath 1.0 section 2.4: a step's predicates count proximity positions
    among the nodes each context node gathers, not over the merged set."""

    TWO_PARENTS = parse_xml("<r><a><x/><y/></a><b><z/><w/></b></r>")

    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("/r/*/*[1]", ["x", "z"]),
            ("/r/*/*[last()]", ["y", "w"]),
            ("/r/*/*[2]", ["y", "w"]),
            ("//*[1]", ["r", "a", "x", "z"]),
            ("//*[last()][1]", ["r", "y", "b", "w"]),
            ("(/r/*/*)[1]", ["x"]),
        ],
    )
    def test_each_parent_counts_its_own_children(self, expr, expected):
        nodes = XPath(expr).select(self.TWO_PARENTS)
        assert [node.name.local for node in nodes] == expected

    def test_a_single_context_step_is_unchanged(self):
        assert ev("//ev:worker[2]/text()") == ["n02.cluster"]
        assert match("/ev:StatusEvent[ev:worker[2] = 'n02.cluster']")


class TestOperators:
    def test_arithmetic_precedence(self):
        assert ev("2 + 3 * 4") == 14.0

    def test_div_and_mod(self):
        assert ev("7 div 2") == 3.5
        assert ev("7 mod 2") == 1.0

    def test_div_by_zero_is_infinity(self):
        assert ev("1 div 0") == math.inf
        assert math.isnan(ev("0 div 0"))

    def test_unary_minus(self):
        assert ev("-3 + 1") == -2.0

    def test_boolean_connectives(self):
        assert ev("true() and not(false())") is True
        assert ev("false() or false()") is False

    def test_union(self):
        assert len(ev("//ev:cpu | //ev:memory")) == 2

    def test_union_document_order_dedup(self):
        result = ev("//ev:cpu | //ev:cpu | //ev:memory")
        assert len(result) == 2
        assert result[0].name.local == "cpu"

    def test_string_equality_with_node_set(self):
        assert match("/ev:StatusEvent/ev:jobId = 'job-42'")

    def test_numeric_comparison_with_node_set(self):
        assert match("//ev:memory >= 1024")

    def test_existential_not_equal(self):
        # != is existential over node-sets: some worker is not n01
        assert match("//ev:worker != 'n01.cluster'")


class TestFunctions:
    def test_contains(self):
        assert match("contains(/ev:StatusEvent/ev:jobId, 'job')")

    def test_starts_with(self):
        assert match("starts-with(//ev:worker[1], 'n01')")

    def test_concat(self):
        assert ev("concat('a', 'b', 'c')") == "abc"

    def test_substring_family(self):
        assert ev("substring('12345', 2, 3)") == "234"
        assert ev("substring-before('a=b', '=')") == "a"
        assert ev("substring-after('a=b', '=')") == "b"

    def test_substring_edge_cases(self):
        assert ev("substring('12345', 0)") == "12345"
        assert ev("substring('12345', 4, 9)") == "45"

    def test_string_length(self):
        assert ev("string-length('hello')") == 5.0

    def test_normalize_space(self):
        assert ev("normalize-space('  a   b ')") == "a b"

    def test_translate(self):
        assert ev("translate('abcabc', 'ab', 'BA')") == "BAcBAc"
        assert ev("translate('abc', 'abc', 'x')") == "x"

    def test_number_conversion(self):
        assert ev("number('42') + 1") == 43.0
        assert math.isnan(ev("number('nope')"))

    def test_sum(self):
        assert ev("sum(//ev:memory)") == 1024.0

    def test_floor_ceiling_round(self):
        assert ev("floor(2.7)") == 2.0
        assert ev("ceiling(2.1)") == 3.0
        assert ev("round(2.5)") == 3.0
        assert ev("round(-2.5)") == -2.0  # XPath: round(.5) towards +inf

    def test_local_name_and_namespace_uri(self):
        assert ev("local-name(/*)") == "StatusEvent"
        assert ev("namespace-uri(/*)") == "urn:grid:events"

    def test_string_of_node_set_uses_first_node(self):
        assert ev("string(//ev:worker)") == "n01.cluster"

    def test_boolean_of_empty_node_set(self):
        assert ev("boolean(//ev:absent)") is False

    def test_count_requires_node_set(self):
        with pytest.raises(XPathEvaluationError):
            ev("count('text')")

    def test_unknown_function(self):
        with pytest.raises(XPathSyntaxError, match="unknown function frobnicate"):
            XPath("frobnicate(1)", NS)

    def test_arity_error(self):
        with pytest.raises(XPathSyntaxError, match=r"contains\(\) does not take 1 argument"):
            XPath("contains('only-one')", NS)

    @pytest.mark.parametrize("bad", ["concat('one')", "true(1)", "substring('a', 1, 2, 3)"])
    def test_arity_bounds(self, bad):
        with pytest.raises(XPathSyntaxError, match="argument"):
            XPath(bad, NS)


class TestRoundingOfNonFiniteNumbers:
    """XPath 1.0 section 4.4: floor(), ceiling() and round() of NaN or an
    infinity return it; floor() and ceiling() raised from math instead."""

    @pytest.mark.parametrize("function", ["floor", "ceiling", "round"])
    @pytest.mark.parametrize(
        "argument, expected",
        [
            ("0 div 0", math.nan), ("1 div 0", math.inf), ("-1 div 0", -math.inf),
            ("'x'", math.nan), ("/missing", math.nan),
        ],
    )
    def test_returned_as_they_are(self, function, argument, expected):
        value = ev(f"{function}({argument})")
        assert math.isnan(value) if math.isnan(expected) else value == expected

    def test_a_nan_floor_is_false_not_an_error(self):
        assert not match("floor(/x) > 1")
        assert not match("ceiling(//ev:missing) = 1")


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "bad",
        ["", "/ev:", "foo(", "1 +", "//ev:worker[", "'unterminated", "a!b", "..."],
    )
    def test_rejects(self, bad):
        with pytest.raises(XPathSyntaxError):
            XPath(bad, NS)

    def test_unsupported_axis_rejected(self):
        with pytest.raises(XPathSyntaxError):
            XPath("following-sibling::x", NS)


class TestFilterDialectUsage:
    """The exact shapes WSE/WSN subscriptions use as message filters."""

    def test_boolean_filter_accepts(self):
        expr = "/ev:StatusEvent[ev:progress >= 50 and @level='info']"
        assert XPath(expr, NS).matches(DOC)

    def test_boolean_filter_rejects(self):
        expr = "/ev:StatusEvent[@level='error']"
        assert not XPath(expr, NS).matches(DOC)

    def test_select_returns_elements(self):
        workers = XPath("//ev:worker", NS).select(DOC)
        assert [w.text() for w in workers] == ["n01.cluster", "n02.cluster"]

    def test_select_rejects_scalar(self):
        with pytest.raises(XPathEvaluationError):
            XPath("1 + 1", NS).select(DOC)


READING = parse_xml(
    '<ev:Reading xmlns:ev="urn:grid:events"><ev:host>h042</ev:host>'
    "<ev:empty/><ev:value>1e3</ev:value></ev:Reading>"
)


class TestNodeSetAgainstBoolean:
    """XPath 1.0 section 3.4: a node-set compared with a boolean compares
    ``boolean(node-set)`` with it, whatever the nodes' string-values."""

    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("/ev:Reading/ev:missing = false()", True),
            ("/ev:Reading/ev:missing = true()", False),
            ("/ev:Reading/ev:missing != true()", True),
            ("/ev:Reading/ev:missing != false()", False),
            ("false() = /ev:Reading/ev:missing", True),
            # an empty element is a non-empty node-set: true, whatever its text
            ("/ev:Reading/ev:empty = true()", True),
            ("/ev:Reading/ev:empty = false()", False),
            ("/ev:Reading/ev:empty != true()", False),
            ("true() != /ev:Reading/ev:empty", False),
            # relational operators compare the two booleans as numbers
            ("/ev:Reading/ev:missing < true()", True),
            ("/ev:Reading/ev:empty > false()", True),
            ("/ev:Reading/ev:empty > true()", False),
        ],
    )
    def test_compares_the_node_sets_boolean(self, expr, expected):
        assert XPath(expr, NS).evaluate(READING) is expected

    def test_a_predicate_on_a_missing_field(self):
        assert XPath("/ev:Reading[ev:missing = false()]", NS).matches(READING)
        assert not XPath("/ev:Reading[ev:host = false()]", NS).matches(READING)


class TestStringToNumber:
    """XPath 1.0 section 4.4: optional whitespace, an optional minus sign, a
    Number, optional whitespace; anything else is NaN."""

    @pytest.mark.parametrize(
        "text, expected",
        [("12", 12.0), ("-3", -3.0), ("4.", 4.0), (".5", 0.5), ("-.5", -0.5),
         (" \t\r\n7\n ", 7.0), ("007", 7.0), ("1.25", 1.25)],
    )
    def test_numbers(self, text, expected):
        assert to_number(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["1e3", "1E3", "inf", "Infinity", "-Infinity", "nan", "NaN", " +5 ", "+5",
         "1_000", "--1", "- 1", ".", "", " ", "0x10", "١٢", "1.2.3", "\u00a05"],
    )
    def test_everything_else_is_nan(self, text):
        assert math.isnan(to_number(text))

    def test_an_exponent_reading_does_not_pass_a_threshold(self):
        assert not XPath("/ev:Reading[ev:value > 999]", NS).matches(READING)
        assert math.isnan(XPath("number(/ev:Reading/ev:value)", NS).evaluate(READING))

    @pytest.mark.parametrize("number", [7.1e-26, -1.5e-7, 1e-5, 0.1, 2.5, 1e21, -3.0])
    def test_a_number_printed_by_string_reads_back(self, number):
        # number-to-string writes no exponent (section 4.2), so it round-trips
        assert "e" not in to_string(number) and to_number(to_string(number)) == number
