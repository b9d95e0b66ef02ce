"""Lexer-level tests: XPath 1.0's context-dependent token disambiguation.

Token kinds are strings: ``number``, ``literal``, ``name``, ``star``,
``operator``, ``axis``, ``function``, ``nodetype``, and each punctuation
mark's own text (``(``, ``]``, ``..``, ...)."""

import pytest

from repro.xmlkit import XPath, parse_xml
from repro.xmlkit.xpath.errors import XPathSyntaxError
from repro.xmlkit.xpath.lexer import tokenize


def kinds(expr):
    return [token.kind for token in tokenize(expr)][:-1]  # drop the end token


def values(expr):
    return [token.value for token in tokenize(expr)][:-1]


class TestStarDisambiguation:
    def test_star_after_operand_is_multiply(self):
        assert kinds("2 * 3") == ["number", "operator", "number"]

    def test_star_at_start_is_wildcard(self):
        assert kinds("*")[0] == "star"

    def test_star_after_slash_is_wildcard(self):
        tokens = kinds("/*")
        assert tokens == ["operator", "star"]

    def test_star_after_bracket_is_wildcard(self):
        assert kinds("a[*]")[2] == "star"

    def test_star_after_rparen_is_multiply(self):
        assert kinds("(1) * 2")[3] == "operator"

    def test_prefixed_wildcard(self):
        assert kinds("ns:*") == ["name", ":", "star"]


class TestOperatorNameDisambiguation:
    def test_and_after_operand_is_operator(self):
        tokens = tokenize("1 and 2")
        assert tokens[1].kind == "operator" and tokens[1].value == "and"

    def test_and_at_start_is_name(self):
        assert kinds("and")[0] == "name"  # an element named 'and'

    def test_div_as_element_name_in_path(self):
        tokens = tokenize("/div")
        assert tokens[1].kind == "name"

    def test_div_after_operand_is_operator(self):
        tokens = tokenize("4 div 2")
        assert tokens[1].kind == "operator"


class TestFunctionAndAxisTokens:
    def test_function_call(self):
        tokens = tokenize("count(x)")
        assert tokens[0].kind == "function"
        assert tokens[1].kind == "("

    def test_node_type_not_function(self):
        assert kinds("text()")[0] == "nodetype"
        assert kinds("node()")[0] == "nodetype"

    def test_axis_specifier(self):
        tokens = tokenize("child::a")
        assert tokens[0].kind == "axis" and tokens[0].value == "child"

    def test_whitespace_before_paren_still_function(self):
        assert kinds("count (x)")[0] == "function"

    def test_hyphenated_function_name(self):
        tokens = tokenize("starts-with('a','b')")
        assert tokens[0].value == "starts-with"


class TestLiteralsAndNumbers:
    def test_double_quoted_literal(self):
        assert values('"hi"') == ["hi"]

    def test_decimal_number(self):
        assert values("3.14") == ["3.14"]

    def test_leading_dot_number(self):
        assert values(".5") == [".5"]

    def test_dotdot_token(self):
        assert kinds("..")[0] == ".."

    def test_unicode_digit_rejected(self):
        with pytest.raises(XPathSyntaxError):
            tokenize("²")

    def test_unterminated_literal(self):
        with pytest.raises(XPathSyntaxError):
            tokenize("'oops")

    def test_bang_without_equals(self):
        with pytest.raises(XPathSyntaxError):
            tokenize("a ! b")

    def test_comparison_operators(self):
        assert values("a <= b >= c != d") == ["a", "<=", "b", ">=", "c", "!=", "d"]

    def test_position_reported_on_error(self):
        with pytest.raises(XPathSyntaxError) as excinfo:
            tokenize("abc $")
        assert "offset 4" in str(excinfo.value)


class TestOperatorNamesByValue:
    """XPath 1.0 section 3.7 end to end: each expression uses an operator
    word as an element name in one position and as the operator in the next."""

    DOC = parse_xml("<r><div>6</div><mod>4</mod><and>1</and><or>0</or></r>")

    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("/r/div div /r/mod", 1.5),
            ("/r/mod mod /r/div", 4.0),
            ("/r/and and /r/or", True),
            ("/r/or or /r/and", True),
            ("/r/*[1] * 2", 12.0),
            ("count(/r/*) * 2", 8.0),
        ],
    )
    def test_name_then_operator(self, expression, expected):
        assert XPath(expression).evaluate(self.DOC) == expected
