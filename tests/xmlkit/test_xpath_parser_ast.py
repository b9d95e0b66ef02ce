"""Parser-level tests: grammar shapes and precedence.

The parser compiles as it parses, so each shape is checked by what its
expression evaluates to on :data:`DOC`, chosen so that the wrong parse (the
wrong precedence, grouping or step) gives a different answer.
"""

import pytest

from repro.xmlkit import XPath, parse_xml
from repro.xmlkit.xpath.errors import XPathSyntaxError
from repro.xmlkit.xpath.parser import parse_xpath

DOC = parse_xml(
    '<r><a>1</a><a>2</a><b><a>3</a></b><c id="7"/><local/>'
    '<local xmlns="urn:x"/><local xmlns="urn:x"/></r>'
)


def value(expression, namespaces=None):
    return XPath(expression, namespaces).evaluate(DOC)


class TestPrecedence:
    def test_or_binds_loosest(self):
        assert value("1 or 0 and 0") is True  # (1 or 0) and 0 is false

    def test_comparison_below_and(self):
        assert value("1 = 2 and 3 = 3") is False  # 1 = (2 and 3) = 3 is true

    def test_relational_below_equality(self):
        assert value("2 < 1 = 0") is True  # 2 < (1 = 0) is false

    def test_multiplicative_below_additive(self):
        assert value("1 + 2 * 3") == 7  # (1 + 2) * 3 is 9

    def test_union_below_unary_minus(self):
        # -(/r/b | /r/a) is minus the first node in document order; the
        # union of a number with a node-set would raise
        assert value("-/r/b | /r/a") == -1

    def test_left_associativity(self):
        assert value("1 - 2 - 3") == -4  # 1 - (2 - 3) is 2


class TestLocationPaths:
    def test_absolute_root_only(self):
        assert value("count(/)") == 1
        assert XPath("/").select(DOC) == []  # the root node, not the element

    def test_descendant_shorthand_expands(self):
        assert value("count(//a)") == 3  # the one under b too

    def test_double_slash_mid_path(self):
        assert value("count(/r//a)") == 3

    def test_explicit_axes(self):
        assert value("count(descendant::a/parent::node())") == 2  # r and b

    def test_attribute_shorthand(self):
        assert value("string(/r/c/@id)") == "7"

    def test_dot_and_dotdot(self):
        assert value("name(/r/b/a/./..)") == "b"

    def test_qname_test(self):
        assert value("count(/r/ns:local)", {"ns": "urn:x"}) == 2
        assert value("count(/r/local)") == 1

    def test_predicates_attached_to_step(self):
        assert value("count(/r/a[1][. = 2])") == 0
        assert value("string(/r/a[. = 2][1])") == "2"


class TestFilterPaths:
    def test_function_followed_by_path(self):
        assert value("string(/r/a)") == "1"

    def test_parenthesized_with_predicate(self):
        assert value("count((//a)[1])") == 1
        assert value("count(//a[1])") == 2  # the first a of r and of b

    def test_parenthesized_with_steps(self):
        assert value("string((/r/*)/a)") == "3"

    def test_function_args(self):
        assert value("concat('a', 'b', 'c')") == "abc"

    def test_zero_arg_function(self):
        assert value("true()") is True


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "a[",
            "a]",
            "f(1,)",
            "child::",
            "//",
            "a/",
            "1 2",
            "@",
            "::a",
            "ancestor::x",  # unsupported axis
            "comment()",  # unsupported node type
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(bad)
