"""Parser/AST-level tests: grammar shapes and precedence."""

import pytest

from repro.xmlkit.xpath import ast
from repro.xmlkit.xpath.errors import XPathSyntaxError
from repro.xmlkit.xpath.parser import parse_xpath


class TestPrecedence:
    def test_or_binds_loosest(self):
        tree = parse_xpath("1 and 2 or 3")
        assert isinstance(tree, ast.BinaryOp) and tree.op == "or"
        assert isinstance(tree.left, ast.BinaryOp) and tree.left.op == "and"

    def test_comparison_below_and(self):
        tree = parse_xpath("1 = 2 and 3 = 4")
        assert tree.op == "and"
        assert tree.left.op == "=" and tree.right.op == "="

    def test_relational_below_equality(self):
        tree = parse_xpath("1 < 2 = 3 < 4")
        assert tree.op == "="
        assert tree.left.op == "<"

    def test_multiplicative_below_additive(self):
        tree = parse_xpath("1 + 2 * 3")
        assert tree.op == "+"
        assert tree.right.op == "*"

    def test_union_below_unary_minus(self):
        tree = parse_xpath("-a | b")
        assert isinstance(tree, ast.UnaryMinus)
        assert isinstance(tree.operand, ast.BinaryOp) and tree.operand.op == "|"

    def test_left_associativity(self):
        tree = parse_xpath("1 - 2 - 3")
        assert tree.op == "-"
        assert tree.left.op == "-"
        assert tree.left.left == ast.NumberLit(1.0)


class TestLocationPaths:
    def test_absolute_root_only(self):
        tree = parse_xpath("/")
        assert isinstance(tree, ast.LocationPath)
        assert tree.absolute and tree.steps == ()

    def test_descendant_shorthand_expands(self):
        tree = parse_xpath("//a")
        assert tree.steps[0].axis == "descendant-or-self"
        assert tree.steps[0].test.kind == "node"
        assert tree.steps[1].test.local == "a"

    def test_double_slash_mid_path(self):
        tree = parse_xpath("a//b")
        axes = [step.axis for step in tree.steps]
        assert axes == ["child", "descendant-or-self", "child"]

    def test_explicit_axes(self):
        tree = parse_xpath("descendant::x/parent::node()")
        assert tree.steps[0].axis == "descendant"
        assert tree.steps[1].axis == "parent"

    def test_attribute_shorthand(self):
        tree = parse_xpath("@id")
        assert tree.steps[0].axis == "attribute"

    def test_dot_and_dotdot(self):
        tree = parse_xpath("./..")
        assert tree.steps[0].axis == "self"
        assert tree.steps[1].axis == "parent"

    def test_qname_test(self):
        tree = parse_xpath("ns:local", {"ns": "urn:x"})
        test = tree.steps[0].test
        assert test.prefix == "ns" and test.local == "local"
        assert test.namespace == "urn:x"

    def test_predicates_attached_to_step(self):
        tree = parse_xpath("a[1][b]")
        assert len(tree.steps[0].predicates) == 2


class TestFilterPaths:
    def test_function_followed_by_path(self):
        # this is a FilterExpr with trailing steps
        tree = parse_xpath("string(/a)")
        assert isinstance(tree, ast.FunctionCall)

    def test_parenthesized_with_predicate(self):
        tree = parse_xpath("(//a)[1]")
        assert isinstance(tree, ast.FilterPath)
        assert len(tree.predicates) == 1

    def test_parenthesized_with_steps(self):
        tree = parse_xpath("(//a)/b")
        assert isinstance(tree, ast.FilterPath)
        assert tree.steps[0].test.local == "b"

    def test_function_args(self):
        tree = parse_xpath("concat('a', 'b', 'c')")
        assert len(tree.args) == 3

    def test_zero_arg_function(self):
        tree = parse_xpath("true()")
        assert tree.args == ()


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
