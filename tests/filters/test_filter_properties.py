"""Property-based tests for filter languages, topic trees and CDR."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.corba.cdr import CdrDecoder, CdrEncoder, CdrError
from repro.filters.base import FilterError
from repro.filters.selector import MessageSelector
from repro.filters.tcl import TclConstraint
from repro.filters.topics import TopicDialect, TopicExpression, TopicNamespace, TopicPath

# --- generators -----------------------------------------------------------------

_names = st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True)
_paths = st.lists(_names, min_size=1, max_size=4)


class TestTopicProperties:
    @given(_paths)
    @settings(max_examples=150)
    def test_concrete_expression_matches_itself_only(self, parts):
        path = "/".join(parts)
        expression = TopicExpression(path, TopicDialect.CONCRETE)
        assert expression.matches(path)
        assert not expression.matches(path + "/extra")
        if len(parts) > 1:
            assert not expression.matches("/".join(parts[:-1]))

    @given(_paths)
    @settings(max_examples=150)
    def test_subtree_expression_matches_all_descendants(self, parts):
        root = parts[0]
        expression = TopicExpression(f"{root}//.", TopicDialect.FULL)
        assert expression.matches("/".join(parts))  # every path under root
        assert expression.matches(root)
        assert expression.matches(root + "/" + "/".join(parts))
        assert not expression.matches("zzzother")

    @given(_paths)
    @settings(max_examples=150)
    def test_star_matches_any_single_level(self, parts):
        if len(parts) < 2:
            return
        starred = [parts[0], "*", *parts[2:]]
        expression = TopicExpression("/".join(starred), TopicDialect.FULL)
        assert expression.matches("/".join(parts))

    @given(st.lists(_paths, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_namespace_contains_everything_added(self, paths):
        space = TopicNamespace()
        for parts in paths:
            space.add("/".join(parts))
        for parts in paths:
            assert space.contains("/".join(parts))
            # every ancestor is present too
            for i in range(1, len(parts)):
                assert space.contains("/".join(parts[:i]))

    @given(st.lists(_paths, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_all_paths_sorted_and_unique(self, paths):
        space = TopicNamespace()
        for parts in paths:
            space.add("/".join(parts))
        listing = space.all_paths()
        assert listing == sorted(listing)
        assert len(listing) == len(set(listing))

    @given(_paths)
    def test_topic_path_str_parse_roundtrip(self, parts):
        path = TopicPath(tuple(parts))
        assert TopicPath.parse(str(path)) == path


class TestSelectorProperties:
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=200)
    def test_numeric_comparisons_consistent(self, a, b):
        fields = {"x": a}
        assert MessageSelector(f"x = {b}").matches(fields) == (a == b)
        assert MessageSelector(f"x < {b}").matches(fields) == (a < b)
        assert MessageSelector(f"x >= {b}").matches(fields) == (a >= b)

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000), st.integers(-1000, 1000))
    @settings(max_examples=150)
    def test_between_equivalent_to_conjunction(self, x, lo, hi):
        fields = {"x": x}
        between = MessageSelector(f"x BETWEEN {lo} AND {hi}").matches(fields)
        conjunction = MessageSelector(f"x >= {lo} AND x <= {hi}").matches(fields)
        assert between == conjunction

    @given(st.text(alphabet="abc%_", max_size=6))
    @settings(max_examples=150)
    def test_like_never_crashes(self, pattern):
        escaped = pattern.replace("'", "''")
        selector = MessageSelector(f"s LIKE '{escaped}'")
        selector.matches({"s": "abcabc"})  # any boolean is fine; no exception

    @given(st.text(max_size=30))
    @settings(max_examples=200)
    def test_parser_totality(self, text):
        try:
            MessageSelector(text)
        except FilterError:
            pass  # rejection is the only acceptable failure

    @given(st.booleans(), st.booleans())
    def test_de_morgan(self, a, b):
        fields = {"a": a, "b": b}
        left = MessageSelector("NOT (a = TRUE AND b = TRUE)").matches(fields)
        right = MessageSelector("NOT a = TRUE OR NOT b = TRUE").matches(fields)
        assert left == right


class TestTclProperties:
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=200)
    def test_comparisons_consistent(self, a, b):
        event = {"filterable_data": {"x": a}}
        assert TclConstraint(f"$x == {b}").matches(event) == (a == b)
        assert TclConstraint(f"$x < {b}").matches(event) == (a < b)

    @given(st.text(max_size=30))
    @settings(max_examples=200)
    def test_parser_totality(self, text):
        try:
            TclConstraint(text)
        except FilterError:
            pass

    @given(st.integers(-1000, 1000))
    def test_arithmetic_identity(self, x):
        event = {"filterable_data": {"x": x}}
        assert TclConstraint("$x + 0 == $x").matches(event)
        assert TclConstraint("$x * 1 == $x").matches(event)


_cdr_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**31), 2**31 - 1),
        st.floats(allow_nan=False),
        st.text(max_size=15),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


class TestCdrProperties:
    @given(_cdr_values)
    @settings(max_examples=300)
    def test_encode_decode_roundtrip(self, value):
        assert CdrDecoder(CdrEncoder().put_any(value).data()).get_any() == value

    @given(_cdr_values)
    @settings(max_examples=100)
    def test_decoder_consumes_exactly(self, value):
        decoder = CdrDecoder(CdrEncoder().put_any(value).data())
        decoder.get_any()
        with pytest.raises(CdrError, match="truncated"):
            decoder.get_octet()
