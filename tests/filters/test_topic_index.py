"""The fan-out fast path's topic-subscription trie and content buckets.

The load-bearing property: for every (expression, path) pair the index's
candidate set agrees exactly with ``TopicExpression.matches`` — the trie is a
pure acceleration of the linear scan, never a semantic change.  The content
dimension is held to the same standard against ``XPath.matches``.
"""

import random

import pytest

from repro.filters.base import AcceptAllFilter, AndFilter
from repro.filters.compilecache import compiled_xpath
from repro.filters.content import MessageContentFilter, content_expression_of
from repro.filters.producer import ProducerPropertiesFilter
from repro.filters.topics import (
    TopicDialect,
    TopicExpression,
    TopicFilter,
    TopicSubscriptionIndex,
    _slot,
    topic_expression_of,
)
from repro.xmlkit import parse_xml

FULL = TopicDialect.FULL


def _index_with(expressions: dict[str, TopicExpression | None]) -> TopicSubscriptionIndex:
    index = TopicSubscriptionIndex()
    for key, expression in expressions.items():
        index.add(key, expression)
    return index


class TestCandidates:
    def test_concrete_exact_match_only(self):
        index = _index_with({"s1": TopicExpression("a/b", TopicDialect.CONCRETE)})
        assert index.candidates("a/b") == ["s1"]
        assert index.candidates("a") == []
        assert index.candidates("a/b/c") == []

    def test_simple_dialect_matches_root_only(self):
        index = _index_with({"s1": TopicExpression("news", TopicDialect.SIMPLE)})
        assert index.candidates("news") == ["s1"]
        assert index.candidates("news/sports") == []

    def test_star_wildcard(self):
        index = _index_with({"s1": TopicExpression("a/*", FULL)})
        assert index.candidates("a/b") == ["s1"]
        assert index.candidates("a/c") == ["s1"]
        assert index.candidates("a") == []
        assert index.candidates("a/b/c") == []

    def test_descendants_suffix(self):
        index = _index_with({"s1": TopicExpression("a//.", FULL)})
        assert index.candidates("a") == ["s1"]
        assert index.candidates("a/b/c") == ["s1"]
        assert index.candidates("b") == []

    def test_gap_wildcard(self):
        index = _index_with({"s1": TopicExpression("a//z", FULL)})
        assert index.candidates("a/z") == ["s1"]
        assert index.candidates("a/b/z") == ["s1"]
        assert index.candidates("a/b/c/z") == ["s1"]
        assert index.candidates("a/z/b") == []

    def test_union_branches(self):
        index = _index_with({"s1": TopicExpression("a/b|c", FULL)})
        assert index.candidates("a/b") == ["s1"]
        assert index.candidates("c") == ["s1"]
        assert index.candidates("a") == []

    def test_always_bucket_matches_everything_including_no_topic(self):
        index = _index_with({"s1": None})
        assert index.candidates("anything/at/all") == ["s1"]
        assert index.candidates(None) == ["s1"]

    def test_topic_filtered_keys_never_match_topicless_publication(self):
        index = _index_with(
            {"s1": TopicExpression("a", TopicDialect.CONCRETE), "s2": None}
        )
        assert index.candidates(None) == ["s2"]

    def test_candidates_preserve_insertion_order(self):
        index = TopicSubscriptionIndex()
        keys = [f"k{i}" for i in range(20)]
        for key in keys:
            index.add(key, TopicExpression("a//.", FULL))
        assert index.candidates("a/b") == keys

    def test_reinsertion_moves_key_to_the_back(self):
        index = TopicSubscriptionIndex()
        index.add("k1", TopicExpression("a", TopicDialect.CONCRETE))
        index.add("k2", TopicExpression("a", TopicDialect.CONCRETE))
        index.add("k1", TopicExpression("a", TopicDialect.CONCRETE))
        assert index.candidates("a") == ["k2", "k1"]

    def test_discard(self):
        index = _index_with(
            {
                "s1": TopicExpression("a/b", TopicDialect.CONCRETE),
                "s2": None,
            }
        )
        index.discard("s1")
        index.discard("s2")
        index.discard("missing")  # no-op
        assert index.candidates("a/b") == []
        assert len(index) == 0
        assert "s1" not in index

    def test_len_and_contains(self):
        index = _index_with({"s1": None, "s2": TopicExpression("a", TopicDialect.CONCRETE)})
        assert len(index) == 2
        assert "s1" in index and "s2" in index


class TestDifferentialAgainstLinearMatching:
    """Randomized expressions x paths: trie == TopicExpression.matches."""

    EXPRESSIONS = [
        ("news", TopicDialect.SIMPLE),
        ("news/sports", TopicDialect.CONCRETE),
        ("news/sports/football", TopicDialect.CONCRETE),
        ("news/*", FULL),
        ("news//.", FULL),
        ("*/sports", FULL),
        ("news//football", FULL),
        ("//football", FULL),
        ("news/politics|weather", FULL),
        ("weather/*/alerts", FULL),
        ("*", FULL),
        ("a//b//c", FULL),
        ("a/*//.", FULL),
    ]

    PATHS = [
        "news",
        "news/sports",
        "news/sports/football",
        "news/politics",
        "news/politics/local",
        "weather",
        "weather/alerts",
        "weather/europe/alerts",
        "football",
        "a/b/c",
        "a/x/b/y/c",
        "a/q",
        "other",
    ]

    def test_exhaustive_agreement(self):
        compiled = {
            f"k{i}": TopicExpression(text, dialect)
            for i, (text, dialect) in enumerate(self.EXPRESSIONS)
        }
        index = _index_with(dict(compiled))
        for path in self.PATHS:
            want = sorted(k for k, e in compiled.items() if e.matches(path))
            assert sorted(index.candidates(path)) == want, path

    def test_randomized_agreement(self):
        rng = random.Random(20060813)
        names = ["a", "b", "c", "d"]
        for _ in range(200):
            depth = rng.randint(1, 4)
            segments = []
            for _ in range(depth):
                segments.append(rng.choice(names + ["*"]))
            text = "/".join(segments)
            if rng.random() < 0.3:
                text = text.replace("/", "//", 1)
            if rng.random() < 0.3:
                text += "//."
            try:
                expression = TopicExpression(text, FULL)
            except Exception:
                continue
            index = _index_with({"k": expression})
            for _ in range(20):
                path = "/".join(
                    rng.choice(names) for _ in range(rng.randint(1, 5))
                )
                want = ["k"] if expression.matches(path) else []
                assert index.candidates(path) == want, (text, path)


class TestTopicExpressionOf:
    def test_topic_filter_exposes_its_expression(self):
        expression = TopicExpression("a/b", TopicDialect.CONCRETE)
        assert topic_expression_of(TopicFilter(expression)) is expression

    def test_and_filter_exposes_first_topic_part(self):
        expression = TopicExpression("a", TopicDialect.CONCRETE)
        composite = AndFilter(
            [MessageContentFilter("true()"), TopicFilter(expression)]
        )
        assert topic_expression_of(composite) is expression

    def test_unindexable_filters_map_to_always(self):
        assert topic_expression_of(AcceptAllFilter()) is None
        assert topic_expression_of(MessageContentFilter("true()")) is None


def _reading(host: str):
    return parse_xml(f"<Reading><host>{host}</host></Reading>").freeze()


def _host(name: str):
    return compiled_xpath(f"/Reading[host='{name}']")


class TestContentDimension:
    def test_keys_need_topic_and_content_to_admit(self):
        index = TopicSubscriptionIndex()
        index.add("all", None)
        index.add("topic-only", TopicExpression("a/*", FULL))
        index.add("content-only", None, _host("h1"))
        index.add("both", TopicExpression("a/*", FULL), _host("h1"))
        index.add("other-host", TopicExpression("a/*", FULL), _host("h2"))
        assert index.candidates("a/b", _reading("h1")) == [
            "all", "topic-only", "content-only", "both",
        ]
        assert index.candidates("a/b", _reading("h2")) == ["all", "topic-only", "other-host"]
        assert index.candidates("z", _reading("h1")) == ["all", "content-only"]
        assert index.candidates(None, _reading("h9")) == ["all"]

    def test_without_a_payload_content_is_not_consulted(self):
        index = TopicSubscriptionIndex()
        index.add("k", None, _host("h1"))
        assert index.candidates("a") == ["k"]
        assert index.content_evals == 0

    def test_one_evaluation_per_probe_not_per_key_or_literal(self):
        index = TopicSubscriptionIndex()
        for n in range(300):
            index.add(f"k{n}", None, _host(f"h{n % 3}"))
        assert len(index._groups) == 1
        assert index.candidates(None, _reading("h1")) == [f"k{n}" for n in range(1, 300, 3)]
        assert index.content_evals == 1

    def test_an_expression_of_no_equality_form_is_a_group_of_one(self):
        index = TopicSubscriptionIndex()
        for n in range(300):
            index.add(f"k{n}", None, compiled_xpath(f"/Reading[host != 'h{n % 3}']"))
        assert len(index._groups) == 3
        assert index.candidates(None, _reading("h1")) == [f"k{n}" for n in range(300) if n % 3 != 1]
        assert index.content_evals == 3

    def test_buckets_the_topic_side_ruled_out_are_not_evaluated(self):
        index = TopicSubscriptionIndex()
        index.add("near", TopicExpression("a", TopicDialect.CONCRETE), _host("h1"))
        index.add("far", TopicExpression("b", TopicDialect.CONCRETE), _host("h2"))
        assert index.candidates("a", _reading("h1")) == ["near"]
        assert index.content_evals == 1

    def test_an_expression_that_fails_to_evaluate_leaves_its_keys_to_the_caller(self):
        # conservative pre-filter: the subscription's own filter reports it
        index = TopicSubscriptionIndex()
        index.add("healthy", None, _host("h1"))
        index.add("poisoned", None, compiled_xpath("1 | 2"))
        assert index.candidates(None, _reading("h1")) == ["healthy", "poisoned"]

    def test_churn_leaves_no_empty_bucket_behind(self):
        rng = random.Random(13)
        index = TopicSubscriptionIndex()
        live: list[str] = []
        for step in range(2000):
            if live and rng.random() < 0.5:
                index.discard(live.pop(rng.randrange(len(live))))
            else:
                key = f"k{step}"
                topic = rng.choice([None, TopicExpression("a/*", FULL)])
                index.add(key, topic, rng.choice([None, _host(f"h{rng.randrange(5)}")]))
                live.append(key)
            if step % 7 == 0 and live:  # re-registration replaces the old entry
                index.add(live[0], None, _host(f"h{rng.randrange(5)}"))
            slots = {k: _slot(content) for k, content in index._content_of.items()}
            assert set(index._groups) == {group for group, _ in slots.values()}
            for group in index._groups.values():
                assert group.buckets and all(group.buckets.values())
                assert group.always == len(set().union(*group.buckets.values()) & index._always)
            assert all(k in index._groups[g].buckets[v] for k, (g, v) in slots.items())
            assert index._plain == {k for k in live if k not in index._content_of}
        for key in live:
            index.discard(key)
        assert len(index._groups) == 0 and len(index) == 0
        assert index._groups == {} and index._content_of == {}
        assert index._plain == set()
        assert index.candidates("a/b", _reading("h1")) == []

    def test_same_predicate_under_different_in_scope_bindings_shares_a_bucket(self):
        wse = compiled_xpath("/e:r[e:h='1']", {"e": "urn:e", "s": "urn:soap", "wse": "urn:wse"})
        wsn = compiled_xpath("/e:r[e:h='1']", {"wsnt": "urn:wsn", "e": "urn:e"})
        assert wse is wsn
        assert compiled_xpath("/e:r[e:h='1']", {"e": "urn:other"}) is not wse
        index = TopicSubscriptionIndex()
        index.add("a", None, wse)
        index.add("b", None, wsn)
        index.add("c", None, compiled_xpath("/e:r[e:h='2']", {"e": "urn:e"}))
        assert len(index._groups) == 1
        index.add("d", None, compiled_xpath("/e:r[e:h='1']", {"e": "urn:other"}))
        assert len(index._groups) == 2


class TestContentExpressionOf:
    def test_message_content_filter_exposes_its_shared_compiled_form(self):
        first, second = MessageContentFilter("//a"), MessageContentFilter("//a")
        assert content_expression_of(first) is content_expression_of(second) is first.xpath

    def test_and_filter_exposes_its_content_part(self):
        content = MessageContentFilter("//a")
        composite = AndFilter(
            [TopicFilter(TopicExpression("a", TopicDialect.CONCRETE)), content]
        )
        assert content_expression_of(composite) is content.xpath

    def test_filters_without_a_content_part_map_to_none(self):
        assert content_expression_of(AcceptAllFilter()) is None
        assert content_expression_of(ProducerPropertiesFilter("/*")) is None
        assert content_expression_of(TopicFilter(TopicExpression("a", FULL))) is None


class TestRootRefs:
    """The roots the index's keys pin, counted in ``add`` / ``discard``: what
    a mesh node reads as its federation demand."""

    def test_a_root_is_counted_once_per_key_and_goes_with_its_last_key(self):
        index = _index_with(
            {
                "k1": TopicExpression("jobs/a|jobs/b|grid", FULL),
                "k2": TopicExpression("jobs", TopicDialect.CONCRETE),
            }
        )
        assert index.root_refs == {"jobs": 2, "grid": 1}
        index.discard("k1")
        assert index.root_refs == {"jobs": 1}
        index.add("k2", TopicExpression("grid//.", FULL))  # re-added: re-counted
        assert index.root_refs == {"grid": 1}
        index.discard("k2")
        assert index.root_refs == {}

    @pytest.mark.parametrize("expression", [None, TopicExpression("*/x", FULL), TopicExpression("a|//b", FULL)])
    def test_no_topic_constraint_or_a_root_wildcard_counts_under_none(self, expression):
        index = _index_with({"pinned": TopicExpression("a", TopicDialect.CONCRETE), "any": expression})
        assert index.root_refs == {"a": 1, None: 1}  # a wildcard branch pins nothing else
        index.discard("any")
        assert None not in index.root_refs

    def test_a_topic_only_read_leaves_content_evals_alone(self):
        index = TopicSubscriptionIndex()
        index.add("k", TopicExpression("a", TopicDialect.CONCRETE), _host("h1"))
        index.add("all", None)
        assert index.candidates("a", _reading("h1")) == ["k", "all"]
        assert index.content_evals == 1
        assert index.topic_candidates("a") == {"k", "all"}
        assert index.topic_candidates("b") == {"all"}
        assert index.content_evals == 1
