"""Content matching by equality: one probe per group, the same answers.

An expression ``P[Q = 'lit']`` whose last step carries that one predicate is
non-empty exactly when ``'lit'`` is the string-value of a node ``P/Q``
selects, so the subscription index evaluates ``P/Q`` once per payload for
every such expression sharing it, and looks the literals up among its
values.  The differential below holds that to a linear scan of every full
filter: equality and non-equality expressions mixed, several matching
children, mixed content and whitespace, attributes and ``//``, both quote
styles and the empty literal, one prefix bound to two URIs, probes that
raise on some payloads, and keys discarded down to a group's last bucket.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.base import AndFilter, FilterContext, FilterError
from repro.filters.content import MessageContentFilter, content_expression_of
from repro.filters.topics import (
    TopicDialect,
    TopicExpression,
    TopicFilter,
    TopicSubscriptionIndex,
    index_decides,
    topic_expression_of,
)
from repro.xmlkit import parse_xml
from repro.xmlkit.xpath import XPath

A, B = "urn:a", "urn:b"

#: the literals, as an expression writes them
LITERALS = ("'x'", '"x"', "''", "' x'", "'xy'", '"it\'s"', "'7'")

#: equality forms: ``{p}`` is the prefix, ``{lit}`` a literal
EQUALITY = (
    "/{p}:V[{p}:h = {lit}]",
    "/{p}:V[{lit} = {p}:h]",
    "//{p}:h[. = {lit}]",
    "/{p}:V/{p}:h[@id = {lit}]",
    "/{p}:V[{p}:g/{p}:h = {lit}]",
    "//{p}:g[{p}:h={lit}]",
    # raises once the payload's number exceeds 1 (``and`` reads its right side)
    "/{p}:V[{p}:n > 1 and count(1) > 0]/{p}:h[. = {lit}]",
)

#: what stays a bucket of its own: a number, ``!=``, a position, ``or``, a
#: predicate on an inner step, a second predicate
OTHER = (
    "/{p}:V[{p}:n = 7]",
    "/{p}:V[{p}:h = 7]",
    "/{p}:V[{p}:h != {lit}]",
    "/{p}:V/{p}:h[2]",
    "/{p}:V[{p}:h = {lit} or {p}:n = 2]",
    "/{p}:V[{p}:h = {lit}]/{p}:n",
    "/{p}:V/{p}:h[. = {lit}][2]",
)

_expression = st.builds(
    lambda template, prefix, lit: template.format(p=prefix, lit=lit),
    st.sampled_from(EQUALITY + OTHER),
    st.sampled_from(("e", "f")),
    st.sampled_from(LITERALS),
)
#: the prefix ``e`` means ``urn:a`` to some subscribers and ``urn:b`` to others
_bindings = st.sampled_from(({"e": A, "f": B}, {"e": B, "f": A}))
_content = st.builds(MessageContentFilter, _expression, _bindings)
_topic = st.builds(
    lambda text: TopicFilter(TopicExpression(text, TopicDialect.CONCRETE)),
    st.sampled_from(("a", "b")),
)
_filters = st.one_of(
    _content,
    st.builds(lambda t, c: AndFilter([t, c]), _topic, _content),
    st.builds(lambda c, d: AndFilter([c, d]), _content, _content),
)

_texts = st.sampled_from(("x", " x", "x ", "", "it's", "7", "7.0", "\n"))
_child = st.one_of(
    _texts.map(lambda text: f"<{{p}}:h>{text}</{{p}}:h>"),
    st.tuples(_texts, _texts).map(lambda t: f'<{{p}}:h id="{t[0]}">{t[1]}</{{p}}:h>'),
    st.just("<{p}:h>x<{p}:i>y</{p}:i></{p}:h>"),  # mixed content: 'xy'
    _texts.map(lambda text: f"<{{p}}:g><{{p}}:h>{text}</{{p}}:h></{{p}}:g>"),
    st.integers(0, 7).map(lambda n: f"<{{p}}:n>{n}</{{p}}:n>"),
)
_payload = st.lists(
    st.tuples(_child, st.sampled_from(("a", "b"))), min_size=1, max_size=5
).map(
    lambda children: parse_xml(
        f'<a:V xmlns:a="{A}" xmlns:b="{B}">'
        + "".join(child.format(p=p) for child, p in children)
        + "</a:V>"
    ).freeze()
)


def _verdict(filter, context) -> bool:
    try:
        return filter.matches(context)
    except FilterError:
        return False


def _admitted(index, filters, path, payload) -> list[str]:
    """What the fan-out delivers: the index's candidates, with the full
    filter run only for the keys it leaves residual or undecided."""
    context = FilterContext(payload, path)
    candidates = index.candidates(path, payload)
    not_final = index.residual | index.undecided
    return [
        key for key in candidates
        if key not in not_final or _verdict(filters[key], context)
    ]


def _linear(filters, path, payload) -> list[str]:
    context = FilterContext(payload, path)
    return [key for key, filter in filters.items() if _verdict(filter, context)]


def _index(filters) -> TopicSubscriptionIndex:
    index = TopicSubscriptionIndex()
    for key, filter in filters.items():
        index.add(
            key, topic_expression_of(filter), content_expression_of(filter),
            index_decides(filter),
        )
    return index


class TestTheProbeAnswersAsTheFiltersDo:
    @given(
        st.lists(_filters, min_size=1, max_size=12),
        st.sampled_from((None, "a", "b")),
        st.lists(_payload, min_size=1, max_size=3),
        st.sets(st.integers(0, 11)),
    )
    @settings(max_examples=300, deadline=None)
    def test_candidates_and_residual_filters_admit_what_a_linear_scan_does(
        self, drawn, path, payloads, gone
    ):
        filters = {f"k{n}": filter for n, filter in enumerate(drawn)}
        index = _index(filters)
        for payload in payloads:
            assert _admitted(index, filters, path, payload) == _linear(filters, path, payload)
        for n in sorted(gone):  # discarding may empty a bucket or a whole group
            index.discard(f"k{n}")
            filters.pop(f"k{n}", None)
        for payload in payloads:
            assert _admitted(index, filters, path, payload) == _linear(filters, path, payload)


NS = {"e": A}


def _reading(*hosts: str):
    return parse_xml(
        f'<e:V xmlns:e="{A}"><e:n>2</e:n>'
        + "".join(f"<e:h>{host}</e:h>" for host in hosts)
        + "</e:V>"
    ).freeze()


class TestTheEqualityForm:
    def test_the_grammar_states_the_probe_and_the_literal(self):
        assert XPath("/e:V[e:h='x']", NS).equality == ("/e:V/e:h", "x")
        assert XPath('/e:V[ "x" = e:g/@id ]', NS).equality == ("/e:V/e:g/@id", "x")
        assert XPath("/e:V[e:h='']", NS).equality == ("/e:V/e:h", "")
        assert XPath("//e:h[.='x']", NS).equality == ("//e:h/.", "x")
        assert XPath("/e:V[e:n='1']/e:h[e:i='x']", NS).equality == ("/e:V[e:n='1']/e:h/e:i", "x")

    def test_what_stays_an_expression_of_its_own(self):
        for text in (
            "/e:V[e:h=1]", "/e:V[e:h!='x']", "/e:V[1]", "/e:V[e:h='x' or e:h='y']",
            "/e:V[e:h='x']/e:n", "/e:V[e:h='x'][1]", "/e:V[1][e:h='x']", "e:h='x'",
            "/e:V[e:h='x'] = 'y'", "/e:V[/e:V/e:h='x']", "count(/e:V[e:h='x'])",
            "/e:V[concat(e:h, '')='x']",
        ):
            assert XPath(text, NS).equality is None, text


class TestOneGroup:
    def test_several_matching_children_admit_each_literal_they_hold(self):
        index = TopicSubscriptionIndex()
        for n, host in enumerate(("x", "y", "z", "x")):
            index.add(f"k{n}", None, XPath(f"/e:V[e:h='{host}']", NS), final=True)
        assert index.candidates(None, _reading("y", "x")) == ["k0", "k1", "k3"]
        assert index.content_evals == 1 and len(index._groups) == 1

    def test_a_raising_probe_leaves_every_live_key_of_its_group_undecided(self):
        index = TopicSubscriptionIndex()
        for n, host in enumerate(("x", "y")):
            index.add(f"k{n}", None, XPath(f"/e:V[count(1)]/e:h[.='{host}']", NS), final=True)
        index.add("far", TopicExpression("b", TopicDialect.CONCRETE),
                  XPath("/e:V[count(1)]/e:h[.='z']", NS), final=True)
        index.add("plain", None, XPath("/e:V/e:n", NS), final=True)
        assert index.candidates("a", _reading("x")) == ["k0", "k1", "plain"]
        assert index.undecided == {"k0", "k1"}

    def test_the_wse_and_wsn_indexes_share_one_evaluation(self, monkeypatch):
        evaluations = []
        value = XPath._value
        monkeypatch.setattr(XPath, "_value", lambda self, tree: evaluations.append(self) or value(self, tree))
        indexes = [TopicSubscriptionIndex(), TopicSubscriptionIndex()]
        for index in indexes:
            for host in ("x", "y"):
                index.add(host, None, XPath(f"/e:V[e:h='{host}']", NS), final=True)
        payload = _reading("y")
        assert [index.candidates(None, payload) for index in indexes] == [["y"], ["y"]]
        assert [index.content_evals for index in indexes] == [1, 1]
        assert [xpath.expression for xpath in evaluations] == ["/e:V/e:h"]

    def test_discarding_the_last_bucket_drops_the_group(self):
        index = TopicSubscriptionIndex()
        index.add("x1", None, XPath("/e:V[e:h='x']", NS), final=True)
        index.add("x2", None, XPath("/e:V['x'=e:h]", NS), final=True)
        index.add("y", None, XPath("/e:V[e:h='y']", NS), final=True)
        (group,) = index._groups.values()
        assert group.buckets == {"x": {"x1", "x2"}, "y": {"y"}}
        index.discard("x1")
        index.discard("x2")
        assert group.buckets == {"y": {"y"}}
        assert index.candidates(None, _reading("x", "y")) == ["y"]
        index.discard("y")
        assert index._groups == {} and index.candidates(None, _reading("y")) == []
