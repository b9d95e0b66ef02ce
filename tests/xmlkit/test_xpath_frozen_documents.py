"""The per-document match state of :mod:`repro.xmlkit.xpath`.

For a frozen tree the XPath node tree is built once and the boolean each
compiled expression gave is kept while that tree is among the two evaluated
most recently.  Whatever is remembered must be indistinguishable from a fresh
evaluation, and nothing may be remembered about a tree that can still change.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.compilecache import compiled_xpath
from repro.xmlkit import XPath, parse_xml
from repro.xmlkit.element import XElem
from repro.xmlkit.names import QName
from repro.xmlkit.xpath import XPathError, engine
from repro.xmlkit.xpath.values import to_boolean

from test_xpath_properties import elements

NS = {"a": "urn:one", "b": "urn:two"}

_ATOMS = [
    "/*",
    "//a:*",
    "//b:*[@*]",
    "/*/*[2]",
    "//*[not(*)]",
    "count(//*) > 3",
    "count(//@*) = 1",
    "string(/*) = ''",
    "string-length(string(/*)) > 5",
    "//text()[contains(., 'a')]",
    "boolean(/*/*/*)",
    "/*[local-name() = name()]",
    "//*[namespace-uri() = 'urn:two']",
    "(//*)[last()]/@*",
    "sum(//*[number(.) = number(.)]) > 1",
    "1 | 2",  # compiles; '|' needs node-sets whatever the document
    "count('text') = 1",  # compiles; count() needs a node-set
    "(1)[1]",  # compiles; predicates need a node-set
]
_expressions = st.one_of(
    st.sampled_from(_ATOMS),
    st.builds(
        lambda left, op, right: f"({left}) {op} ({right})",
        st.sampled_from(_ATOMS),
        st.sampled_from(["and", "or", "=", "!="]),
        st.sampled_from(_ATOMS),
    ),
)


def _fresh(expression: str, root: XElem):
    """The reference: a new compilation evaluated on a new, unfrozen tree."""
    try:
        return to_boolean(XPath(expression, NS).evaluate(root.copy()))
    except XPathError as exc:
        return type(exc)


def _shared(xpath: XPath, root: XElem):
    try:
        return xpath.matches(root)
    except XPathError as exc:
        return type(exc)


class TestSharedStateEqualsFreshEvaluation:
    @given(st.lists(_expressions, min_size=1, max_size=4), st.lists(elements(), min_size=1, max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_frozen_payloads_duplicated_subscriptions(self, expressions, payloads):
        # the same predicate arriving three times is one shared compiled form
        subscriptions = [compiled_xpath(text, NS) for text in expressions for _ in range(3)]
        frozen = [payload.copy().freeze() for payload in payloads]
        # interleave the documents so each is looked up again after the others
        for _ in range(2):
            for document, original in zip(frozen, payloads):
                for xpath in subscriptions:
                    assert _shared(xpath, document) == _fresh(xpath.expression, original)

    @given(_expressions, elements())
    @settings(max_examples=120, deadline=None)
    def test_a_mutated_copy_never_sees_the_frozen_trees_answer(self, expression, payload):
        xpath = compiled_xpath(expression, NS)
        frozen = payload.copy().freeze()
        _shared(xpath, frozen)
        mutant = frozen.copy()
        mutant.append(XElem(QName("urn:two", "extra"), {QName("", "k"): "v"}, ["aaaaaa"]))
        assert not mutant.frozen
        assert _shared(xpath, mutant) == _fresh(expression, mutant)
        # and the frozen original still answers for itself
        assert _shared(xpath, frozen) == _fresh(expression, payload)

    @given(_expressions, elements())
    @settings(max_examples=60, deadline=None)
    def test_an_unfrozen_tree_is_re_evaluated_after_every_change(self, expression, payload):
        xpath = compiled_xpath(expression, NS)
        tree = payload.copy()
        assert _shared(xpath, tree) == _fresh(expression, tree)
        tree.append(XElem(QName("urn:one", "late"), children=["1"]))
        assert _shared(xpath, tree) == _fresh(expression, tree)


DOC = '<e:r xmlns:e="urn:one"><e:host>h1</e:host><e:load>7</e:load></e:r>'


@pytest.fixture
def counts(monkeypatch):
    seen = {"builds": 0, "evaluations": 0}
    build_tree, value = engine.build_tree, XPath._value

    def counting_build(root):
        seen["builds"] += 1
        return build_tree(root)

    def counting_value(self, tree):
        seen["evaluations"] += 1
        return value(self, tree)

    monkeypatch.setattr(engine, "build_tree", counting_build)
    monkeypatch.setattr(XPath, "_value", counting_value)
    engine._recent_documents.clear()
    return seen


class TestWhatIsKept:
    def test_one_tree_and_one_evaluation_per_expression_for_a_frozen_payload(self, counts):
        payload = parse_xml(DOC).freeze()
        expressions = [XPath(f"/a:r[a:host='h{n}']", NS) for n in range(5)]
        for _ in range(10):
            assert [x.matches(payload) for x in expressions] == [False, True, False, False, False]
        assert counts == {"builds": 1, "evaluations": 5}

    def test_evaluate_and_select_share_the_tree_but_not_the_verdicts(self, counts):
        payload = parse_xml(DOC).freeze()
        xpath = XPath("//a:load", NS)
        assert xpath.matches(payload)
        assert [e.text() for e in xpath.select(payload)] == ["7"]
        assert xpath.evaluate(payload) == [payload.find(QName("urn:one", "load"))]
        assert counts == {"builds": 1, "evaluations": 3}

    def test_an_unfrozen_payload_is_wrapped_and_evaluated_every_time(self, counts):
        payload = parse_xml(DOC)
        xpath = XPath("/a:r", NS)
        for _ in range(3):
            assert xpath.matches(payload)
        assert counts == {"builds": 3, "evaluations": 3}
        assert engine._recent_documents == []

    def test_state_is_bounded_to_the_two_most_recent_frozen_trees(self, counts):
        xpath = XPath("/a:r", NS)
        payload, properties, later = (parse_xml(DOC).freeze() for _ in range(3))
        # a fan-out alternates payload and properties document: both stay
        for _ in range(4):
            assert xpath.matches(payload) and xpath.matches(properties)
        assert counts == {"builds": 2, "evaluations": 2}
        # the next payload displaces the older of the two, nothing accumulates
        assert xpath.matches(later)
        assert [d.root for d in engine._recent_documents] == [later, properties]
        assert xpath.matches(payload)
        assert counts == {"builds": 4, "evaluations": 4}
        assert len(engine._recent_documents) == 2

    def test_a_failing_evaluation_is_not_remembered_as_an_answer(self, counts):
        payload = parse_xml(DOC).freeze()
        xpath = XPath("1 | 2", NS)
        for _ in range(3):
            with pytest.raises(XPathError, match="requires node-set operands"):
                xpath.matches(payload)
        assert counts == {"builds": 1, "evaluations": 3}
