"""The work one publish may cost in content matching, counted in calls.

Wall-clock time is the benchmark's business; what is held here is the
shape of the work.  An XPath evaluation runs closures compiled once, so the
host predicate every ``match_sparse`` subscription carries costs a handful of
Python calls.  The subscription index evaluates the probe the hundred host
predicates share (``/ev:Reading/ev:host``) once and looks its values up among
their literals, so the number of Python calls it makes depends neither on how
many subscriptions share the expressions nor on how many literals there are.  Calls are counted by :func:`repro.comparison.python_calls`
(``call`` events under ``sys.setprofile``, with the collector off: Python
frames, including comprehensions on interpreters that give them one).
"""

import random

from repro.comparison import python_calls
from repro.filters.compilecache import compiled_xpath
from repro.filters.topics import TopicDialect, TopicSubscriptionIndex, compiled_topic_expression
from repro.xmlkit import XPath, parse_xml
from repro.xmlkit.xpath import engine

NS = {"ev": "urn:grid:events"}
HOSTS = 100


def _reading(host: int):
    return parse_xml(
        '<ev:Reading xmlns:ev="urn:grid:events">'
        f"<ev:host>h{host:03d}</ev:host><ev:site>s07</ev:site>"
        "<ev:kind>load</ev:kind><ev:value>7</ev:value></ev:Reading>"
    ).freeze()


class TestOneEvaluation:
    def test_the_host_predicate_makes_at_most_20_python_calls(self):
        payload = _reading(42)
        xpath = XPath("/ev:Reading[ev:host='h042']", NS)
        XPath("/ev:Reading", NS).matches(payload)  # the document's tree exists
        calls, verdict = python_calls(xpath.matches, payload)
        assert verdict is True
        # the AST interpreter made 43 Python and 56 C calls here
        assert calls <= 20

    def test_a_miss_costs_no_more_than_a_hit(self):
        payload = _reading(42)
        XPath("/ev:Reading", NS).matches(payload)
        hit, _ = python_calls(XPath("/ev:Reading[ev:host='h042']", NS).matches, payload)
        miss, verdict = python_calls(XPath("/ev:Reading[ev:host='h041']", NS).matches, payload)
        assert verdict is False and miss <= hit


def _population(copies: int) -> TopicSubscriptionIndex:
    """The ``test_content_fanout`` population: per host 20 subscriptions with
    no topic, 10 on ``grid/*/<kind>`` and 10 on ``grid/<site>/*``, each with
    the host predicate — ``copies`` times over, on the same 100 expressions."""
    rng = random.Random(5)
    plans = [
        (host, shape)
        for host in range(HOSTS)
        for shape in ["wse"] * 20 + ["kind"] * 10 + ["site"] * 10
    ] * copies
    rng.shuffle(plans)
    index = TopicSubscriptionIndex()
    for n, (host, shape) in enumerate(plans):
        content = compiled_xpath(f"/ev:Reading[ev:host='h{host:03d}']", NS)
        if shape == "wse":
            topic = None
        else:
            text = f"grid/*/{rng.choice(['load', 'temp'])}" if shape == "kind" else f"grid/s{rng.randrange(50)}/*"
            topic = compiled_topic_expression(text, TopicDialect.FULL.uri)
        index.add(f"sub-{n}", topic, content)
    return index


class TestOneCandidatesCall:
    def test_one_probe_evaluation_and_calls_independent_of_the_population(self):
        calls = []
        for copies in (1, 2):
            index = _population(copies)
            assert len(index) == 4000 * copies and len(index._groups) == 1
            payload = _reading(42)
            count, found = python_calls(index.candidates, "grid/s07/load", payload)
            assert index.content_evals == 1
            # the 20 topic-free subscriptions of host 42 and those of its 20
            # topic subscriptions whose expression admits grid/s07/load
            assert 20 * copies < len(found) < 40 * copies
            assert found == sorted(found, key=index._seq.__getitem__)
            calls.append(count)
        assert calls[0] == calls[1]
        # 57 on CPython 3.11, the tree build included; evaluating each of the
        # 100 expressions on its own made 1 647
        assert calls[0] <= 80

    def test_no_content_bucket_builds_no_xpath_tree(self, monkeypatch):
        builds = []
        monkeypatch.setattr(engine, "build_tree", lambda root: builds.append(root))
        index = TopicSubscriptionIndex()
        index.add("topic-only", compiled_topic_expression("grid/*/load", TopicDialect.FULL.uri))
        index.add("accept-all", None)
        assert index.candidates("grid/s07/load", _reading(42)) == ["topic-only", "accept-all"]
        assert builds == [] and index.content_evals == 0
