"""The work one publish may cost in content matching, counted in calls.

Wall-clock time is the benchmark's business; what is held here is the
shape of the work.  An XPath evaluation runs closures compiled once, so the
host predicate every ``match_sparse`` subscription carries costs a handful of
Python calls.  The subscription index evaluates each distinct expression once
and assembles its answer from the buckets that admit, so the number of Python
calls it makes does not depend on how many subscriptions share the
expressions.  Calls are counted with ``sys.setprofile`` (``call`` events:
Python frames, including comprehensions on interpreters that give them one).
"""

import random
import sys

from repro.filters.compilecache import compiled_xpath
from repro.filters.topics import TopicDialect, TopicSubscriptionIndex, compiled_topic_expression
from repro.xmlkit import XPath, parse_xml
from repro.xmlkit.xpath import engine

NS = {"ev": "urn:grid:events"}
HOSTS = 100


def _python_calls(fn, *args):
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return calls, result


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
        calls, verdict = _python_calls(xpath.matches, payload)
        assert verdict is True
        # the AST interpreter made 43 Python and 56 C calls here
        assert calls <= 20

    def test_a_miss_costs_no_more_than_a_hit(self):
        payload = _reading(42)
        XPath("/ev:Reading", NS).matches(payload)
        hit, _ = _python_calls(XPath("/ev:Reading[ev:host='h042']", NS).matches, payload)
        miss, verdict = _python_calls(XPath("/ev:Reading[ev:host='h041']", NS).matches, payload)
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
    def test_100_evaluations_and_calls_independent_of_the_population(self):
        calls = []
        for copies in (1, 2):
            index = _population(copies)
            assert len(index) == 4000 * copies and len(index._content) == HOSTS
            payload = _reading(42)
            count, found = _python_calls(index.candidates, "grid/s07/load", payload)
            assert index.content_evals == HOSTS
            # the 20 topic-free subscriptions of host 42 and those of its 20
            # topic subscriptions whose expression admits grid/s07/load
            assert 20 * copies < len(found) < 40 * copies
            assert found == sorted(found, key=index._seq.__getitem__)
            calls.append(count)
        assert calls[0] == calls[1]

    def test_no_content_bucket_builds_no_xpath_tree(self, monkeypatch):
        builds = []
        monkeypatch.setattr(engine, "build_tree", lambda root: builds.append(root))
        index = TopicSubscriptionIndex()
        index.add("topic-only", compiled_topic_expression("grid/*/load", TopicDialect.FULL.uri))
        index.add("accept-all", None)
        assert index.candidates("grid/s07/load", _reading(42)) == ["topic-only", "accept-all"]
        assert builds == [] and index.content_evals == 0
