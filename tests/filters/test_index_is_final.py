"""The subscription index's admission is final for the filters it represents.

A key whose filter is accept-all, one topic part, one content part, or the
AND of one of each is admitted by the index alone: the fan-out runs no
filter for it.  The differential below holds that shortcut to the full
filter on random Simple, Concrete and Full topic expressions, optional
XPath content, paths and payloads: the keys the index admits as final are
exactly the decided keys whose full filter matches.  Every other key stays
residual, and so does a key whose content expression raises on the payload,
whose own filter then reports the error in ``fanout.filter_errors``.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.filters.base import AcceptAllFilter, AndFilter, FilterContext, FilterError
from repro.filters.content import MessageContentFilter, content_expression_of
from repro.filters.producer import ProducerPropertiesFilter
from repro.filters.topics import (
    TopicDialect,
    TopicExpression,
    TopicFilter,
    TopicSubscriptionIndex,
    index_decides,
    topic_expression_of,
)
from repro.messenger import WsMessenger
from repro.obs import Instrumentation
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.xmlkit import parse_xml

NS = {"e": "urn:fin"}

#: content expressions: plain, data-dependent, always raising, raising only
#: when the payload's number exceeds 1 (``and`` evaluates its right side then)
CONTENT = (
    "/e:V/e:n > 1",
    "/e:V[e:h = 'x']",
    "true()",
    "1 | 2",
    "/e:V/e:n > 1 and count(1) > 0",
)

_names = st.sampled_from(("a", "b", "c"))


@st.composite
def _full_branch(draw) -> str:
    """One ``|``-branch: names and ``*`` joined by ``/`` or ``//`` (a gap),
    perhaps opening with a gap, perhaps closing with ``//.``."""
    text = draw(st.sampled_from(("", "//")))
    segments = draw(st.lists(st.one_of(_names, st.just("*")), min_size=1, max_size=3))
    for index, segment in enumerate(segments):
        text += (draw(st.sampled_from(("/", "//"))) if index else "") + segment
    if draw(st.booleans()):
        text += "//."
    return text


@st.composite
def _expression(draw) -> TopicExpression:
    dialect = draw(st.sampled_from(list(TopicDialect)))
    if dialect is TopicDialect.SIMPLE:
        text = draw(_names)
    elif dialect is TopicDialect.CONCRETE:
        text = "/".join(draw(st.lists(_names, min_size=1, max_size=3)))
    else:
        text = "|".join(draw(st.lists(_full_branch(), min_size=1, max_size=2)))
    try:
        return TopicExpression(text, dialect)
    except FilterError:
        assume(False)


_content = st.builds(lambda text: MessageContentFilter(text, NS), st.sampled_from(CONTENT))
_topic = st.builds(TopicFilter, _expression())

#: every filter shape a Subscribe can build, and three the index cannot see through
_filters = st.one_of(
    st.just(AcceptAllFilter()),
    _topic,
    _content,
    st.builds(lambda t, c: AndFilter([t, c]), _topic, _content),
    st.builds(lambda c, t: AndFilter([c, t]), _content, _topic),
    st.builds(lambda t: AndFilter([t, ProducerPropertiesFilter("true()")]), _topic),
    st.builds(lambda t, u: AndFilter([t, u]), _topic, _topic),
    st.builds(lambda c, d: AndFilter([c, d]), _content, _content),
)

_paths = st.one_of(st.none(), st.lists(_names, min_size=1, max_size=4).map("/".join))


def _payload(n: int, h: str):
    return parse_xml(f'<e:V xmlns:e="urn:fin"><e:n>{n}</e:n><e:h>{h}</e:h></e:V>').freeze()


def _verdict(filter, context) -> bool:
    try:
        return filter.matches(context)
    except FilterError:
        return False


class TestTheIndexIsFinal:
    @given(
        st.lists(_filters, min_size=1, max_size=8),
        _paths,
        st.integers(0, 3),
        st.sampled_from(("x", "y")),
    )
    @settings(max_examples=300, deadline=None)
    def test_final_admissions_are_exactly_the_decided_matches(self, filters, path, n, h):
        index = TopicSubscriptionIndex()
        keys = [f"k{i}" for i in range(len(filters))]
        for key, filter in zip(keys, filters):
            index.add(
                key, topic_expression_of(filter), content_expression_of(filter),
                index_decides(filter),
            )
        payload = _payload(n, h)
        context = FilterContext(payload, path)
        candidates = index.candidates(path, payload)
        verdicts = {key: _verdict(filter, context) for key, filter in zip(keys, filters)}
        # a pre-filter still: nothing that matches is left out, order kept
        assert {key for key in keys if verdicts[key]} <= set(candidates)
        assert candidates == [key for key in keys if key in candidates]
        not_final = index.residual | index.undecided
        final = {key for key in candidates if key not in not_final}
        decided = {key for key, filter in zip(keys, filters) if index_decides(filter)}
        assert final == {key for key in decided if verdicts[key]}

    def test_the_shapes_the_index_decides(self):
        topic = TopicFilter(TopicExpression("a", TopicDialect.SIMPLE))
        content = MessageContentFilter("true()")
        assert index_decides(AcceptAllFilter())
        assert index_decides(topic) and index_decides(content)
        assert index_decides(AndFilter([topic, content]))
        assert not index_decides(AndFilter([topic, ProducerPropertiesFilter("true()")]))
        assert not index_decides(AndFilter([topic, topic]))
        assert not index_decides(AndFilter([content, content]))
        assert not index_decides(ProducerPropertiesFilter("true()"))


class TestARaisingExpressionStaysResidual:
    def test_its_own_filter_runs_and_reports_the_error(self):
        network = SimulatedNetwork(VirtualClock())
        instrumentation = Instrumentation.attach(network)
        broker = WsMessenger(network, "http://fin-broker")
        plain = NotificationConsumer(network, "http://fin-plain")
        failing = NotificationConsumer(network, "http://fin-failing")
        client = WsnSubscriber(network)
        client.subscribe(broker.epr(), plain.epr(), topic="a")
        client.subscribe(
            broker.epr(), failing.epr(), topic="a", message_content="1 | 2", namespaces=NS
        )
        broker.publish(_payload(1, "x"), topic="a")

        def total(name):
            return sum(instrumentation.metrics.counter_values(name).values())

        assert (len(plain.received), len(failing.received)) == (1, 0)
        # one candidacy left undecided, so one filter run, and its error counted
        assert total("fanout.filter_evals") == 1
        assert total("fanout.filter_errors") == 1
