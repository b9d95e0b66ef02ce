"""No filter expression blows the stack.

XPath, JMS selectors and CORBA TCL share one bound on how deeply an
expression nests (``repro.util.grammar.MAX_DEPTH``).  Each language is tried
on three shapes -- nested parentheses, a chain of prefix operators, a
left-deep chain at every binary level -- at the bound, where it compiles and
evaluates through a real subscription and a publish, and one past it, where
it is the language's syntax error.  Every parser recursed without a bound
before, and these inputs raised ``RecursionError`` in the subscriber's stack.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.corba import CorbaError, NotificationChannel, Orb, StructuredEvent
from repro.baselines.corba.notification_service import FilterObject
from repro.baselines.jms import Connection, JmsProvider, TextMessage
from repro.filters.base import FilterError
from repro.filters.selector import MessageSelector
from repro.filters.tcl import TclConstraint
from repro.messenger import WsMessenger
from repro.soap.fault import SoapFault
from repro.transport import SimulatedNetwork, VirtualClock
from repro.util.grammar import MAX_DEPTH
from repro.wse import EventSink, EventSource, WseSubscriber
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
from repro.xmlkit import XPath, parse_xml
from repro.xmlkit.xpath import XPathSyntaxError


def _chain(term: str, operator: str, operators: int) -> str:
    return f" {operator} ".join([term] * (operators + 1))


#: shape -> depth -> an XPath that is true on any document with an ``a``
XPATH_SHAPES = {
    "parentheses": lambda n: "(" * n + "//a" + ")" * n,
    "predicates": lambda n: "//a" + "[//a" * n + "]" * n,
    "calls": lambda n: "boolean(" * n + "//a" + ")" * n,
    "minus": lambda n: "-" * n + "1",
    "or": lambda n: _chain("//a", "or", n),
    "and": lambda n: _chain("//a", "and", n),
    "equality": lambda n: _chain("1", "=", n),
    "relational": lambda n: _chain("1", "<=", n),
    "additive": lambda n: _chain("1", "+", n),
    "multiplicative": lambda n: _chain("1", "*", n),
    "union": lambda n: _chain("//a", "|", n),
}

#: shape -> depth -> a selector that is true when x = 1
SELECTOR_SHAPES = {
    "parentheses": lambda n: "(" * n + "x = 1" + ")" * n,
    "not": lambda n: "NOT " * n + ("x = 1" if n % 2 == 0 else "x = 2"),
    "minus": lambda n: "-" * n + "x = " + ("1" if n % 2 == 0 else "-1"),
    "plus": lambda n: "+" * n + "x = 1",
    "or": lambda n: _chain("x = 1", "OR", n),
    "and": lambda n: _chain("x = 1", "AND", n),
    "additive": lambda n: "x" + " + 0" * n + " = 1",
    "multiplicative": lambda n: "x" + " * 1" * n + " = 1",
}

#: shape -> depth -> a constraint that is true when $x == 1
TCL_SHAPES = {
    "parentheses": lambda n: "(" * n + "$x == 1" + ")" * n,
    "not": lambda n: "not " * n + ("$x == 1" if n % 2 == 0 else "$x == 2"),
    "minus": lambda n: "-" * n + "$x == " + ("1" if n % 2 == 0 else "-1"),
    "or": lambda n: _chain("$x == 1", "or", n),
    "and": lambda n: _chain("$x == 1", "and", n),
    "additive": lambda n: "$x" + " + 0" * n + " == 1",
    "multiplicative": lambda n: "$x" + " * 1" * n + " == 1",
}


class TestTheBound:
    @pytest.mark.parametrize("shape", XPATH_SHAPES)
    def test_xpath(self, shape):
        expression = XPATH_SHAPES[shape]
        assert XPath(expression(MAX_DEPTH)).matches(parse_xml("<a/>"))
        with pytest.raises(XPathSyntaxError, match=f"nested deeper than {MAX_DEPTH}"):
            XPath(expression(MAX_DEPTH + 1))

    @pytest.mark.parametrize("shape", SELECTOR_SHAPES)
    def test_selector(self, shape):
        expression = SELECTOR_SHAPES[shape]
        assert MessageSelector(expression(MAX_DEPTH)).matches({"x": 1})
        with pytest.raises(FilterError, match=f"nested deeper than {MAX_DEPTH}"):
            MessageSelector(expression(MAX_DEPTH + 1))

    @pytest.mark.parametrize("shape", TCL_SHAPES)
    def test_tcl(self, shape):
        expression = TCL_SHAPES[shape]
        assert TclConstraint(expression(MAX_DEPTH)).matches({"filterable_data": {"x": 1}})
        with pytest.raises(FilterError, match=f"nested deeper than {MAX_DEPTH}"):
            TclConstraint(expression(MAX_DEPTH + 1))

    @pytest.mark.parametrize(
        "compile_, expression",
        [
            (XPath, "(" * 58 + "/a" + ")" * 58),
            (XPath, _chain("1", "+", 490)),
            (XPath, _chain("//a", "or", 490)),
            (XPath, "-" * 490 + "1"),
            (MessageSelector, "(" * 200 + "x = 1" + ")" * 200),
            (TclConstraint, "(" * 200 + "$x == 1" + ")" * 200),
            (MessageSelector, "NOT " * 5000 + "x = 1"),
            (TclConstraint, "-" * 5000 + "$x == 1"),
        ],
    )
    def test_what_overflowed_the_stack_is_a_syntax_error(self, compile_, expression):
        with pytest.raises((XPathSyntaxError, FilterError)):
            compile_(expression)


def _stack():
    network = SimulatedNetwork(VirtualClock())
    return network, WsMessenger(network, "http://depth-broker")


class TestThroughSubscribe:
    """At the bound a filter is granted and delivers; past it the Subscribe
    is refused with the family's filter fault, as any uncompilable one."""

    @pytest.mark.parametrize("shape", XPATH_SHAPES)
    @pytest.mark.parametrize("front_door", ["event-source", "ws-messenger"])
    def test_wse(self, shape, front_door):
        network, broker = _stack()
        source = EventSource(network, "http://depth-source") if front_door == "event-source" else broker
        sinks = [EventSink(network, f"http://depth-sink-{n}") for n in range(2)]
        WseSubscriber(network).subscribe(
            source.epr(), notify_to=sinks[0].epr(), filter=XPATH_SHAPES[shape](MAX_DEPTH)
        )
        with pytest.raises(SoapFault) as caught:
            WseSubscriber(network).subscribe(
                source.epr(), notify_to=sinks[1].epr(), filter=XPATH_SHAPES[shape](MAX_DEPTH + 1)
            )
        assert caught.value.subcode.local == "FilteringRequestedUnavailable"
        source.publish(parse_xml("<a/>"))
        assert [len(sink.received) for sink in sinks] == [1, 0]

    @pytest.mark.parametrize("shape", XPATH_SHAPES)
    @pytest.mark.parametrize("front_door", ["producer", "ws-messenger"])
    def test_wsn(self, shape, front_door):
        network, broker = _stack()
        producer = (
            NotificationProducer(network, "http://depth-producer", producer_properties={"a": "1"})
            if front_door == "producer"
            else broker
        )
        consumers = [NotificationConsumer(network, f"http://depth-consumer-{n}") for n in range(3)]
        subscriber = WsnSubscriber(network)
        for kind, fault in (
            ("message_content", "InvalidMessageContentExpressionFault"),
            ("producer_properties", "InvalidProducerPropertiesExpressionFault"),
        ):
            with pytest.raises(SoapFault) as caught:
                subscriber.subscribe(
                    producer.epr(), consumers[0].epr(), **{kind: XPATH_SHAPES[shape](MAX_DEPTH + 1)}
                )
            assert caught.value.subcode.local == fault
        subscriber.subscribe(
            producer.epr(), consumers[1].epr(), message_content=XPATH_SHAPES[shape](MAX_DEPTH)
        )
        if front_door == "producer":  # the broker has no properties of its own
            subscriber.subscribe(
                producer.epr(), consumers[2].epr(), producer_properties=XPATH_SHAPES[shape](MAX_DEPTH)
            )
        producer.publish(parse_xml("<a/>"))
        assert [len(consumer.received) for consumer in consumers] == [
            0, 1, 1 if front_door == "producer" else 0
        ]

    @pytest.mark.parametrize("shape", SELECTOR_SHAPES)
    def test_jms_consumer(self, shape):
        provider = JmsProvider(VirtualClock())
        connection = Connection(provider, "depth-client")
        connection.start()
        session = connection.create_session()
        topic = provider.topic("depth")
        consumer = session.create_consumer(topic, SELECTOR_SHAPES[shape](MAX_DEPTH))
        with pytest.raises(FilterError):
            session.create_consumer(topic, SELECTOR_SHAPES[shape](MAX_DEPTH + 1))
        message = TextMessage(text="hit")
        message.set_property("x", 1)
        session.create_producer(topic).send(message)
        assert consumer.receive().text == "hit"

    @pytest.mark.parametrize("shape", TCL_SHAPES)
    def test_corba_filter_object(self, shape):
        orb = Orb()
        channel = NotificationChannel(orb)
        received = []
        proxy = channel.new_for_consumers().obtain_structured_push_supplier()
        filter_object = FilterObject()
        filter_object.add_constraint(TCL_SHAPES[shape](MAX_DEPTH))
        with pytest.raises(CorbaError, match="InvalidConstraint"):
            filter_object.add_constraint(TCL_SHAPES[shape](MAX_DEPTH + 1))
        proxy.add_filter(filter_object)
        proxy.connect_structured_push_consumer(orb.register(lambda op, args: received.append(args[0])))
        supplier = channel.new_for_suppliers().obtain_structured_push_consumer()
        for x in (1, 2):
            supplier.push_structured_event(
                StructuredEvent(domain_name="grid", type_name="T", event_name="e", filterable_data={"x": x})
            )
        assert [event["filterable_data"]["x"] for event in received] == [1]


#: token soups: every piece of each language, and some that are not
_PIECES = {
    "selector": [
        "x", "'a'", "''''", "1", "1.5", ".5", "9" * 5000, "(", ")", "NOT", "AND", "OR", "=",
        "<>", "<", ">=", "+", "-", "*", "/", "BETWEEN", "IN", "LIKE", "ESCAPE", "IS", "NULL",
        "TRUE", ",", "'%_'", "$", "a.b", "\\", "'", "!",
    ],
    "tcl": [
        "$x", "$.", "$.a", "$", "'a'", "'\\''", "1", "2.5", "9" * 5000, "(", ")", "not", "and",
        "or", "exist", "in", "~", "==", "!=", "<", "+", "-", "*", "/", "true", "foo", "'", "\\",
    ],
    "xpath": [
        "/", "//", "a", "ev:a", "*", "@", "[", "]", "(", ")", "1", "9" * 5000, "'s'", "or", "and",
        "=", "!=", "<", "+", "-", "div", "mod", "|", ",", "count(", "floor(", "concat(",
        "child::", "text()", ".", "..", "$", "!", ":", "::",
    ],
}
_COMPILE = {
    "selector": (MessageSelector, FilterError),
    "tcl": (TclConstraint, FilterError),
    "xpath": (lambda text: XPath(text, {"ev": "urn:x"}), XPathSyntaxError),
}


@pytest.mark.parametrize("language", _PIECES)
def test_any_input_compiles_or_is_the_syntax_error(language):
    """A 5000-digit literal raised ValueError out of int() in both
    selectors and TCL; the soups also take every other construct to its
    failure paths."""
    rng, (compile_, syntax_error) = random.Random(2006), _COMPILE[language]
    for _ in range(3000):
        text = " ".join(rng.choice(_PIECES[language]) for _ in range(rng.randint(1, 12)))
        try:
            compile_(text)
        except syntax_error:
            pass


@pytest.mark.parametrize(
    "language, text, offset",
    [("selector", "a = 1   #", 8), ("tcl", "$a == 1   #", 10), ("xpath", "abc   $", 6)],
)
def test_a_syntax_error_is_reported_at_the_character_no_token_matches(language, text, offset):
    """Not at the blanks before it, where the shared scanner put selector
    and TCL errors before."""
    compile_, syntax_error = _COMPILE[language]
    with pytest.raises(syntax_error, match=f"offset {offset} "):
        compile_(text)
