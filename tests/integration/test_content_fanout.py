"""Content matching as a per-publish stage of the fan-out.

The subscription index buckets content-filtered subscriptions by their
shared compiled expression, evaluates each distinct expression once per
publish and hands the fan-out loop only the survivors.  Here the composed
broker is held to the test-side linear oracle (``conftest.py``: it replaces
``Fanout.match`` and evaluates every subscription on its own, on an unfrozen
tree), the work per publish is counted, and the two filter-error bugs stay
fixed: a filter that cannot compile is refused at Subscribe, one that fails
on a message costs only its own subscriptions that message.
"""

import random
from dataclasses import dataclass, field

import pytest

import repro.fanout
from repro.messenger import WsMessenger
from repro.obs import Instrumentation
from repro.soap.fault import SoapFault
from repro.transport import SimulatedNetwork, VirtualClock
from repro.util.xstime import format_datetime
from repro.wsa.headers import reset_message_counter
from repro.wse import EventSink, WseSubscriber
from repro.wse.versions import WseVersion
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit import XPath, parse_xml
from repro.xmlkit.names import Namespaces
from repro.xmlkit.xpath import engine

NS = {"ev": "urn:diff"}
FAILING = "1 | 2"  # compiles; '|' needs node-set operands on every message

TOPICS = ["grid/s1/load", "grid/s1/temp", "grid/s2/load", "jobs", None]
TOPIC_FILTERS = [
    ("grid/*/load", Namespaces.DIALECT_TOPIC_FULL),
    ("grid/s1/*", Namespaces.DIALECT_TOPIC_FULL),
    ("grid//.", Namespaces.DIALECT_TOPIC_FULL),
    ("jobs", Namespaces.DIALECT_TOPIC_SIMPLE),
    ("grid/s2/load", Namespaces.DIALECT_TOPIC_CONCRETE),
]
CONTENT_FILTERS = [
    "/ev:Reading[ev:host='h0']",
    "/ev:Reading[ev:host='h1']",
    "/ev:Reading[ev:host='h2']",
    "//ev:load > 50",
    "count(//ev:host) = 1",
    FAILING,
]
PROPERTY_FILTERS = ["/*[cluster='A']", "/*[cluster='B']", "boolean(/*/rack)"]


def _reading(seq: int, host: int, load: int):
    return parse_xml(
        f'<ev:Reading xmlns:ev="urn:diff"><ev:seq>{seq}</ev:seq>'
        f"<ev:host>h{host}</ev:host><ev:load>{load}</ev:load></ev:Reading>"
    )


@dataclass
class Run:
    wire: list[tuple[str, bytes]] = field(default_factory=list)
    received: dict[str, list] = field(default_factory=dict)
    filter_errors: dict[str, int] = field(default_factory=dict)
    error_events: list[tuple[str, str]] = field(default_factory=list)


class Scenario:
    """One seeded population and traffic mix, replayed on either path."""

    def __init__(self, oracle_broker, *, linear: bool, seed: int, instrumented: bool = False) -> None:
        reset_message_counter()
        self.rng = random.Random(seed)
        self.run = Run()
        self.network = SimulatedNetwork(VirtualClock())
        self.network.wire_observers.append(
            lambda obs: self.run.wire.append((obs.address, bytes(obs.request)))
        )
        self.instr = Instrumentation.attach(self.network) if instrumented else None
        self.broker = oracle_broker(self.network, "http://cf-broker", linear=linear)
        self.properties = self.broker.wsn_producers[WsnVersion.V1_3].producer_properties
        self.properties["cluster"] = "A"
        self.consumers: list = []
        self.handles: list = []  # (subscriber, handle, kind)
        self.paused: list = []

    def _maybe(self, pool: list, chance: float):
        return self.rng.choice(pool) if self.rng.random() < chance else None

    def subscribe_wsn(self) -> None:
        rng = self.rng
        version = rng.choice(list(WsnVersion))
        consumer = NotificationConsumer(
            self.network, f"http://cf-wsn-{len(self.consumers)}", version=version
        )
        topic = self._maybe(TOPIC_FILTERS, 0.7)
        if topic is None and version.requires_topic:
            topic = rng.choice(TOPIC_FILTERS)
        content = self._maybe(CONTENT_FILTERS, 0.6)
        properties = self._maybe(PROPERTY_FILTERS, 0.3) if version is WsnVersion.V1_3 else None
        # lapses between publishes (absolute: durations arrived with 1.3)
        expires = format_datetime(self.network.clock.now() + 40) if rng.random() < 0.2 else None
        subscriber = WsnSubscriber(self.network, version=version)
        handle = subscriber.subscribe(
            self.broker.epr(),
            consumer.epr(),
            topic=topic[0] if topic else None,
            topic_dialect=topic[1] if topic else Namespaces.DIALECT_TOPIC_CONCRETE,
            message_content=content,
            producer_properties=properties,
            namespaces=NS,
            initial_termination=expires,
            use_raw=rng.random() < 0.3,
        )
        self.consumers.append(consumer)
        self.handles.append((subscriber, handle, "wsn"))

    def subscribe_wse(self) -> None:
        version = self.rng.choice(list(WseVersion))
        sink = EventSink(self.network, f"http://cf-wse-{len(self.consumers)}", version=version)
        content = self._maybe(CONTENT_FILTERS, 0.7)
        expires = "PT40S" if self.rng.random() < 0.2 else None
        subscriber = WseSubscriber(self.network, version=version)
        handle = subscriber.subscribe(
            self.broker.epr(), notify_to=sink.epr(), filter=content,
            filter_namespaces=NS, expires=expires,
        )
        self.consumers.append(sink)
        self.handles.append((subscriber, handle, "wse"))

    def churn(self) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.25 and self.handles:
            subscriber, handle, kind = self.handles.pop(rng.randrange(len(self.handles)))
            try:
                if kind == "wse" or subscriber.version.has_native_unsubscribe:
                    subscriber.unsubscribe(handle)
                else:
                    subscriber.destroy(handle)
            except SoapFault:
                pass  # already expired: both paths fault alike (the wire shows it)
        elif roll < 0.5:
            self.subscribe_wsn() if rng.random() < 0.5 else self.subscribe_wse()
        elif roll < 0.6:
            pausable = [
                entry for entry in self.handles
                if entry[2] == "wsn" and entry[0].version is WsnVersion.V1_3
            ]
            if pausable:
                entry = rng.choice(pausable)
                try:
                    entry[0].pause(entry[1])
                    self.paused.append(entry)
                except SoapFault:
                    pass
        elif roll < 0.7 and self.paused:
            entry = self.paused.pop()
            try:
                entry[0].resume(entry[1])
            except SoapFault:
                pass
        elif roll < 0.8:
            self.properties["cluster"] = rng.choice(["A", "B"])  # edited in place
        elif roll < 0.9:
            self.network.clock.advance(15.0)

    def play(self, population: int, publishes: int) -> Run:
        for _ in range(population):
            self.subscribe_wsn() if self.rng.random() < 0.55 else self.subscribe_wse()
        for seq in range(publishes):
            self.broker.publish(
                _reading(seq, self.rng.randrange(4), self.rng.randrange(100)),
                topic=self.rng.choice(TOPICS),
            )
            self.churn()
        self.broker.flush()
        for consumer in self.consumers:
            self.run.received[consumer.address] = [
                item.payload.full_text() for item in consumer.received
            ]
        if self.instr is not None:
            self.run.filter_errors = self.instr.metrics.counter_values("fanout.filter_errors")
            self.run.error_events = sorted(
                (event.detail["subscription"], event.detail["error"])
                for events in self.instr.ledger.events.values()
                for event in events
                if event.state == "filter_error"
            )
        return self.run


class TestIndexAgainstTheLinearOracle:
    @pytest.mark.parametrize("seed", [20060813, 7, 4242])
    def test_same_deliveries_and_byte_identical_wire(self, seed, oracle_broker):
        linear = Scenario(oracle_broker, linear=True, seed=seed).play(population=40, publishes=60)
        indexed = Scenario(oracle_broker, linear=False, seed=seed).play(population=40, publishes=60)
        assert indexed.received == linear.received
        delivered = sum(len(v) for v in linear.received.values())
        assert 100 < delivered < 40 * 60, "the population must filter, not pass or drop everything"
        assert len(indexed.wire) == len(linear.wire)
        for n, (want, got) in enumerate(zip(linear.wire, indexed.wire)):
            assert got == want, f"frame {n} diverged"

    def test_filter_errors_are_counted_alike_on_both_paths(self, oracle_broker):
        linear = Scenario(oracle_broker, linear=True, seed=99, instrumented=True).play(30, 40)
        indexed = Scenario(oracle_broker, linear=False, seed=99, instrumented=True).play(30, 40)
        assert indexed.received == linear.received
        assert sum(indexed.filter_errors.values()) > 0
        assert indexed.filter_errors == linear.filter_errors
        assert indexed.error_events == linear.error_events


def _broker(build=WsMessenger, **oracle):
    reset_message_counter()
    network = SimulatedNetwork(VirtualClock())
    instr = Instrumentation.attach(network)
    return network, instr, build(network, "http://cf-broker", **oracle)


class TestUncompilableFiltersFaultAtSubscribe:
    """Reproduced on the parent commit: these were accepted, and the next
    publish raised FilterError out of ``WsMessenger.publish`` — nobody,
    healthy subscribers included, got the event."""

    POISON = ["/q:Reading[q:host='a']", "frobnicate(1)", "contains('only-one')"]

    @pytest.mark.parametrize("expression", POISON)
    def test_wse_filtering_requested_unavailable(self, expression):
        network, _, broker = _broker()
        sink = EventSink(network, "http://cf-sink")
        with pytest.raises(SoapFault) as caught:
            WseSubscriber(network).subscribe(
                broker.epr(), notify_to=sink.epr(), filter=expression, filter_namespaces=NS
            )
        assert caught.value.subcode.local == "FilteringRequestedUnavailable"

    @pytest.mark.parametrize("expression", POISON)
    def test_wsn_invalid_message_content_and_producer_properties_faults(self, expression):
        network, _, broker = _broker()
        consumer = NotificationConsumer(network, "http://cf-consumer")
        subscriber = WsnSubscriber(network)
        with pytest.raises(SoapFault) as caught:
            subscriber.subscribe(
                broker.epr(), consumer.epr(), message_content=expression, namespaces=NS
            )
        assert caught.value.subcode.local == "InvalidMessageContentExpressionFault"
        with pytest.raises(SoapFault) as caught:
            subscriber.subscribe(
                broker.epr(), consumer.epr(), producer_properties=expression, namespaces=NS
            )
        assert caught.value.subcode.local == "InvalidProducerPropertiesExpressionFault"

    def test_the_refused_subscribe_leaves_nothing_behind(self):
        network, _, broker = _broker()
        healthy = EventSink(network, "http://cf-healthy")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=healthy.epr())
        with pytest.raises(SoapFault):
            WseSubscriber(network).subscribe(
                broker.epr(), notify_to=EventSink(network, "http://cf-bad").epr(),
                filter=self.POISON[0],
            )
        broker.publish(_reading(0, 0, 1))
        assert len(healthy.received) == 1
        assert sum(len(s.subscriptions.index) for s in broker.wse_sources.values()) == 1


class TestAFailingFilterCostsOnlyItsOwnSubscriptions:
    @pytest.mark.parametrize("linear", [False, True], ids=["indexed", "linear"])
    def test_poisoned_subscription_between_two_healthy_ones(self, linear, oracle_broker):
        network, instr, broker = _broker(oracle_broker, linear=linear)
        sinks = [EventSink(network, f"http://cf-sink-{n}") for n in range(3)]
        consumers = [NotificationConsumer(network, f"http://cf-consumer-{n}") for n in range(3)]
        wse, wsn = WseSubscriber(network), WsnSubscriber(network)
        for n, expression in enumerate(["//ev:seq", FAILING, None]):
            wse.subscribe(
                broker.epr(), notify_to=sinks[n].epr(), filter=expression, filter_namespaces=NS
            )
            wsn.subscribe(
                broker.epr(), consumers[n].epr(), topic="jobs",
                message_content=expression, namespaces=NS,
            )
        # a producer-properties expression can fail the same way
        props = NotificationConsumer(network, "http://cf-props")
        wsn.subscribe(broker.epr(), props.epr(), producer_properties="(1)[1]")
        for seq in range(2):
            broker.publish(_reading(seq, 0, 1), topic="jobs")
        # a topic the WSN subscriptions do not match: their filters never run
        broker.publish(_reading(2, 0, 1), topic="other")
        assert [len(s.received) for s in sinks] == [3, 0, 3]
        assert [len(c.received) for c in consumers] == [2, 0, 2]
        assert props.received == []
        # once per affected subscription per message, never silently
        assert instr.metrics.counter_values("fanout.filter_errors") == {
            "fanout.filter_errors{family=wse,reason=evaluation}": 3,
            "fanout.filter_errors{family=wsn,reason=evaluation}": 2 + 3,
        }
        events = [
            event
            for events in instr.ledger.events.values()
            for event in events
            if event.state == "filter_error"
        ]
        assert len(events) == 8
        assert all("require" in event.detail["error"] for event in events)
        assert len({event.detail["subscription"] for event in events}) == 3


HOSTS = 100


class TestWorkPerPublish:
    def test_4000_subscriptions_over_100_expressions(self, monkeypatch):
        """The deterministic gate behind the ``match_sparse`` claim: one tree
        build, one evaluation of the probe the 100 host predicates share (the
        WSE and WSN indexes read it off the one document), and the residual
        filter only on the survivors."""
        reset_message_counter()
        network = SimulatedNetwork(VirtualClock())
        broker = WsMessenger(
            network, "http://cf-broker",
            wse_versions=[WseVersion.V2004_08], wsn_versions=[WsnVersion.V1_3],
        )
        wse, wsn = WseSubscriber(network), WsnSubscriber(network)
        sink = EventSink(network, "http://cf-sink")
        consumer = NotificationConsumer(network, "http://cf-consumer")
        rng = random.Random(5)
        plans = [(host, shape) for host in range(HOSTS) for shape in ["wse"] * 20 + ["kind"] * 10 + ["site"] * 10]
        rng.shuffle(plans)
        for host, shape in plans:
            xpath = f"/ev:Reading[ev:host='h{host}']"
            if shape == "wse":
                wse.subscribe(broker.epr(), notify_to=sink.epr(), filter=xpath, filter_namespaces=NS)
            else:
                topic = f"grid/*/{rng.choice(['load', 'temp'])}" if shape == "kind" else f"grid/s{rng.randrange(50)}/*"
                wsn.subscribe(
                    broker.epr(), consumer.epr(), topic=topic,
                    topic_dialect=Namespaces.DIALECT_TOPIC_FULL,
                    message_content=xpath, namespaces=NS,
                )
        assert len(plans) == 4000
        indexes = [
            broker.wse_sources[WseVersion.V2004_08].subscriptions.index,
            broker.wsn_producers[WsnVersion.V1_3].subscriptions.index,
        ]
        assert [len(index._groups) for index in indexes] == [1, 1]

        seen = {"builds": 0, "evaluations": 0, "residual": 0}
        build_tree, value, admits = engine.build_tree, XPath._value, repro.fanout.admits

        def counting_build(root):
            seen["builds"] += 1
            return build_tree(root)

        def counting_value(self, tree):
            seen["evaluations"] += 1
            return value(self, tree)

        def counting_admits(*args, **kwargs):
            seen["residual"] += 1
            return admits(*args, **kwargs)

        monkeypatch.setattr(engine, "build_tree", counting_build)
        monkeypatch.setattr(XPath, "_value", counting_value)
        monkeypatch.setattr(repro.fanout, "admits", counting_admits)

        for seq in range(5):
            before = dict(seen), len(sink.received) + len(consumer.received)
            broker.publish(_reading(seq, host=rng.randrange(HOSTS), load=1), topic=f"grid/s{rng.randrange(50)}/load")
            matches = len(sink.received) + len(consumer.received) - before[1]
            assert 20 <= matches <= 40
            assert seen["builds"] - before[0]["builds"] == 1
            assert seen["evaluations"] - before[0]["evaluations"] == 1
            assert seen["residual"] - before[0]["residual"] <= matches
