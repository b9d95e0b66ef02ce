"""Differential correctness of the fan-out fast path.

The same seeded scenario — randomized topic sets, mixed WSN dialects and
versions, WSE subscriptions with and without content filters, publications,
renews and unsubscribes — is run against a WS-Messenger broker as shipped and
against the same broker with a test-side oracle installed (see
``conftest.py``): the pre-index linear matcher in place of the shared
``Fanout.match``, or tree serialization in place of the envelope
byte-template render.  Every pair of runs must produce the exact same
(consumer, message) delivery sets AND byte-identical raw wire traffic, frame
for frame.  The oracles replace one stage each, so the same holds with the
delivery manager, batching and a QoS queue bound composed in.
"""

import random
from dataclasses import dataclass, field

from repro.convergence.service import (
    MODE_WRAP,
    ConvergedConsumer,
    ConvergedSource,
    ConvergedSubscriber,
)
from repro.delivery import BatchingPolicy, DeliveryPolicy
from repro.qos.adaptive import AdaptiveQosPolicy
from repro.render import MESSAGE_ID, SUB_ID, TO, TOPIC
from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
from repro.wsa.headers import reset_message_counter
from repro.wse import EventSink, WseSubscriber
from repro.wse.model import DeliveryMode
from repro.wse.versions import WseVersion
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit import parse_xml
from repro.xmlkit.names import Namespaces
from repro.xmlkit.template import TEMPLATE_STATS

SEED = 20060813

TOPICS = [
    "news",
    "news/sports",
    "news/sports/football",
    "news/politics",
    "weather",
    "weather/alerts",
    "weather/europe/alerts",
    "sys/cpu",
    "sys/cpu/load",
]

# (expression, dialect) pool for WSN subscriptions — all three dialects
WSN_FILTERS = [
    ("news", Namespaces.DIALECT_TOPIC_SIMPLE),
    ("weather", Namespaces.DIALECT_TOPIC_SIMPLE),
    ("news/sports", Namespaces.DIALECT_TOPIC_CONCRETE),
    ("weather/alerts", Namespaces.DIALECT_TOPIC_CONCRETE),
    ("sys/cpu/load", Namespaces.DIALECT_TOPIC_CONCRETE),
    ("news/*", Namespaces.DIALECT_TOPIC_FULL),
    ("news//.", Namespaces.DIALECT_TOPIC_FULL),
    ("weather//alerts", Namespaces.DIALECT_TOPIC_FULL),
    ("sys//.", Namespaces.DIALECT_TOPIC_FULL),
    ("news/politics|weather", Namespaces.DIALECT_TOPIC_FULL),
]

N_CONSUMERS = 14
N_PUBLISHES = 25


def _event(i: int) -> "XElem":
    return parse_xml(
        f'<ev:Event xmlns:ev="urn:diff"><ev:seq>{i}</ev:seq>'
        f"<ev:body>payload &amp; text {i}</ev:body></ev:Event>"
    )


@dataclass
class RunResult:
    wire: list[tuple[str, bytes]] = field(default_factory=list)
    #: per consumer address: the (topic, payload-text) sequence it received
    received: dict[str, list] = field(default_factory=dict)
    #: obligations the QoS queue bound shed (composed cell only)
    shed: int = 0


#: the composed cell: reliable delivery, per-sink batching and a bounded
#: per-sink queue, with one consumer dark for a stretch so the bound sheds
COMPOSED = dict(
    delivery=DeliveryPolicy(max_attempts=4, base_backoff=0.5, jitter=0.0),
    batching=BatchingPolicy(max_batch=4),
    qos=AdaptiveQosPolicy(max_sink_queue=2),
)
DARK_PUBLISHES = range(4, 16)


def _run_scenario(
    oracle_broker, *, linear: bool, tree: bool = False, composed: bool = False
) -> RunResult:
    reset_message_counter()
    result = RunResult()
    network = SimulatedNetwork(VirtualClock())
    network.wire_observers.append(
        lambda obs: result.wire.append((obs.address, bytes(obs.request)))
    )
    broker = oracle_broker(
        network, "http://diff-broker", linear=linear, tree=tree,
        **(COMPOSED if composed else {}),
    )
    dark: set[str] = set()

    def blackout(target, payload):
        if target in dark:
            raise MessageLost(target)

    network.observers.append(blackout)
    rng = random.Random(SEED)

    wsn_consumers: list[NotificationConsumer] = []
    wse_sinks: list[EventSink] = []
    wsn_handles = []
    wse_handles = []

    for i in range(N_CONSUMERS):
        kind = rng.random()
        if kind < 0.55:
            version = rng.choice(list(WsnVersion))
            consumer = NotificationConsumer(
                network, f"http://wsn-consumer-{i}", version=version
            )
            expression, dialect = rng.choice(WSN_FILTERS)
            kwargs = {}
            if rng.random() < 0.25:
                kwargs["message_content"] = "//ev:seq"
                kwargs["namespaces"] = {"ev": "urn:diff"}
            handle = WsnSubscriber(network, version=version).subscribe(
                broker.epr(),
                consumer.epr(),
                topic=expression,
                topic_dialect=dialect,
                use_raw=rng.random() < 0.3,
                **kwargs,
            )
            wsn_consumers.append(consumer)
            wsn_handles.append((WsnSubscriber(network, version=version), handle))
        else:
            version = rng.choice(list(WseVersion))
            sink = EventSink(network, f"http://wse-sink-{i}", version=version)
            kwargs = {}
            if rng.random() < 0.5:
                kwargs["filter"] = "//ev:seq"
                kwargs["filter_namespaces"] = {"ev": "urn:diff"}
            handle = WseSubscriber(network, version=version).subscribe(
                broker.epr(), notify_to=sink.epr(), **kwargs
            )
            wse_sinks.append(sink)
            wse_handles.append((WseSubscriber(network, version=version), handle))

    for i in range(N_PUBLISHES):
        if composed:
            dark.clear()
            if i in DARK_PUBLISHES:
                dark.update(c.address for c in wsn_consumers[:2])
                dark.update(s.address for s in wse_sinks[:1])
        topic = rng.choice(TOPICS + [None])
        broker.publish(_event(i), topic=topic)
        # occasional management traffic interleaved with publications
        action = rng.random()
        if action < 0.12 and wsn_handles:
            subscriber, handle = wsn_handles.pop(rng.randrange(len(wsn_handles)))
            if subscriber.version.has_native_unsubscribe:
                subscriber.unsubscribe(handle)
            else:
                subscriber.destroy(handle)  # <= 1.2: WSRF Destroy
        elif action < 0.2 and wse_handles:
            subscriber, handle = wse_handles.pop(rng.randrange(len(wse_handles)))
            subscriber.unsubscribe(handle)

    broker.flush()
    broker.run_deliveries_until_idle()
    if composed:
        result.shed = broker.delivery_manager.stats.shed

    for consumer in wsn_consumers:
        result.received[consumer.address] = [
            (item.topic, item.payload.full_text()) for item in consumer.received
        ]
    for sink in wse_sinks:
        result.received[sink.address] = [
            (item.action, item.payload.full_text()) for item in sink.received
        ]
    return result


# --- every entry of the rendering table, one by one ---------------------------------

#: a reference parameter with an attribute and text that needs escaping, and a
#: reference property (WSA 2004/08 carries both; 2005/08 folds the property
#: into the parameters and echoes each with IsReferenceParameter)
REF_PARAMETER = '<t:Tag xmlns:t="urn:diff:ref" t:kind="a&amp;b">p &lt; q</t:Tag>'
REF_PROPERTY = '<t:Prop xmlns:t="urn:diff:ref"><t:inner>r</t:inner></t:Prop>'


def _with_references(epr):
    return epr.with_parameter(parse_xml(REF_PARAMETER)).with_property(parse_xml(REF_PROPERTY))


def _odd(i: int, *, collide: bool) -> "XElem":
    """A payload of a second namespace shape.  One that holds the slot
    sentinels can compile no template and must take the tree path."""
    text = " ".join(slot[1] for slot in (TO, MESSAGE_ID, TOPIC, SUB_ID)) if collide else "plain"
    return parse_xml(f'<c:Odd xmlns:c="urn:diff:odd"><c:n>{i}</c:n>{text}</c:Odd>')


def _run_entries(oracle_broker, tree_oracle, *, tree: bool, composed: bool = False) -> RunResult:
    """WSE push with and without the topic header in both WSE versions, WSN
    wrapped and raw, the WSE wrapped batch, converged raw push and wrapped
    Notify, EPRs with reference parameters and properties, an address and a
    topic that need escaping, a payload that contains the sentinels and —
    composed — attempts retried after a dark stretch."""
    reset_message_counter()
    TEMPLATE_STATS.reset()
    result = RunResult()
    network = SimulatedNetwork(VirtualClock())
    network.wire_observers.append(
        lambda obs: result.wire.append((obs.address, bytes(obs.request)))
    )
    options = dict(delivery=DeliveryPolicy(max_attempts=4, base_backoff=0.5, jitter=0.0))
    broker = oracle_broker(
        network, "http://entry-broker", tree=tree, **(options if composed else {})
    )
    dark: set[str] = set()

    def blackout(target, payload):
        if target in dark:
            raise MessageLost(target)

    network.observers.append(blackout)

    sinks = []
    for name, version, mode, decorate in [
        ("push-08", WseVersion.V2004_08, DeliveryMode.PUSH, None),
        ("push-01", WseVersion.V2004_01, DeliveryMode.PUSH, None),
        ("wrapped", WseVersion.V2004_08, DeliveryMode.WRAPPED, None),
        ("refs", WseVersion.V2004_08, DeliveryMode.PUSH, _with_references),
        ("a&b?tenant=x&y", WseVersion.V2004_08, DeliveryMode.PUSH, None),
    ]:
        sink = EventSink(network, f"http://entry-sink/{name}", version=version)
        epr = sink.epr() if decorate is None else decorate(sink.epr())
        WseSubscriber(network, version=version).subscribe(broker.epr(), notify_to=epr, mode=mode)
        sinks.append(sink)
    consumers = []
    for name, version, kwargs, decorate in [
        ("13", WsnVersion.V1_3, dict(topic="entry"), None),
        ("10", WsnVersion.V1_0, dict(topic="entry"), None),
        ("raw", WsnVersion.V1_3, dict(use_raw=True), None),
        ("amp", WsnVersion.V1_3, dict(topic="a&b"), None),
        ("refs-13", WsnVersion.V1_3, dict(topic="entry"), _with_references),
        ("refs-12", WsnVersion.V1_2, dict(topic="entry"), _with_references),
    ]:
        consumer = NotificationConsumer(network, f"http://entry-consumer/{name}", version=version)
        epr = consumer.epr() if decorate is None else decorate(consumer.epr())
        WsnSubscriber(network, version=version).subscribe(broker.epr(), epr, **kwargs)
        consumers.append(consumer)

    for i, topic in enumerate(["entry", None, "a&b", "entry", None, "entry", "a&b", "entry"]):
        if composed:
            dark.clear()
            if i in (2, 3):
                dark.update({sinks[0].address, sinks[3].address, consumers[0].address})
        # the fourth publish opens a new namespace shape with a payload no
        # template can be compiled from; the sixth compiles that shape
        payload = _odd(i, collide=i == 3) if i in (3, 5) else _event(i)
        broker.publish(payload, topic=topic)
    dark.clear()
    broker.flush()
    broker.run_deliveries_until_idle()

    # the converged prototype is not behind the broker: drive it bare
    source = ConvergedSource(network, "http://entry-converged")
    if tree:
        tree_oracle(source)
    converged = []
    for name, kwargs in [
        ("raw", dict(use_raw=True)),
        ("raw-topic", dict(use_raw=True, topic="entry")),
        ("wrapped", dict(mode=MODE_WRAP)),
        ("notify", dict()),
    ]:
        consumer = ConvergedConsumer(network, f"http://entry-wsen/{name}")
        ConvergedSubscriber(network).subscribe(source.epr(), consumer=consumer.epr(), **kwargs)
        converged.append(consumer)
    for i, topic in enumerate(["entry", None, "a&b", "entry", "entry"]):
        source.publish(_odd(i, collide=i == 1) if i in (1, 4) else _event(i), topic=topic)
    source.flush()

    for sink in sinks:
        result.received[sink.address] = [
            (item.action, item.payload.full_text()) for item in sink.received
        ]
    for consumer in consumers:
        result.received[consumer.address] = [
            (item.topic, item.payload.full_text()) for item in consumer.received
        ]
    for consumer in converged:
        result.received[consumer.address] = [
            (item.topic, item.payload.full_text(), item.wrapped) for item in consumer.received
        ]
    return result


def _assert_same_wire(want: RunResult, got: RunResult) -> None:
    assert len(got.wire) == len(want.wire)
    for i, (expected, actual) in enumerate(zip(want.wire, got.wire)):
        assert actual[0] == expected[0], f"frame {i}: address diverged"
        assert actual[1] == expected[1], f"frame {i}: request bytes diverged"


class TestFanoutDifferential:
    def test_indexed_path_is_byte_identical_to_linear_path(self, oracle_broker):
        linear = _run_scenario(oracle_broker, linear=True)
        indexed = _run_scenario(oracle_broker, linear=False)

        # identical delivery sets per consumer
        assert indexed.received == linear.received
        # some consumers actually received something (scenario isn't vacuous)
        assert sum(len(v) for v in linear.received.values()) > 0

        # byte-identical wire capture, frame for frame
        _assert_same_wire(linear, indexed)

    def test_templated_path_is_byte_identical_to_tree_path(self, oracle_broker):
        # the envelope byte-template cache must be invisible on the wire:
        # rendering cached segments == serializing the equivalent tree
        tree = _run_scenario(oracle_broker, linear=False, tree=True)
        templated = _run_scenario(oracle_broker, linear=False)
        assert templated.received == tree.received
        assert templated.wire == tree.wire

    def test_every_entry_is_byte_identical_to_the_tree_path(self, oracle_broker, tree_oracle):
        tree = _run_entries(oracle_broker, tree_oracle, tree=True)
        assert TEMPLATE_STATS.hits == TEMPLATE_STATS.misses == 0, "the oracle renders trees only"
        templated = _run_entries(oracle_broker, tree_oracle, tree=False)
        # not vacuous: every consumer was reached, templates did the rendering,
        # and the only trees were the 9 + 2 pushes of the payloads that contain
        # the sentinels and the two wrapped batches of mixed namespace shapes
        assert all(templated.received.values())
        assert TEMPLATE_STATS.hits > TEMPLATE_STATS.misses > 0
        assert TEMPLATE_STATS.fallbacks == 11 + 2
        assert templated.received == tree.received
        _assert_same_wire(tree, templated)

    def test_retried_attempts_mint_message_ids_as_the_tree_path_does(
        self, oracle_broker, tree_oracle
    ):
        tree = _run_entries(oracle_broker, tree_oracle, tree=True, composed=True)
        templated = _run_entries(oracle_broker, tree_oracle, tree=False, composed=True)
        assert len(templated.wire) > len(_run_entries(oracle_broker, tree_oracle, tree=False).wire)
        assert templated.received == tree.received
        _assert_same_wire(tree, templated)

    def test_composed_stack_is_byte_identical_to_both_oracles(self, oracle_broker):
        # the cell the in-product forks could never run: the linear path
        # ignored queue bounds, the batching policy and the batcher
        product = _run_scenario(oracle_broker, linear=False, composed=True)
        assert product.shed > 0, "the queue bound must be load-bearing"
        assert sum(len(v) for v in product.received.values()) > 0
        for oracle in (dict(linear=True), dict(linear=False, tree=True), dict(linear=True, tree=True)):
            reference = _run_scenario(oracle_broker, composed=True, **oracle)
            assert reference.received == product.received
            assert reference.shed == product.shed
            _assert_same_wire(reference, product)

    def test_linear_run_is_self_reproducible(self, oracle_broker):
        # guards the harness itself: the scenario must be deterministic
        a = _run_scenario(oracle_broker, linear=True)
        b = _run_scenario(oracle_broker, linear=True)
        assert a.wire == b.wire
        assert a.received == b.received
