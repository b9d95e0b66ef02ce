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

from repro.delivery import BatchingPolicy, DeliveryPolicy
from repro.qos.adaptive import AdaptiveQosPolicy
from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
from repro.wsa.headers import reset_message_counter
from repro.wse import EventSink, WseSubscriber
from repro.wse.versions import WseVersion
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit import parse_xml
from repro.xmlkit.names import Namespaces

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
