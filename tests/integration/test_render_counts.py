"""What a publish costs the renderer, counted — not timed.

Templates are keyed by shape, so the number compiled, the number held and the
tree serialisations of a steady-state publish must not depend on how many
consumers there are, nor on how many topics rotate through them.  With the
per-(sink, topic) keys these counts replace, 600 sinks thrashed the 512-entry
cache (every delivery a compile) and every new topic was a miss for every
sink, which is what ``match_sparse`` showed as a hit ratio of 0.
"""

import gc

import pytest

from repro import render
from repro.delivery.policy import BatchingPolicy
from repro.messenger import WsMessenger
from repro.obs import Instrumentation
from repro.soap.envelope import SoapVersion
from repro.store import BrokerStore
from repro.subscriptions import Grant
from repro.transport import SimulatedNetwork, VirtualClock
from repro.transport.endpoint import SoapEndpoint
from repro.util.xstime import format_datetime
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders
from repro.wsa.versions import WsaVersion
from repro.wse import EventSink, WseSubscriber
from repro.wse.versions import WseVersion
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
from repro.wsn.messages import NotificationMessage
from repro.wsn.versions import WsnVersion
from repro.xmlkit import parse_xml
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import Namespaces, QName
from repro.xmlkit.template import TEMPLATE_STATS
from repro.xmlkit.writer import WRITER_STATS

DIALECTS = [WsnVersion.V1_3, WsnVersion.V1_0, WseVersion.V2004_08, WseVersion.V2004_01]


def event(n: int):
    return parse_xml(f'<e:V xmlns:e="urn:counts"><e:n>{n}</e:n></e:V>')


def population(n: int, *, topic_expression: str, topic_dialect: str):
    """``n`` plain-address consumers over the four dialects, round robin."""
    network = SimulatedNetwork(VirtualClock())
    broker = WsMessenger(network, "http://counts-broker")
    consumers = []
    for i in range(n):
        version = DIALECTS[i % len(DIALECTS)]
        if isinstance(version, WsnVersion):
            consumer = NotificationConsumer(network, f"http://counts-sink/{i}", version=version)
            WsnSubscriber(network, version=version).subscribe(
                broker.epr(), consumer.epr(), topic=topic_expression, topic_dialect=topic_dialect
            )
        else:
            consumer = EventSink(network, f"http://counts-sink/{i}", version=version)
            WseSubscriber(network, version=version).subscribe(broker.epr(), notify_to=consumer.epr())
        consumers.append(consumer)
    return broker, consumers


def templates_held(broker) -> int:
    services = (*broker.wse_sources.values(), *broker.wsn_producers.values())
    return sum(len(service.renderer.templates) for service in services)


@pytest.mark.parametrize("n", [50, 600])  # 600 is past the cache's 512 entries
def test_a_publish_renders_through_one_template_per_dialect(n):
    broker, consumers = population(
        n, topic_expression="fan", topic_dialect=Namespaces.DIALECT_TOPIC_SIMPLE
    )
    TEMPLATE_STATS.reset()
    broker.publish(event(0), topic="fan")  # warm-up: compiles the shapes
    assert TEMPLATE_STATS.snapshot() == {"hits": n - 4, "misses": 4, "fallbacks": 0}
    assert templates_held(broker) == len(DIALECTS)

    trees = WRITER_STATS.tree_serializations
    TEMPLATE_STATS.reset()
    broker.publish(event(1), topic="fan")
    assert WRITER_STATS.tree_serializations - trees <= 2
    assert TEMPLATE_STATS.snapshot() == {"hits": n, "misses": 0, "fallbacks": 0}
    assert templates_held(broker) == len(DIALECTS)
    assert all(len(consumer.received) == 2 for consumer in consumers)


def test_rotating_topics_hit_the_templates_they_share():
    n, topics = 48, 100
    broker, consumers = population(
        n, topic_expression="grid//.", topic_dialect=Namespaces.DIALECT_TOPIC_FULL
    )
    # WSN 1.0 subscriptions understand the Full dialect too; every sink matches
    broker.publish(event(0), topic="grid/warm-up")
    TEMPLATE_STATS.reset()
    for i in range(topics):
        broker.publish(event(i), topic=f"grid/s{i:03d}/load")
    stats = TEMPLATE_STATS.snapshot()
    assert stats["fallbacks"] == 0
    assert stats["hits"] + stats["misses"] == n * topics
    assert stats["hits"] / (n * topics) >= 0.99
    assert templates_held(broker) == len(DIALECTS)
    assert all(len(consumer.received) == topics + 1 for consumer in consumers)


HOT = "fan/hot"
PUBLISHES = 3


def hot_topic_producer(subscribers: int, selectivity: float, *, batching=None):
    """``subscribers`` subscriptions to one sink; the first ``selectivity`` share
    select ``HOT``, every other one a topic of its own."""
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    SoapEndpoint(network, "http://counts-sink").on_any(lambda envelope, headers: None)
    producer = NotificationProducer(network, "http://counts-producer", batching=batching)
    matching = max(1, int(subscribers * selectivity))
    sink = EndpointReference("http://counts-sink")
    for i in range(subscribers):
        topic = HOT if i < matching else f"fan/cold-{i}"
        parts = {"topic": topic, "topic_dialect": Namespaces.DIALECT_TOPIC_CONCRETE}
        producer.grant(Grant(sink, parts, topic_expression=topic))
    return network, instrumentation, producer, matching


@pytest.mark.parametrize("subscribers, selectivity", [(10, 1.0), (1000, 0.01)])
@pytest.mark.parametrize("batched", [False, True], ids=["templated", "batched"])
def test_a_hot_topic_walks_one_tree_and_evaluates_only_what_matches(
    subscribers, selectivity, batched
):
    network, instrumentation, producer, matching = hot_topic_producer(
        subscribers,
        selectivity,
        batching=BatchingPolicy(window=0.0, max_batch=100) if batched else None,
    )
    network.stats.reset()
    WRITER_STATS.reset()
    matched = sum(producer.publish(event(i), topic=HOT) for i in range(PUBLISHES))
    assert matched == matching * PUBLISHES

    def total(name):
        return sum(instrumentation.metrics.counter_values(name).values())

    # the one template compile is the only tree walk; every other send is a join
    assert WRITER_STATS.tree_serializations == 1
    # the index hands the loop only the subscriptions that match, and its
    # admission of a one-topic filter is final: no filter runs at all
    assert total("fanout.index_hits") == matched
    assert total("fanout.filter_evals") == 0
    if batched:  # one sink: each publish's sends coalesce into one request
        assert network.stats.requests == PUBLISHES
        assert total("delivery.batched_total") == matched
    else:
        assert network.stats.requests == matched
        assert (total("fanout.template_misses"), total("fanout.template_hits")) == (1, matched - 1)


@pytest.mark.parametrize("batched", [False, True], ids=["templated", "batched"])
def test_a_warm_wsn_publish_builds_no_message_and_no_reference(batched, monkeypatch):
    """A match hands the renderer the publish's one ``DeliveryItem``: the
    ``NotificationMessage`` and its two references are built where a tree
    is — compiling the template — and never per delivery."""
    network, _, producer, matching = hot_topic_producer(
        20, 1.0, batching=BatchingPolicy(window=0.0, max_batch=100) if batched else None
    )
    producer.publish(event(0), topic=HOT)  # the warm-up compiles the one shape
    built = []

    def counted(init):
        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        return counting_init

    for cls in (NotificationMessage, EndpointReference):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    network.stats.reset()
    assert producer.publish(event(1), topic=HOT) == matching
    assert network.stats.requests == (1 if batched else matching)
    assert built == []


# --- control envelopes: counted too, because the counts repeat exactly -----------------


def lifecycle(network, broker, version, consumer) -> None:
    """Table 2 over the wire in one dialect, as ``control_churn`` walks it."""
    lease = format_datetime(network.clock.now() + 7200.0)
    if isinstance(version, WseVersion):
        client = WseSubscriber(network, version=version)
        handle = client.subscribe(broker.epr(), notify_to=consumer.epr())
        client.renew(handle, lease)
        if version is WseVersion.V2004_08:
            client.get_status(handle)
        client.unsubscribe(handle)
        return
    client = WsnSubscriber(network, version=version)
    handle = client.subscribe(broker.epr(), consumer.epr(), topic="fan")
    native = version is WsnVersion.V1_3
    (client.renew if native else client.set_termination_time)(handle, lease)
    assert client.get_status(handle) == "Active"  # WSRF GetResourceProperty
    client.pause(handle)
    client.resume(handle)
    (client.unsubscribe if native else client.destroy)(handle)


def test_a_warm_control_lifecycle_serialises_and_compiles_nothing(monkeypatch):
    monkeypatch.setattr(render, "FRAMES", render.TemplateCache())
    network = SimulatedNetwork(VirtualClock())
    broker = WsMessenger(network, "http://counts-broker", store=BrokerStore())
    consumers = {}
    for version in (*DIALECTS, WsnVersion.V1_2):  # the warm-up: every head compiles
        sink = NotificationConsumer if isinstance(version, WsnVersion) else EventSink
        consumers[version] = sink(network, f"http://counts-sink/{version.name}", version=version)
        lifecycle(network, broker, version, consumers[version])
    held = len(render.FRAMES)

    trees, requests = WRITER_STATS.tree_serializations, network.stats.requests
    TEMPLATE_STATS.reset()
    lifecycle(network, broker, WsnVersion.V1_3, consumers[WsnVersion.V1_3])
    assert network.stats.requests - requests == 6
    # six requests, six replies, every one framed; the store logs the grant
    # the Subscribe made, not its envelope (``BrokerStore.record_subscribe``)
    assert WRITER_STATS.tree_serializations - trees == 0
    assert TEMPLATE_STATS.snapshot() == {"hits": 12, "misses": 0, "fallbacks": 0}
    assert len(render.FRAMES) == held


@pytest.mark.parametrize("parameters, trees", [(0, 0), (1, 1)], ids=["address", "parameter"])
def test_a_warm_subscribe_logs_its_grant_serialising_only_a_consumer_with_parameters(
    parameters, trees, monkeypatch
):
    """The store logs what a Subscribe granted, not the request: a consumer
    that is an address costs no tree, one whose EPR carries a reference
    parameter exactly one — that EPR, written whole."""
    monkeypatch.setattr(render, "FRAMES", render.TemplateCache())
    network = SimulatedNetwork(VirtualClock())
    broker = WsMessenger(network, "http://counts-broker", store=BrokerStore())
    consumer = NotificationConsumer(network, "http://counts-sink/grant")
    epr = consumer.epr()
    for n in range(parameters):
        epr.with_parameter(text_element(QName("urn:counts", f"p{n}"), "v"))
    client = WsnSubscriber(network)
    client.subscribe(broker.epr(), epr, topic="fan")  # the warm-up compiles the heads
    before = WRITER_STATS.tree_serializations
    client.subscribe(broker.epr(), epr, topic="fan")
    assert WRITER_STATS.tree_serializations - before == trees
    record = broker.store.log.records()[-1]
    assert record.consumer == epr.address
    assert (record.consumer_epr is not None) == bool(parameters)


def test_distinct_reference_parameter_shapes_stay_under_the_lru_bound(monkeypatch):
    monkeypatch.setattr(render, "FRAMES", render.TemplateCache())
    body = [XElem(QName("urn:counts", "Op"))]
    for i in range(10_000):  # a parameter's *name* is shape; its text is a slot
        target = EndpointReference("http://counts-manager").with_parameter(
            text_element(QName("urn:counts", f"p{i}"), "v")
        )
        headers = MessageHeaders.request(target, "urn:counts:Op")
        render.control_envelope(SoapVersion.V11, WsaVersion.V2005_08, headers, body)
    assert len(render.FRAMES) == render.FRAMES.capacity == 512
    assert not render.FRAMES._holders and not render.FRAMES._held  # nothing but the LRU holds a head


def test_a_control_lifecycle_leaves_the_collector_nothing(monkeypatch):
    # the benchmark times with the collector off: a reference cycle per
    # control envelope (a recursive closure in the namespace walk did that)
    # is peak RSS and cache pressure on every workload, not a leak a test
    # with the collector on would ever see
    monkeypatch.setattr(render, "FRAMES", render.TemplateCache())
    network = SimulatedNetwork(VirtualClock())
    broker = WsMessenger(network, "http://counts-broker")
    consumer = NotificationConsumer(network, "http://counts-sink/gc")
    lifecycle(network, broker, WsnVersion.V1_3, consumer)
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            lifecycle(network, broker, WsnVersion.V1_3, consumer)
        assert gc.collect() == 0
    finally:
        gc.enable()
