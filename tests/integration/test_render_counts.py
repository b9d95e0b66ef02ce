"""What a publish costs the renderer, counted — not timed.

Templates are keyed by shape, so the number compiled, the number held and the
tree serialisations of a steady-state publish must not depend on how many
consumers there are, nor on how many topics rotate through them.  With the
per-(sink, topic) keys these counts replace, 600 sinks thrashed the 512-entry
cache (every delivery a compile) and every new topic was a miss for every
sink, which is what ``match_sparse`` showed as a hit ratio of 0.
"""

import pytest

from repro.messenger import WsMessenger
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import EventSink, WseSubscriber
from repro.wse.versions import WseVersion
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit import parse_xml
from repro.xmlkit.names import Namespaces
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
