"""The delivery differential: one stream, one pair of receivers, one comparison.

The paper's transparency claim (sections VI-VII) is that a consumer cannot
tell how a notification reached it: not which specification the publisher
spoke (``mediation``), not which shards routed it (``mesh``), not whether
the broker crashed and was rebuilt from its log on the way (``durability``).
Each of those engines is one cell of the same check — publish a generated
stream, let it arrive at a WS-Eventing sink and a WS-Notification consumer,
compare what the pair recorded with an expectation — and this module states
that check once:

- :func:`gen_stream` / :func:`valid_stream` — the case vocabulary: a list of
  ``{"topic", "payload"}`` items (a ``None`` topic is a topicless publish,
  legal in WSE and WSN 1.3), with ``"via"``, the shard a publish enters a
  mesh at, when the cell has shards;
- :func:`front_door` — the receiver pair subscribed at a broker's front
  door: the WSE sink takes everything, the WSN consumer watches one topic;
- :func:`received` — what the pair recorded, as ``(payload, topic)`` lists;
- :func:`same_deliveries` — the comparison: the same count on each path,
  payloads strictly identical (:func:`~repro.conformance.gen.strict_diff`)
  and topics preserved, in order.
"""

from __future__ import annotations

from typing import Optional

from repro.conformance.gen import gen_tree_spec, pick, strict_diff, valid_tree_spec
from repro.transport.network import PUBLIC_ZONE
from repro.util.rng import SeededRng
from repro.wse import EventSink, WseSubscriber, WseVersion
from repro.wsn import NotificationConsumer, WsnSubscriber, WsnVersion
from repro.xmlkit.element import XElem

TOPICS = ("alpha", "beta", "gamma", "delta")

#: the one version of each family every cell's brokers speak
VERSIONS = {"wse_versions": [WseVersion.V2004_08], "wsn_versions": [WsnVersion.V1_3]}

Deliveries = list[tuple[XElem, Optional[str]]]


def gen_stream(
    rng: SeededRng, *, most: int, topics=TOPICS, topicless: bool = False, shards: int = 0
) -> list[dict]:
    """One to ``most`` publishes.  Per item the topic is drawn before the
    payload and ``via`` (only when there are ``shards``) last; with
    ``topicless``, one publish in six has no topic."""
    stream = []
    for _ in range(1 + rng.randrange(most)):
        bare = topicless and rng.randrange(6) == 0
        item = {"topic": None if bare else pick(rng, topics), "payload": gen_tree_spec(rng, max_depth=2)}
        if shards:
            item["via"] = rng.randrange(shards)
        stream.append(item)
    return stream


def valid_topic(topic: object) -> bool:
    return isinstance(topic, str) and topic.isalnum()


def valid_index(value: object, bound: int) -> bool:
    return isinstance(value, int) and 0 <= value < bound


def valid_stream(case: object, *, topicless: bool = False, shards: int = 0) -> bool:
    """Whether ``case`` is a dict whose ``stream`` :func:`gen_stream` could
    have drawn with these options — the gate that keeps the shrinker honest."""
    stream = case.get("stream") if isinstance(case, dict) else None
    return isinstance(stream, list) and bool(stream) and all(
        isinstance(item, dict)
        and (valid_topic(item.get("topic")) or topicless and item.get("topic") is None)
        and valid_tree_spec(item.get("payload"))
        and (not shards or valid_index(item.get("via"), shards))
        for item in stream
    )


def front_door(network, broker, prefix: str, *, topic: Optional[str] = None, zone: str = PUBLIC_ZONE):
    """Subscribe the receiver pair at ``broker``: a WSE sink at
    ``{prefix}-sink`` for everything and a WSN consumer at
    ``{prefix}-consumer`` for ``topic`` (every topic when None).  ``zone``
    puts the sink and its subscriber behind that zone's firewall."""
    sink = EventSink(network, f"{prefix}-sink", zone=zone)
    WseSubscriber(network, zone=zone).subscribe(broker.epr(), notify_to=sink.epr())
    consumer = NotificationConsumer(network, f"{prefix}-consumer")
    WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic=topic)
    return sink, consumer


def received(sink: EventSink, consumer: NotificationConsumer) -> tuple[Deliveries, Deliveries]:
    """What the pair recorded, in arrival order.  WSE has no topic slot in
    the body (the topic rides as a SOAP header), so every WSE topic is None."""
    return tuple([(note.payload, note.topic) for note in end.received] for end in (sink, consumer))


def same_deliveries(
    want: tuple[Deliveries, Deliveries], got: tuple[Deliveries, Deliveries], where: str
) -> Optional[str]:
    """How ``got`` first differs from ``want`` — each a WSE and a WSN list
    as :func:`received` returns them — or None; ``where`` names the cell."""
    for path, expected, actual in zip(("WSE", "WSN"), want, got):
        if len(actual) != len(expected):
            return f"{path} path {where}: {len(actual)} deliveries, expected {len(expected)}"
        for index, ((payload, topic), (seen, seen_topic)) in enumerate(zip(expected, actual)):
            diff = strict_diff(payload, seen)
            if diff is not None:
                return f"{path} delivery {index} {where}: payload differs at {diff}"
            if seen_topic != topic:
                return f"{path} delivery {index} {where}: topic {topic!r} arrived as {seen_topic!r}"
    return None
