"""``fanout_push``: one topic, 200 healthy consumers, every publish matches all.

Per-delivery work dominates (template render, SOAP/WSA, HTTP framing, the
simulated network, consumer-side parse, the delivery manager, one store
outcome per delivery); matching is ~0.  Home of the ``xmlkit.*``, ``soap``,
``wsa``, ``transport.*`` and ``store`` layers, and of the feature ladder.
"""

from __future__ import annotations

from .base import Recorder, Scenario

TOPIC = "fan"
#: 80 WSN 1.3 Notify, 20 WSN 1.0, 80 WSE 08/2004 push, 20 WSE 01/2004
POPULATION = (("wsn13", 80), ("wsn10", 20), ("wse0408", 80), ("wse0401", 20))


class FanoutPush(Scenario):
    name = "fanout_push"

    def populate(self) -> None:
        dialects = [d for d, count in POPULATION for _ in range(count)]
        self.rng.shuffle(dialects)  # the seed decides who subscribes when
        for dialect in dialects:
            _, consumer = self.add_consumer(dialect)
            # WSE subscriptions carry no filter: they match every publish
            topic = TOPIC if dialect.startswith("wsn") else None
            self.subscribe(consumer, dialect, topic=topic)

    def prepare(self) -> None:
        self.events = []
        for _ in range(self.publishes_per_block):
            payload, key = self.next_reading(
                self.rng.randrange(100), self.rng.randrange(50)
            )
            self.events.append((payload, TOPIC))
            for expected in self.expected:
                expected.append(key)
        self.block_publishes = len(self.events)
        self.block_obligations = len(self.events) * len(self.consumers)

    def run(self, recorder: Recorder) -> None:
        self.timed_publishes(recorder, self.events)
