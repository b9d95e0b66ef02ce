"""``control_churn``: the paper's Table 2 as traffic.

Over a standing population of 500 (100 per dialect), subscription
lifecycles run over the wire round-robin in all five dialects:

=========  ===========================================================
dialect    lifecycle (wire calls)
=========  ===========================================================
WSE 01/04  Subscribe, Renew, Unsubscribe                          (3)
WSE 08/04  Subscribe, Renew, GetStatus, Unsubscribe               (4)
WSN 1.0    Subscribe, SetTerminationTime, GetResourceProperty,
WSN 1.2      PauseSubscription, ResumeSubscription, Destroy       (6)
WSN 1.3    Subscribe, Renew, GetResourceProperty, Pause, Resume,
             Unsubscribe                                          (6)
=========  ===========================================================

One timed control sample is one lifecycle in each dialect (25 calls), so
every sample carries the same mix.  One publish per 50 lifecycles keeps
the topic index honest: it must reach exactly the standing subscribers of
its topic although the index and the template cache were just written to.
Ingest-side parse, ``detect_spec``, WSRF lifetime heaps and store
subscription records live here; it is the write side (add/discard/evict)
of structures the other workloads only read.
"""

from __future__ import annotations

from repro.util.xstime import format_datetime

from .base import DIALECTS, LEASE_SECONDS, OracleError, Recorder, Scenario, perf

STANDING_PER_DIALECT = 100
TOPICS = 5
ROUNDS_PER_BLOCK = 20  # x 5 dialects = 100 lifecycles
PUBLISH_EVERY = 10  # rounds, i.e. one publish per 50 lifecycles
CALLS_PER_ROUND = 3 + 4 + 6 + 6 + 6


class ControlChurn(Scenario):
    name = "control_churn"
    nominal_block_seconds = 0.25
    extra_setups = 3
    recoveries_per_round = 2
    timed_units = ("publish", "lifecycle_round")

    def populate(self) -> None:
        dialects = [d for d in DIALECTS for _ in range(STANDING_PER_DIALECT)]
        self.rng.shuffle(dialects)
        #: topic number -> standing consumers on it
        self.by_topic: dict[int, list[int]] = {t: [] for t in range(TOPICS)}
        for dialect in dialects:
            index, consumer = self.add_consumer(dialect)
            topic = self.rng.randrange(TOPICS)
            self.by_topic[topic].append(index)
            self.subscribe(consumer, dialect, **self._filter(dialect, topic))
        self.standing = len(self.consumers)
        #: one transient consumer per dialect: lifecycles end before a publish
        self.transient = {}
        for dialect in DIALECTS:
            index, consumer = self.add_consumer(dialect)
            self.transient[dialect] = consumer
        self.lifecycles = 0

    @staticmethod
    def _filter(dialect: str, topic: int) -> dict:
        """WSN subscribes to the topic; WSE, having no topics, to its site."""
        if dialect.startswith("wsn"):
            return {"topic": f"churn/t{topic}"}
        return {"xpath": f"/ev:Reading[ev:site='s{topic:02d}']"}

    def prepare(self) -> None:
        self.events = []
        self._observed: list[tuple[str, str, str, str]] = []
        self.block_obligations = 0
        for _ in range(ROUNDS_PER_BLOCK // PUBLISH_EVERY):
            topic = self.rng.randrange(TOPICS)
            payload, key = self.next_reading(self.rng.randrange(100), topic)
            self.events.append((payload, f"churn/t{topic}"))
            for index in self.by_topic[topic]:
                self.expected[index].append(key)
            self.block_obligations += len(self.by_topic[topic])
        self._topics = [
            self.rng.randrange(TOPICS) for _ in range(ROUNDS_PER_BLOCK * len(DIALECTS))
        ]
        self.block_publishes = len(self.events)
        self.block_control_calls = ROUNDS_PER_BLOCK * CALLS_PER_ROUND

    def run(self, recorder: Recorder) -> None:
        topics = iter(self._topics)
        events = iter(self.events)
        for round_index in range(ROUNDS_PER_BLOCK):
            started = perf()
            self.lifecycle_round(topics)
            recorder.record(recorder.control, perf() - started, CALLS_PER_ROUND)
            if (round_index + 1) % PUBLISH_EVERY == 0:
                self.timed_publishes(recorder, [next(events)])

    def lifecycle_round(self, topics) -> None:
        """One lifecycle in each of the five dialects: one control sample."""
        for dialect in DIALECTS:
            self._lifecycle(dialect, next(topics))

    def _lifecycle(self, dialect: str, topic: int) -> None:
        self.lifecycles += 1
        client = self.subscribers.client(dialect)
        handle = self.subscribers.subscribe(
            self.broker.epr(), self.transient[dialect], dialect,
            **self._filter(dialect, topic),
        )
        lease = format_datetime(
            self.network.clock.now() + LEASE_SECONDS + self.lifecycles
        )
        observed = self._observed
        if dialect.startswith("wse"):
            observed.append((dialect, "renew", client.renew(handle, lease), lease))
            if dialect == "wse0408":
                observed.append((dialect, "status", client.get_status(handle), lease))
            client.unsubscribe(handle)
            return
        if dialect == "wsn13":
            observed.append((dialect, "renew", client.renew(handle, lease), lease))
        else:
            observed.append(
                (dialect, "renew", client.set_termination_time(handle, lease), lease)
            )
        observed.append((dialect, "status", client.get_status(handle), "Active"))
        client.pause(handle)
        client.resume(handle)
        if dialect == "wsn13":
            client.unsubscribe(handle)
        else:
            client.destroy(handle)

    def settle(self, totals) -> None:
        for dialect, call, got, want in self._observed:
            if got != want:
                raise OracleError(
                    f"{self.name}: {dialect} {call} answered {got!r}, expected {want!r}"
                )
        if self.broker.subscription_count() != self.standing:
            raise OracleError(
                f"{self.name}: {self.broker.subscription_count()} subscriptions live, "
                f"expected the standing {self.standing}"
            )
        super().settle(totals)
