"""``degraded_pull``: the delivery and QoS layers used the hard way.

120 sinks on ``SimulatedNetwork(loss_rate=0.1)``; the seed decides which
sink is which:

* 58 healthy (all five dialects) - lost attempts are retried with backoff;
* 30 behind a ``blocks_inbound`` zone - pushes park in broker-side message
  boxes, drained at the end of every block by WSN ``GetMessages`` (15) or
  WSE ``Pull`` (15) from inside the zone;
* 10 unregistered - retry, circuit breaker, dead-letter queue;
* 10 flapping - unreachable for half of every 8 virtual seconds;
* 12 holding 8 subscriptions each - the batcher coalesces them into one
  multi-message ``Notify`` per publish.

A block is 24 publishes paced a quarter of a virtual second apart (publish,
advance the clock, run what is due), then a full drain and the pulls.  The
pacing is what lets queues build behind a stuck head, so that
``max_sink_queue=16`` sheds; a closed loop that drained after every publish
would never hold more than one task per sink.

The model cannot predict which attempts the seeded network drops, so the
oracle here is: every consumer holds an in-order, duplicate-free
subsequence of what it was owed; dead sinks hold nothing; what is missing
consumer-side equals what the broker booked as dead-lettered or shed; and
the conservation audit balances (``opened == delivered + dead_lettered +
failed + shed + pending``).
"""

from __future__ import annotations

from repro.delivery.messagebox import drain_message_box_wse
from repro.transport import MessageLost
from repro.wsn import PullPointClient

from .base import OracleError, Recorder, Scenario, payload_key, perf, retry_lost

TOPIC = "deg"
ZONE = "corp-lan"
PACE = 0.25
FLAP_PERIOD = 8.0
SUBSCRIPTIONS_PER_MULTI = 8
KINDS = (
    [("healthy", d) for d in ("wsn13", "wse0408", "wsn12", "wsn10", "wse0401") for _ in range(12)][:58]
    + [("firewalled", "wsn13")] * 15 + [("firewalled", "wse0408")] * 15
    + [("dead", "wsn13")] * 5 + [("dead", "wse0408")] * 5
    + [("flapping", "wsn13")] * 5 + [("flapping", "wse0408")] * 5
    + [("multi", "wsn13")] * 12
)


class DegradedPull(Scenario):
    name = "degraded_pull"
    nominal_block_seconds = 0.8
    publishes_per_block = 24
    loss_rate = 0.1
    exact = False
    timed_units = ("publish", "drain_and_pull")

    def populate(self) -> None:
        assert len(KINDS) == 120
        self.network.add_zone(ZONE, blocks_inbound=True)
        kinds = list(KINDS)
        self.rng.shuffle(kinds)
        self.kinds: list[str] = []
        self.copies: list[int] = []
        self.firewalled: list[tuple[int, str]] = []
        flapping: set[str] = set()
        for kind, dialect in kinds:
            zone = ZONE if kind == "firewalled" else None
            index, consumer = self.add_consumer(dialect, zone=zone)
            self.kinds.append(kind)
            copies = SUBSCRIPTIONS_PER_MULTI if kind == "multi" else 1
            self.copies.append(copies)
            topic = TOPIC if dialect.startswith("wsn") else None
            for _ in range(copies):
                self.subscribe(consumer, dialect, topic=topic, zone=zone)
            if kind == "firewalled":
                self.firewalled.append((index, dialect))
            elif kind == "dead":
                consumer.close()  # subscribed, then gone from the network
            elif kind == "flapping":
                flapping.add(consumer.address)
        clock = self.network.clock

        def flap(address, request) -> None:
            if address in flapping and clock.now() % FLAP_PERIOD < FLAP_PERIOD / 2:
                raise MessageLost(address)

        self.network.observers.append(flap)
        self.obligations_per_publish = sum(self.copies)
        self._pull_wsn = PullPointClient(self.network, zone=ZONE)

    def prepare(self) -> None:
        self.events = []
        for _ in range(self.publishes_per_block):
            payload, key = self.next_reading(
                self.rng.randrange(100), self.rng.randrange(50)
            )
            self.events.append((payload, TOPIC))
            for expected, copies in zip(self.expected, self.copies):
                expected.extend([key] * copies)
        self._pulled: dict[int, list[str]] = {}
        self.block_publishes = len(self.events)
        self.block_obligations = len(self.events) * self.obligations_per_publish
        self.block_control_calls = len(self.firewalled)

    def publish(self, payload, topic) -> None:
        self.broker.publish(payload, topic=topic)
        self.network.clock.advance(PACE)
        self.broker.pump_deliveries()

    def run(self, recorder: Recorder) -> None:
        self.timed_publishes(recorder, self.events)
        self.peak_pending = self.broker.delivery_manager.pending()
        started = perf()
        self.drain_and_pull()
        recorder.record(recorder.drain, perf() - started)

    def drain_and_pull(self) -> None:
        """End of block: retries run to completion, firewalled sinks pull."""
        self.broker.run_deliveries_until_idle()
        boxes = self.broker.message_boxes
        for index, dialect in self.firewalled:
            box = boxes.get(self.consumers[index].address)
            if box is None:
                continue
            target = box.epr()
            if dialect == "wsn13":
                pulled = retry_lost(lambda: self._pull_wsn.get_messages(target))
                self._pulled[index] = [payload_key(m.payload) for m in pulled]
            else:
                pulled = retry_lost(
                    lambda: drain_message_box_wse(self.network, target, zone=ZONE)
                )
                self._pulled[index] = [payload_key(p) for p in pulled]

    # --- the oracle -------------------------------------------------------------------

    def received_keys(self, index: int) -> list[str]:
        return super().received_keys(index) + self._pulled.get(index, [])

    def check_consumer(self, index: int, actual: list[str], expected: list[str]) -> int:
        if self.kinds[index] == "dead":
            return len(actual)
        # an in-order subsequence of what was owed: no duplicate, no stranger
        position = 0
        for key in actual:
            while position < len(expected) and expected[position] != key:
                position += 1
            if position == len(expected):
                return 1
            position += 1
        return 0

    def settle(self, totals) -> None:
        before = {k: totals.counters.get(f"audit.{k}", 0) for k in ("dead_lettered", "shed")}
        owed = self.block_obligations
        received_before = totals.received
        totals.peak("delivery.peak_pending", self.peak_pending)
        super().settle(totals)
        missing = owed - (totals.received - received_before)
        booked = sum(totals.counters[f"audit.{k}"] - before[k] for k in before)
        if missing != booked:
            raise OracleError(
                f"{self.name}: {missing} obligations missing consumer-side, "
                f"but the broker booked {booked} as dead-lettered or shed"
            )

    @staticmethod
    def fixpoint_view(projection: dict):
        # Known gap of the composed stack (found by this benchmark): an
        # obligation the QoS layer shed is not a terminal outcome for replay,
        # so recovery re-attempts it and the rebuilt DLQ outgrows the live
        # one; fully drained message boxes are not re-minted either.  Only
        # the subscription projection is a fixpoint under shedding.
        return projection["subscriptions"]

    def crash_and_recover(self):
        # recover_broker re-posts every logged Subscribe through the simulated
        # wire and has no retry: one dropped replay request aborts recovery.
        # Recovery is therefore measured with the loss model switched off.
        self.network.loss_rate = 0.0
        try:
            return super().crash_and_recover()
        finally:
            self.network.loss_rate = self.loss_rate
