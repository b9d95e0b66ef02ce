"""Property test: crash the broker at a random point, recover, lose nothing.

Each seed derives a randomized-but-deterministic scenario (publishes,
renewals, pauses, pull drains, a firewalled consumer, a dark consumer, and
two transient subscriptions: one subscribed, paused and unsubscribed between
two publishes, one subscribed, renewed and unsubscribed around a publish)
and a crash point between two of its operations.  After recovery the remaining
operations continue against the recovered broker.  Whatever the crash point:

- the mesh-wide conservation audit passes (no lost obligations — anything
  unsettled at the crash is explicitly failed, never silently dropped);
- no consumer ever receives a payload twice (replay suppression);
- consumers whose obligations settle synchronously receive exactly the
  published sequence;
- no subscription id is minted twice, across the crash too.
"""

import pytest

from repro.delivery import DeliveryPolicy, drain_message_box_wse
from repro.messenger import WsMessenger
from repro.obs import Instrumentation
from repro.obs.audit import audit
from repro.store import BrokerStore, MemoryEventLog, recover_broker
from repro.transport import SimulatedNetwork, VirtualClock
from repro.util.rng import SeededRng
from repro.wse import DeliveryMode, EventSink, WseSubscriber
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.xmlkit import parse_xml

ZONE = "pp-zone"
SEEDS = [2006, 7, 41, 1234, 90125]


class Scenario:
    """One deterministic run; ``crash_at`` kills the broker mid-sequence."""

    def __init__(self, seed: int):
        self.rng = SeededRng(seed)
        self.network = SimulatedNetwork(VirtualClock())
        self.instrumentation = Instrumentation.attach(self.network)
        self.network.add_zone(ZONE, blocks_inbound=True)
        self.policy = DeliveryPolicy(max_attempts=2, base_backoff=1.0, jitter=0.0)
        self.broker = WsMessenger(
            self.network,
            "http://pp-broker",
            store=BrokerStore(MemoryEventLog()),
            delivery=self.policy,
        )
        self.sink = EventSink(self.network, "http://pp-sink")
        self.consumer = NotificationConsumer(self.network, "http://pp-consumer")
        self.inside = EventSink(self.network, "http://pp-inside", zone=ZONE)
        self.dark = NotificationConsumer(self.network, "http://pp-dark")
        self.wse = WseSubscriber(self.network)
        self.wsn = WsnSubscriber(self.network)
        self.sink_handle = self.wse.subscribe(self.broker.epr(), notify_to=self.sink.epr())
        self.pull_handle = self.wse.subscribe(self.broker.epr(), mode=DeliveryMode.PULL)
        WseSubscriber(self.network, zone=ZONE).subscribe(
            self.broker.epr(), notify_to=self.inside.epr()
        )
        self.consumer_handle = self.wsn.subscribe(
            self.broker.epr(), self.consumer.epr(), topic="pp"
        )
        self.wsn.subscribe(self.broker.epr(), self.dark.epr(), topic="pp")
        self.dark.close()  # every copy for it retries, then dead-letters
        self.passing = NotificationConsumer(self.network, "http://pp-passing")
        self.spanning = NotificationConsumer(self.network, "http://pp-spanning")
        self.transient = None
        self.sub_ids = [
            handle.sub_id for handle in (self.sink_handle, self.pull_handle, self.consumer_handle)
        ]
        self.published = 0
        self.pulled: list[str] = []
        self.drained: list[str] = []
        self.ops = self._script()

    def _script(self):
        ops = []
        for _ in range(10):
            roll = self.rng.randrange(10)
            if roll < 6:
                ops.append("publish")
            elif roll < 7:
                ops.append("renew")
            elif roll < 8:
                ops.append("pause" if "pause" not in ops else "resume")
            elif roll < 9:
                ops.append("pull")
            else:
                ops.append("settle")
        # transient lifetimes: one closed between two publishes, one spanning one
        ops += ["subscribe-passing", "pause-transient", "unsubscribe-transient"]
        ops += ["subscribe-spanning", "renew-transient", "publish", "unsubscribe-transient"]
        ops.append("publish")  # at least one message always flows
        return ops

    def apply(self, op: str) -> None:
        if op == "publish":
            self.published += 1
            self.broker.publish(
                parse_xml(f'<e:V xmlns:e="urn:pp"><e:n>{self.published}</e:n></e:V>'),
                topic="pp",
            )
        elif op == "renew":
            self.wse.renew(self.sink_handle, "PT3H")
        elif op == "pause":
            self.wsn.pause(self.consumer_handle)
        elif op == "resume":
            self.wsn.resume(self.consumer_handle)
        elif op == "pull":
            self.pulled.extend(
                p.full_text() for p in self.wse.pull(self.pull_handle)
            )
        elif op == "settle":
            self.broker.run_deliveries_until_idle()
        elif op == "subscribe-passing":
            self.transient = self.wsn.subscribe(self.broker.epr(), self.passing.epr(), topic="pp")
            self.sub_ids.append(self.transient.sub_id)
        elif op == "subscribe-spanning":
            self.transient = self.wsn.subscribe(self.broker.epr(), self.spanning.epr(), topic="pp")
            self.sub_ids.append(self.transient.sub_id)
        elif op == "pause-transient":
            self.wsn.pause(self.transient)
        elif op == "renew-transient":
            self.wsn.renew(self.transient, "PT3H")
        elif op == "unsubscribe-transient":
            self.wsn.unsubscribe(self.transient)

    def crash_and_recover(self) -> None:
        self.broker.close()
        self.broker = recover_broker(
            self.network, "http://pp-broker", self.broker.store.log, delivery=self.policy
        )

    def finish(self) -> None:
        self.broker.run_deliveries_until_idle()
        if "pause" in self.ops and "resume" not in self.ops[self.ops.index("pause"):]:
            self.wsn.resume(self.consumer_handle)
            self.broker.run_deliveries_until_idle()
        self.pulled.extend(p.full_text() for p in self.wse.pull(self.pull_handle))
        box = self.broker.message_boxes.get("http://pp-inside")
        if box is not None and len(box):
            self.drained.extend(
                p.full_text()
                for p in drain_message_box_wse(self.network, box.epr(), zone=ZONE)
            )


def _texts(received):
    # EventSink stores raw payloads; NotificationConsumer wraps them
    return [getattr(item, "payload", item).full_text() for item in received]


@pytest.mark.parametrize("seed", SEEDS)
def test_crash_anywhere_loses_nothing(seed):
    scenario = Scenario(seed)
    crash_at = scenario.rng.randrange(len(scenario.ops) + 1)
    for index, op in enumerate(scenario.ops):
        if index == crash_at:
            scenario.crash_and_recover()
        scenario.apply(op)
    if crash_at == len(scenario.ops):
        scenario.crash_and_recover()
    scenario.finish()

    expected = [str(n) for n in range(1, scenario.published + 1)]
    # synchronous-settling consumers see exactly the published sequence
    assert _texts(scenario.sink.received) == expected
    assert _texts(scenario.consumer.received) == expected
    # the firewalled consumer's parked copies drained exactly once
    assert scenario.drained == expected
    # the pull queue yielded each message exactly once, in order
    assert scenario.pulled == expected
    # the transients: the one closed between publishes saw nothing, the one
    # spanning a publish saw it once; a closed lifetime's id stays taken
    assert scenario.passing.received == []
    assert _texts(scenario.spanning.received) == [expected[-2]]
    assert len(scenario.sub_ids) == len(set(scenario.sub_ids))
    # nobody saw a duplicate
    for texts in (
        _texts(scenario.sink.received),
        _texts(scenario.consumer.received),
        scenario.drained,
        scenario.pulled,
    ):
        assert len(texts) == len(set(texts))
    # conservation: every obligation ever opened is accounted for
    result = audit(scenario.instrumentation, scenario=f"crash-seed-{seed}")
    assert result.passed, result.render()


@pytest.mark.parametrize("seed", [2006, 41])
def test_every_crash_point_for_two_seeds(seed):
    """Exhaustive sweep: the invariants hold at *every* op boundary."""
    op_count = len(Scenario(seed).ops)
    for crash_at in range(op_count + 1):
        scenario = Scenario(seed)
        for index, op in enumerate(scenario.ops):
            if index == crash_at:
                scenario.crash_and_recover()
            scenario.apply(op)
        if crash_at == len(scenario.ops):
            scenario.crash_and_recover()
        scenario.finish()
        expected = [str(n) for n in range(1, scenario.published + 1)]
        assert _texts(scenario.sink.received) == expected, f"crash_at={crash_at}"
        assert scenario.drained == expected, f"crash_at={crash_at}"
        assert scenario.pulled == expected, f"crash_at={crash_at}"
        assert _texts(scenario.spanning.received) == [expected[-2]], f"crash_at={crash_at}"
        assert len(scenario.sub_ids) == len(set(scenario.sub_ids)), f"crash_at={crash_at}"
        result = audit(scenario.instrumentation, scenario=f"sweep-{seed}-{crash_at}")
        assert result.passed, f"crash_at={crash_at}\n{result.render()}"
