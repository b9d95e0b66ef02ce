"""The closing table: one way an obligation leaves the delivery pipeline.

Every cell is one ``CLOSING`` row driven through a ``DeliveryManager`` with
the optional books (store, obs) switched on or off: exactly
the books the row names move, each by the amount the row says, and the
conservation audit passes whenever there is a ledger to audit.
"""

from collections import Counter

import pytest

from repro.delivery import (
    DeliveryItem,
    DeliveryManager,
    DeliveryPolicy,
    MessageBoxRegistry,
    TaskStatus,
    drain_message_box_wse,
)
from repro.delivery.manager import CLOSING
from repro.obs.audit import audit
from repro.obs.instrument import Instrumentation
from repro.qos import AdaptiveQosController, AdaptiveQosPolicy
from repro.store import BrokerStore
from repro.store.records import OutcomeRecorded
from repro.transport import FirewallBlocked, MessageLost, SimulatedNetwork, VirtualClock
from repro.xmlkit import parse_xml

SINK = "http://ct-sink"
ZONE = "ct-lan"
#: what each store entry point writes to the log: (outcome, reason)
RECORDS = {
    "task_delivered": ("delivered", ""),
    "items_parked": ("parked", ""),
    "items_shed": ("dead", "shed:"),
    "task_dead": ("dead", "max_attempts"),
}
CELLS = [
    pytest.param(store, obs, id=f"store={store:d}-obs={obs:d}")
    for store in (False, True)
    for obs in (False, True)
]


def event(n):
    return parse_xml(f'<e:V xmlns:e="urn:ct"><e:n>{n}</e:n></e:V>')


def deliver():
    pass


def lose():
    raise MessageLost("injected")


def refuse():
    raise FirewallBlocked("injected")


class Rig:
    """A manager with the optional books of one cell attached."""

    def __init__(
        self, store, obs, *,
        policy=DeliveryPolicy(max_attempts=1), box_capacity=10_000, max_sink_queue=None,
    ):
        self.network = SimulatedNetwork(VirtualClock())
        self.network.add_zone(ZONE, blocks_inbound=True)
        self.instr = Instrumentation.attach(self.network) if obs else None
        self.boxes = MessageBoxRegistry(self.network, "http://ct/msgbox", capacity=box_capacity)
        self.manager = DeliveryManager(
            self.network,
            policy=policy,
            message_boxes=self.boxes,
            qos=(
                AdaptiveQosController(
                    self.network.clock, policy=AdaptiveQosPolicy(max_sink_queue=max_sink_queue)
                )
                if max_sink_queue
                else None
            ),
        )
        self.store = None
        if store:
            self.store = self.manager.store = BrokerStore()
            self.store.clock = self.network.clock
        self.serial = 0

    def items(self, n_items, lineage=None):
        """Items as a batch of publishes would mint them: each its own
        message id, so each is its own obligation in the store too."""
        self.serial += n_items
        return [
            DeliveryItem(event(n), lineage=lineage, message_id=f"msg-{n}")
            for n in range(self.serial - n_items, self.serial)
        ]

    def submit(self, send, n_items=2):
        """One task of ``n_items`` (lineage-bearing when there is a ledger)."""
        if self.instr is None:
            return self.manager.submit(SINK, send, items=self.items(n_items), family="test")
        with self.instr.span("publish", mint=True) as span:
            self.instr.lineage_event(span.lineage, "published", family="test")
            items = self.items(n_items, self.instr.trace_context())
            return self.manager.submit(SINK, send, items=items, family="test")

    def books(self) -> Counter:
        """Every book a close can write, as one bag of counts."""
        books = Counter()
        stats = self.manager.stats.snapshot()
        for row in CLOSING.values():
            books["stat", row.stat] = stats[row.stat]
        if self.instr is not None:
            for row in CLOSING.values():
                values = self.instr.metrics.counter_values(row.counter)
                books["counter", row.counter] = sum(values.values())
            states = {row.ledger for row in CLOSING.values()}
            for events in self.instr.ledger.events.values():
                for e in events:
                    if e.state in states:
                        books["ledger", e.state, e.detail.get("via", "push")] += 1
        if self.store is not None:
            for record in self.store.log.records():
                if isinstance(record, OutcomeRecorded):
                    shed = record.reason.startswith("shed:")
                    books["record", record.outcome, "shed:" if shed else record.reason] += 1
        return books

    def moved(self, before: Counter) -> dict:
        after = self.books()
        return {key: after[key] - before[key] for key in after if after[key] != before[key]}

    def expected(self, closes):
        """The movement ``closes`` — {row name: items closed} — must cause."""
        moves = {}
        for name, n_items in closes.items():
            row = CLOSING[name]
            moves["stat", row.stat] = n_items if row.per_item else 1
            if self.instr is not None:
                moves["counter", row.counter] = n_items if row.per_item else 1
                moves["ledger", row.ledger, "push"] = n_items
            if self.store is not None:
                moves[("record", *RECORDS[row.store])] = n_items
        return moves

    def audit_passes(self):
        if self.instr is None:
            return True
        result = audit(self.instr)
        return result.passed and result.pending == result.parked_outstanding


@pytest.mark.parametrize("store, obs", CELLS)
class TestEveryRowInEveryCell:
    def test_delivered(self, store, obs):
        rig = Rig(store, obs)
        before = rig.books()
        task = rig.submit(deliver)
        assert task.status == CLOSING["delivered"].status == TaskStatus.DELIVERED
        assert rig.moved(before) == rig.expected({"delivered": 2})
        assert rig.audit_passes()

    def test_parked_then_drained_by_pull(self, store, obs):
        rig = Rig(store, obs)
        before = rig.books()
        task = rig.submit(refuse)
        assert task.status == CLOSING["parked"].status == TaskStatus.PARKED
        assert rig.moved(before) == rig.expected({"parked": 2})
        assert rig.audit_passes()  # pending, and every pending one is parked
        # the drain finishes the row item by item: delivered via pull, a
        # ``drained`` record, and no task-level book moves a second time
        before = rig.books()
        box = rig.boxes.get(SINK)
        assert len(drain_message_box_wse(rig.network, box.epr(), zone=ZONE)) == 2
        drained = {}
        if obs:
            drained["ledger", "delivered", "pull"] = 2
        if store:
            drained["record", "drained", ""] = 2
        assert rig.moved(before) == drained
        assert rig.audit_passes()
        if obs:
            assert audit(rig.instr).pending == 0

    def test_shed(self, store, obs):
        rig = Rig(
            store, obs, max_sink_queue=1,
            policy=DeliveryPolicy(max_attempts=2, base_backoff=1.0, jitter=0.0),
        )
        head = rig.submit(lose)  # holds the sink's one queue slot
        assert head.status == TaskStatus.QUEUED
        before = rig.books()
        newcomer = rig.submit(deliver)
        shed = [t for t in (head, newcomer) if t.status == TaskStatus.SHED]
        assert len(shed) == 1 and shed[0].last_error == "queue_full"
        assert CLOSING["shed"].status == TaskStatus.SHED
        assert rig.moved(before) == rig.expected({"shed": 2})
        rig.network.clock.advance(1.0)
        rig.manager.run_until_idle()
        assert rig.audit_passes()

    def test_dead_lettered(self, store, obs):
        rig = Rig(store, obs)
        before = rig.books()
        task = rig.submit(lose)
        assert task.status == CLOSING["dead_lettered"].status == TaskStatus.DEAD
        assert [letter.reason for letter in rig.manager.dlq.entries] == ["max_attempts"]
        assert rig.moved(before) == rig.expected({"dead_lettered": 2})
        assert rig.audit_passes()

    def test_box_overflow_is_parked_plus_shed_in_one_task(self, store, obs):
        rig = Rig(store, obs, box_capacity=1)
        before = rig.books()
        task = rig.submit(refuse, n_items=3)
        assert task.status == TaskStatus.PARKED  # what it parked is still owed
        assert rig.moved(before) == rig.expected({"parked": 1, "shed": 2})
        assert rig.audit_passes()


def test_the_table_names_real_books():
    """Every column resolves: a stats field, a ledger state the audit knows,
    a store entry point; and the table covers every closing status."""
    from repro.delivery.manager import DeliveryStats
    from repro.obs.lineage import KNOWN_STATES

    for name, row in CLOSING.items():
        assert hasattr(DeliveryStats(), row.stat), name
        assert row.ledger in KNOWN_STATES, name
        assert callable(getattr(BrokerStore, row.store)), name
    assert {row.status for row in CLOSING.values()} == {
        TaskStatus.DELIVERED, TaskStatus.PARKED, TaskStatus.SHED, TaskStatus.DEAD
    }
