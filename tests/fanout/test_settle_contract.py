"""The settle contract of the shared fan-out pipeline (``repro.fanout``).

One table over what is sent × how it is settled × whether the sink takes it:
every cell checks the obligation ledger's state sequence per item, that
``notifications.delivered`` / ``notifications.failed`` count *items*, that
the conservation audit balances, and that a failed attempt ends the
subscription — in its family's vocabulary, with the failure recorded — on the
direct path only (under a delivery manager the pipeline owns the failure).

The two counter bugs the merge fixed are pinned at the bottom; both fail at
the commit before ``repro.fanout`` existed.
"""

from dataclasses import dataclass, field

import pytest

from repro.convergence.service import (
    MODE_PUSH,
    MODE_WRAP,
    ConvergedConsumer,
    ConvergedSource,
    ConvergedSubscriber,
)
from repro.delivery import BatchingPolicy, DeliveryManager, DeliveryPolicy
from repro.messenger import WsMessenger
from repro.obs import Instrumentation
from repro.obs.audit import audit
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import DeliveryMode, EventSink, EventSource, SubscriptionEndCode, WseSubscriber
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
from repro.xmlkit import parse_xml

SINK = "http://sc-sink"
#: two tries, no waiting: a refusing sink dead-letters inside run_until_idle
POLICY = DeliveryPolicy(max_attempts=2, base_backoff=0.0, jitter=0.0)


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:sc"><e:n>{n}</e:n></e:V>')


@dataclass
class Cell:
    """One run: what was built, and what the contract is checked against."""

    owner: object  # the NotificationProducer / EventSource
    family: str
    #: notifications the one settlement carries (0 for a control notice)
    items: int
    #: how many of them carry a lineage (WSE wrapped queues hold bare payloads)
    traced: int
    #: the failure stage a refused direct attempt is recorded under
    stage: str
    #: live subscriptions before anything was sent
    subscriptions: int = 1
    received: list = field(default_factory=list)


def _wsn(kind: str, network, manager, refusing: bool) -> Cell:
    raw = kind == "wsn_raw"
    producer = NotificationProducer(
        network, "http://sc-producer", delivery_manager=manager,
        batching=None if raw else BatchingPolicy(),
    )
    consumer = NotificationConsumer(network, SINK)
    subscriber = WsnSubscriber(network)
    # wrapped: two subscriptions of one consumer coalesce into one two-item
    # Notify; raw is never batched, so one subscription, one item
    for _ in range(1 if raw or kind == "wsn_termination" else 2):
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="t", use_raw=raw)
    if refusing:
        consumer.close()
    cell = Cell(
        producer, "wsn",
        items=1 if raw else 2, traced=1 if raw else 2, stage="notify",
        subscriptions=len(producer.subscriptions), received=consumer.received,
    )
    if kind == "wsn_termination":
        cell.items = cell.traced = 0
        cell.stage = "termination_notification"
        producer.subscriptions.destroy(handle.sub_id, "destroyed")
    else:
        assert producer.publish(event(), topic="t") == cell.items
    return cell


def _wse(kind: str, network, manager, refusing: bool) -> Cell:
    source = EventSource(
        network, "http://sc-source", delivery_manager=manager,
        batching=BatchingPolicy(max_batch=2),
    )
    sink = EventSink(network, SINK)
    mode = DeliveryMode.WRAPPED if kind == "wse_wrapped" else DeliveryMode.PUSH
    end_to = sink.epr() if kind == "wse_subscription_end" else None
    WseSubscriber(network).subscribe(
        source.epr(), notify_to=sink.epr(), mode=mode, end_to=end_to
    )
    if refusing:
        sink.close()
    cell = Cell(
        source, "wse",
        items=1, traced=1, stage="notify", received=sink.received,
    )
    if kind == "wse_subscription_end":
        cell.items = cell.traced = 0
        cell.stage = "subscription_end"
        [subscription] = source.subscriptions.live_resources()
        source.subscriptions.destroy(subscription.key, "source shutting down", "test")
    elif kind == "wse_wrapped":
        cell.items, cell.traced, cell.stage = 2, 0, "wrapped_notify"
        source.publish(event(1))
        source.publish(event(2))  # the second fills the batch and flushes it
    else:
        source.publish(event())
    return cell


def _converged(kind: str, network, manager, refusing: bool) -> Cell:
    source = ConvergedSource(network, "http://sc-converged", batching=BatchingPolicy(max_batch=2))
    if manager is not None:
        # the converged source takes no delivery manager of its own (nothing
        # composes one with it): its frame is wired to one here, as the
        # other families' constructors wire theirs
        source.delivery_manager = source._fanout.manager = manager
        source.subscriptions.delivery_manager = manager
    consumer = ConvergedConsumer(network, SINK)
    ConvergedSubscriber(network).subscribe(
        source.epr(), consumer=consumer.epr(), topic="t",
        mode=MODE_WRAP if kind == "wsen_wrapped" else MODE_PUSH,
        use_raw=kind == "wsen_raw",
        end_to=consumer.epr() if kind == "wsen_subscription_end" else None,
    )
    if refusing:
        consumer.close()
    cell = Cell(source, "wsen", items=1, traced=1, stage="notify", received=consumer.received)
    if kind == "wsen_subscription_end":
        cell.items = cell.traced = 0
        cell.stage = "subscription_end"
        [subscription] = source.subscriptions.live_resources()
        source.subscriptions.destroy(subscription.key, "expired")
    elif kind == "wsen_wrapped":
        # a wrapped batch is bare (parked items drop their lineage) and
        # settles under the family's one "notify" stage
        cell.items, cell.traced = 2, 0
        source.publish(event(1), topic="t")
        source.publish(event(2), topic="t")  # the second fills the batch and flushes it
    else:
        source.publish(event(), topic="t")
    return cell


KINDS = {
    "wsn_wrapped": _wsn,
    "wsn_raw": _wsn,
    "wse_push": _wse,
    "wse_wrapped": _wse,
    "wsn_termination": _wsn,
    "wse_subscription_end": _wse,
    "wsen_push": _converged,
    "wsen_raw": _converged,
    "wsen_wrapped": _converged,
    "wsen_subscription_end": _converged,
}


def _sink_states(instr) -> list[list[str]]:
    """Per lineage: the obligation states written against the sink."""
    return [
        [e.state for e in events if e.detail.get("sink") == SINK]
        for events in instr.ledger.events.values()
    ]


def _notifications(instr, outcome: str) -> int:
    return sum(instr.metrics.counter_values(f"notifications.{outcome}").values())


@pytest.mark.parametrize("sink", ["healthy", "refusing"])
@pytest.mark.parametrize("path", ["direct", "manager"])
@pytest.mark.parametrize("kind", list(KINDS))
def test_settle_contract(kind, path, sink):
    network = SimulatedNetwork(VirtualClock())
    instr = Instrumentation.attach(network)
    manager = DeliveryManager(network, policy=POLICY) if path == "manager" else None
    refusing = sink == "refusing"
    cell = KINDS[kind](kind, network, manager, refusing)
    if manager is not None:
        manager.run_until_idle()
    owner = cell.owner

    # --- the ledger: one state sequence per traced item ---------------------------
    if not refusing:
        per_item = ["enqueued", "attempted", "delivered"]
    elif path == "direct":
        per_item = ["enqueued", "attempted", "failed"]
    else:
        per_item = ["enqueued", "attempted", "attempted", "dead_lettered"]
    states = [s for s in _sink_states(instr) if s]
    if cell.traced:
        [flat] = states  # one publish, one lineage: its items move in lockstep
        seen = list(dict.fromkeys(flat))
        assert all(flat.count(state) % cell.traced == 0 for state in seen)
        assert [
            state for state in seen for _ in range(flat.count(state) // cell.traced)
        ] == per_item
    else:
        assert states == []

    # --- counters are in items, whichever path --------------------------------------
    assert _notifications(instr, "delivered") == (0 if refusing else cell.items)
    assert _notifications(instr, "failed") == (
        cell.items if refusing and path == "direct" else 0
    )
    assert len(cell.received) == (0 if refusing else cell.items)

    # --- the books balance ------------------------------------------------------------
    assert audit(instr, scenario=f"{kind}/{path}/{sink}").passed

    # --- who owns a failure -------------------------------------------------------------
    stages = [failure.stage for failure in owner.delivery_failures]
    if not refusing:
        assert stages == []
    elif path == "manager":
        # the pipeline's: dead-lettered and replayable, subscription untouched
        assert stages == []
        assert len(manager.dlq) == 1
        if cell.items:
            assert _live(owner) == cell.subscriptions
    else:
        assert stages[0] == cell.stage
        assert owner.delivery_failures[0].sink == SINK
        if cell.items:
            # ended, in the family's own vocabulary
            assert _live(owner) == 0
            if cell.family == "wse":
                assert [code for _, code in owner.ended_subscriptions] == [
                    SubscriptionEndCode.DELIVERY_FAILURE
                ]
            elif cell.family == "wsen":
                # no EndTo was asked for, so the end is silent
                assert stages == [cell.stage]
            else:
                # destroying the resource owes the dead consumer a
                # TerminationNotification, which fails and is recorded too
                assert set(stages[1:]) == {"termination_notification"}


def _live(owner) -> int:
    return len(owner.subscriptions)


# --- the two counter bugs the merge fixed -----------------------------------------------


@pytest.mark.parametrize("raw", [False, True], ids=["wrapped", "raw"])
@pytest.mark.parametrize("path", ["direct", "manager"])
def test_resumed_wsn_backlog_counts_every_notification(path, raw):
    """Was: a resumed backlog of 3 counted ``matched`` 3, ``delivered`` 1."""
    network = SimulatedNetwork(VirtualClock())
    instr = Instrumentation.attach(network)
    manager = DeliveryManager(network, policy=POLICY) if path == "manager" else None
    producer = NotificationProducer(network, "http://sc-producer", delivery_manager=manager)
    consumer = NotificationConsumer(network, SINK)
    subscriber = WsnSubscriber(network)
    handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="t", use_raw=raw)
    subscriber.pause(handle)
    for n in range(3):
        producer.publish(event(n), topic="t")
    subscriber.resume(handle)
    assert len(consumer.received) == 3
    assert _notifications(instr, "matched") == 3
    assert _notifications(instr, "delivered") == 3


def test_wse_deliveries_are_counted_under_a_delivery_manager():
    """Was: ``notifications.delivered{family=wse}`` stayed 0 with a manager
    (the counter lived only in the direct path's retry loop), and a wrapped
    batch counted 1 on the direct path."""
    network = SimulatedNetwork(VirtualClock())
    instr = Instrumentation.attach(network)
    broker = WsMessenger(network, "http://sc-broker", delivery=DeliveryPolicy())
    push, wrapped = EventSink(network, "http://sc-push"), EventSink(network, "http://sc-wrapped")
    subscriber = WseSubscriber(network)
    subscriber.subscribe(broker.epr(), notify_to=push.epr())
    subscriber.subscribe(broker.epr(), notify_to=wrapped.epr(), mode=DeliveryMode.WRAPPED)
    for n in range(3):
        broker.publish(event(n))
    broker.flush()
    broker.run_deliveries_until_idle()
    assert len(push.received) == 3 and len(wrapped.received) == 3
    values = instr.metrics.counter_values("notifications.delivered")
    assert values == {"notifications.delivered{family=wse,version=v2004_08}": 6}
    assert _notifications(instr, "matched") == 6
