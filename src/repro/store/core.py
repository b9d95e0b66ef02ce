"""The broker store: one append-only log as the broker's source of truth.

:class:`BrokerStore` sits between a :class:`~repro.messenger.WsMessenger`
and an event log (:mod:`repro.store.log`).  Attached to a live broker it
*records*: the front door appends a :class:`SubscribeRecorded` per granted
subscription, lifecycle listeners append renew/remove/pause/pull records,
``publish`` appends its outbox entry before fan-out, and the delivery
manager appends an :class:`OutcomeRecorded` per settled obligation.

The same object *projects*: rebuilt over an existing log (see
:mod:`repro.store.recovery`), its settlement index — per publish, each
sink's deciding :class:`OutcomeRecorded` — tells the route which replayed
pushes were already delivered (push nothing), and the delivery manager
which of the rest are parked (re-park without re-attempting) or dead
(restore to the DLQ) — which is what makes crash-replay exactly-once.

The commit rule (the log itself only buffers): every append commits at
once, except the outcomes of the publish in flight, which wait behind its
already-committed publish record for ``end_publish``'s one write.  So a
Subscribe, Renew, Remove or Pause acknowledged on the wire is on disk, and
a retry tick commits per record.

Crash model: a record append and the wire exchange it describes are
atomic in the simulation; crash points fall *between* operations.  A
process killed *inside* a publish keeps the publish record and loses its
uncommitted outcomes: replay re-attempts those sinks of that one publish
(at-least-once within it, exactly-once everywhere else).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.delivery.task import DeliveryItem
from repro.obs.instrument import BoundCounters
from repro.qos.wire import profile_from_texts, profile_texts
from repro.store.log import MemoryEventLog
from repro.store.records import (
    OutcomeRecorded,
    PauseRecorded,
    PublishRecorded,
    PullDrainRecorded,
    RemoveRecorded,
    RenewRecorded,
    SubscribeRecorded,
)
from repro.subscriptions import DeliveryMode, Grant
from repro.wsa.epr import EndpointReference
from repro.wsa.versions import WsaVersion
from repro.xmlkit.parser import parse_xml
from repro.xmlkit.writer import serialize_xml

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delivery.task import DeliveryTask
    from repro.messenger.broker import WsMessenger

#: outcomes after which a (message_id, sink) obligation needs no further work
TERMINAL_OUTCOMES = frozenset({"delivered", "dead", "drained"})
#: how a ``dead`` record says the QoS layer shed the message
SHED_PREFIX = "shed:"
#: the sinks of a publish that has no outcome yet (shared, never written)
_NO_OUTCOMES: Mapping[str, OutcomeRecorded] = MappingProxyType({})

#: the state a family's subscriptions can differ in beyond sink, expiry and
#: backlog: WS-Eventing picks a delivery mode at Subscribe, WS-Notification
#: can pause (the projection reports what the log can determine)
_FAMILY_STATE = {
    "wse": lambda sub: ("mode", sub.mode.value),
    "wsn": lambda sub: ("paused", sub.paused),
}

#: a logged EPR is written in the addressing version with properties *and* parameters
_LOG_WSA = WsaVersion.V2004_08


def _epr_fields(epr: Optional[EndpointReference]) -> Tuple[Optional[str], Optional[str]]:
    """An EPR as logged: its address, and all of it if it has reference parameters / properties."""
    if epr is None or not (epr.reference_parameters or epr.reference_properties):
        return (epr and epr.address), None
    return epr.address, serialize_xml(epr.to_element(_LOG_WSA))


def _epr_of(address: Optional[str], serialized: Optional[str]) -> Optional[EndpointReference]:
    if serialized is not None:
        return EndpointReference.from_element(parse_xml(serialized), _LOG_WSA)
    return None if address is None else EndpointReference(address)


def grant_of(record: SubscribeRecorded) -> Grant:
    """The grant ``record`` logged, id and expiry pinned; ``ValueError`` if it is garbled."""
    return Grant(
        _epr_of(record.consumer, record.consumer_epr), record.filter, record.expires,
        profile_from_texts(record.qos.items()) if record.qos is not None else None,
        DeliveryMode(record.mode), _epr_of(record.end_to, record.end_to_epr),
        record.use_raw, record.topic, record.sub_id,
    )


@dataclass
class StoreStats:
    """Append/replay accounting (virtual-clock deterministic)."""

    appends: int = 0
    commits: int = 0  #: writes to the log; appends / commits = records per write
    publishes: int = 0
    outcomes: int = 0
    #: replayed obligations the log had already settled: a delivered
    #: ``(message_id, sink)`` key the route dropped, or a task the delivery
    #: manager suppressed
    suppressed: int = 0
    #: replayed items re-parked into message boxes without a wire attempt
    reparked: int = 0
    #: replayed tasks restored straight to the dead-letter queue
    redead: int = 0
    replayed_publishes: int = 0
    recovered_subscriptions: int = 0
    #: pre-crash in-flight obligations closed as failed during recovery
    crash_failures: int = 0

    def snapshot(self) -> dict:
        return asdict(self)


class BrokerStore:
    """Event-sourced state for one broker over one append-only log."""

    def __init__(self, log=None) -> None:
        self.log = log if log is not None else MemoryEventLog()
        self.stats = StoreStats()
        #: True while recovery replays the log: lifecycle and publish
        #: recording is muted (the log already has those records), while
        #: genuinely new delivery outcomes still append
        self.replaying = False
        #: True while the broker's front door routes a Subscribe: its grant is logged
        self.front_door = False
        self.broker: Optional["WsMessenger"] = None
        self.clock = None
        self._message_serial = 0
        #: the settlement index: message id -> sink -> the outcome record that
        #: decides the obligation — terminal (settled) or ``parked`` (open,
        #: owed a drain); no entry: never settled, or reopened by a DLQ replay
        self._outcomes: Dict[str, Dict[str, OutcomeRecorded]] = {}
        #: how many obligations the index holds settled / parked
        self.settled = 0
        self.parked_open = 0
        #: publishes forwarded to their owning mesh shard (no local fan-out)
        self._routed: Set[str] = set()
        #: the sinks whose delivered push the route dropped for the publish
        #: replaying now (each counts once in ``stats.suppressed``)
        self.replay_dropped: Set[str] = set()
        #: message id the route stamps on the item of the in-flight publish
        #: (set around fan-out, both live and during replay)
        self.current_message_id: Optional[str] = None
        #: the ids of the publishes the in-flight one nests in, innermost last
        self._enclosing: List[Optional[str]] = []
        #: pre-bound per-record counters
        self._bound = BoundCounters()
        #: the log's records a restart replays, in log order: every one but
        #: the outcomes, which the index has read (``replay_log`` takes them)
        self.replayable: List[Any] = []
        self._index(self.log.records(), self.replayable)

    # --- settlement index --------------------------------------------------

    def _index(self, records: Iterable[Any], replayable: Optional[List[Any]] = None) -> None:
        """Fold ``records`` into the settlement index, in log order: one pass
        that dispatches on each record's type, the whole log at open, one
        record per append.  Every record but an outcome goes to
        ``replayable``."""
        outcomes, routed = self._outcomes, self._routed
        settled = parked = 0
        for record in records:
            kind = type(record)
            if kind is OutcomeRecorded:
                outcome, sink = record.outcome, record.sink
                by_sink = outcomes.get(record.message_id)
                if outcome in TERMINAL_OUTCOMES:
                    if by_sink is None:
                        outcomes[record.message_id] = {sink: record}
                        settled += 1
                    elif sink not in by_sink:
                        by_sink[sink] = record
                        settled += 1
                    else:
                        if by_sink[sink].outcome == "parked":
                            settled += 1
                            parked -= 1
                        by_sink[sink] = record
                elif outcome == "parked":
                    if by_sink is None:
                        outcomes[record.message_id] = {sink: record}
                        parked += 1
                    elif sink not in by_sink:
                        by_sink[sink] = record
                        parked += 1
                elif outcome == "replayed":
                    # DLQ replay reopens a dead obligation
                    prior = by_sink.get(sink) if by_sink is not None else None
                    if prior is not None and prior.outcome == "dead":
                        del by_sink[sink]
                        settled -= 1
                elif outcome == "routed":
                    routed.add(record.message_id)
                continue
            if kind is PublishRecorded:
                tail = record.message_id.rsplit("-", 1)[-1]
                if tail.isdigit():
                    self._message_serial = max(self._message_serial, int(tail))
            if replayable is not None:
                replayable.append(record)
        self.settled += settled
        self.parked_open += parked

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def _append(self, record: Any, *, defer: bool = False) -> None:
        self.log.append(record)
        self.stats.appends += 1
        self._index((record,))
        if not defer:
            self._commit()
        broker = self.broker
        if broker is not None:
            instr = broker.network.instrumentation
            if instr.enabled:
                kind = type(record).__name__
                self._bound.inc(instr, 1, "store.log_appends", "kind", kind)

    def _commit(self) -> None:
        if self.log.commit():
            self.stats.commits += 1
            if self.broker is not None:
                self.broker.network.instrumentation.count("store.log_commits")

    # --- wiring ------------------------------------------------------------

    def attach(self, broker: "WsMessenger") -> None:
        """Wire the store into a broker's sources, producers and delivery
        manager.  Called from the broker constructor."""
        self.broker = broker
        self.clock = broker.network.clock
        for family, tag, subscriptions in broker.subscription_managers():
            subscriptions.listeners.append(self._lifecycle_hook(family, tag))
        if broker.delivery_manager is not None:
            broker.delivery_manager.store = self

    def _lifecycle_hook(self, family: str, tag: str):
        def on_event(event: str, subscription, detail: dict) -> None:
            if self.replaying:
                return
            at, sub_id = self._now(), subscription.key
            if event == "created" and self.front_door:
                self.record_subscribe(family, tag, detail["grant"])
            elif event == "renewed":
                self._append(
                    RenewRecorded(
                        at=at,
                        family=family,
                        tag=tag,
                        sub_id=sub_id,
                        expires=subscription.termination_time,
                    )
                )
            elif event == "removed":
                self._append(RemoveRecorded(at=at, family=family, tag=tag, sub_id=sub_id))
            elif event in ("paused", "resumed"):
                self._append(
                    PauseRecorded(at=at, tag=tag, sub_id=sub_id, paused=event == "paused")
                )
            elif event == "pulled":
                self._append(
                    PullDrainRecorded(at=at, tag=tag, sub_id=sub_id, count=detail["count"])
                )

        return on_event

    # --- recording: subscription lifecycle ---------------------------------

    def record_subscribe(self, family: str, tag: str, grant: Grant) -> None:
        """A Subscribe the front door granted, logged as the grant it made:
        no request bytes — one tree serialisation per EPR that carries
        reference parameters or properties, none otherwise."""
        self._append(
            SubscribeRecorded(
                self._now(), family, tag, grant.sub_id, grant.expires,
                *_epr_fields(grant.consumer), *_epr_fields(grant.end_to), grant.filter_parts,
                profile_texts(grant.qos) if grant.qos is not None else None,
                grant.mode.value, grant.use_raw, grant.topic_expression,
            )
        )

    # --- recording: the transactional outbox -------------------------------

    def record_publish(self, payload, topic: Optional[str], lineage) -> Optional[str]:
        """Append the outbox entry *before* fan-out and make its message id
        the in-flight one (the route stamps it on the publish's item).
        Returns the minted id, which the caller hands back to
        :meth:`record_routed` and :meth:`end_publish` (None while replaying:
        the replay loop pins ``current_message_id`` itself)."""
        if self.replaying:
            return None
        self._message_serial += 1
        message_id = f"msg-{self._message_serial}"
        self._append(
            PublishRecorded(
                at=self._now(),
                message_id=message_id,
                topic=topic,
                payload=serialize_xml(payload),
                lineage=lineage.encode() if lineage is not None else None,
            )
        )
        self.stats.publishes += 1
        # a publish can nest in another (a mesh forward's federated ingress
        # re-enters this broker): end_publish gives the outer one its id back
        self._enclosing.append(self.current_message_id)
        self.current_message_id = message_id
        return message_id

    def record_routed(self, message_id: Optional[str]) -> None:
        """The mesh router forwarded publish ``message_id`` to its owning
        shard: no local fan-out exists to reproduce on replay."""
        if message_id is None:
            return
        self._append(OutcomeRecorded(self._now(), message_id, "", "routed"))

    def end_publish(self, message_id: Optional[str]) -> None:
        """Close publish ``message_id``: its buffered outcomes commit, and
        the publish it nested in (if any) is in flight again."""
        if message_id is not None:
            self.current_message_id = self._enclosing.pop()
            self._commit()

    def stamp_items(self, payload, topic: Optional[str], lineage) -> List[DeliveryItem]:
        """The route's one item of the in-flight publish, stamped with its
        message id — the idempotency key is born here.  Every task, parked
        queue and wrapped batch carries the item as it is, so a batch that
        holds several publishes holds each under its own id."""
        return [DeliveryItem(payload, topic, lineage, self.current_message_id)]

    # --- recording: delivery outcomes --------------------------------------

    def _record_outcome(
        self, message_id: str, sink: str, outcome: str, reason: str = ""
    ) -> None:
        prior = self._outcomes.get(message_id, _NO_OUTCOMES).get(sink)
        if prior is not None:
            if prior.outcome in TERMINAL_OUTCOMES:
                if outcome != "replayed":
                    return  # already terminal: appending again would be noise
            elif outcome == "parked":
                return  # already parked
        self._append(
            OutcomeRecorded(self._now(), message_id, sink, outcome, reason),
            # the outbox transaction: outcomes of the live publish in flight
            # ride its one closing write (replay and retry ticks do not)
            defer=self.current_message_id is not None and not self.replaying,
        )
        self.stats.outcomes += 1

    def _record_outcomes(
        self, sink: str, items: Sequence["DeliveryItem"], outcome: str, reason: str = ""
    ) -> None:
        for item in items:
            if item.message_id is not None:
                self._record_outcome(item.message_id, sink, outcome, reason)

    # The closing table's entry points (``repro.delivery.manager.CLOSING``):
    # one shape — the sink, the items that closed, why — one record each.

    def task_delivered(self, sink: str, items, reason: str = "") -> None:
        self._record_outcomes(sink, items, "delivered")

    def items_parked(self, sink: str, items, reason: str = "") -> None:
        self._record_outcomes(sink, items, "parked")

    def items_shed(self, sink: str, items, reason: str) -> None:
        """Recorded as ``dead`` with a ``shed:`` reason: the log format has
        no ``shed`` outcome, the reason is what replay tells them apart by
        (a shed message is settled — no fresh wire attempt, no dead letter)."""
        self._record_outcomes(sink, items, "dead", SHED_PREFIX + reason)

    def task_dead(self, sink: str, items, reason: str) -> None:
        self._record_outcomes(sink, items, "dead", reason)

    def items_drained(self, sink: str, items, reason: str = "") -> None:
        self._record_outcomes(sink, items, "drained")

    def task_replayed(self, task: "DeliveryTask") -> None:
        self._record_outcomes(task.sink, task.items, "replayed")

    # --- replay routing (the route asks first, the delivery manager the rest) --

    def replay_outcomes(self) -> Mapping[str, OutcomeRecorded]:
        """The replayed publish's settlement, sink -> deciding outcome record:
        the route takes it once per publish and drops a push whose sink's
        record says ``delivered``, adding the sink to :attr:`replay_dropped`."""
        return self._outcomes.get(self.current_message_id, _NO_OUTCOMES)

    def resolve_replay(self, task: "DeliveryTask") -> Optional[Tuple[str, str]]:
        """Route one replayed submission by its idempotency keys.

        Returns ``("suppress", "")`` when the log already settled every
        item (``("suppress", "drained")`` when a message box served any of
        them: its consumer still holds that box's address),
        ``("park", "")`` when the open items were parked pre-crash,
        ``("dead", reason)`` when the task died pre-crash — ``("shed",
        reason)`` when what killed it was a QoS decision, which stays out of
        the dead-letter queue — or None for a live re-attempt (the obligation
        was genuinely in flight)."""
        outcomes, sink = self._outcomes, task.sink
        # each keyed item's deciding record at the sink (None: never settled)
        records = [
            outcomes.get(item.message_id, _NO_OUTCOMES).get(sink)
            for item in task.items
            if item.message_id is not None
        ]
        if not records:
            return None
        open_records = [r for r in records if r is None or r.outcome == "parked"]
        if not open_records:
            kinds = [record.outcome for record in records]
            if "dead" in kinds and "delivered" not in kinds and "drained" not in kinds:
                reason = records[kinds.index("dead")].reason
                if reason.startswith(SHED_PREFIX):
                    return ("shed", reason[len(SHED_PREFIX):])
                return ("dead", reason)
            return ("suppress", "drained" if "drained" in kinds else "")
        if all(record is not None for record in open_records):
            return ("park", "")
        return None

    def replay_park_items(self, task: "DeliveryTask") -> List["DeliveryItem"]:
        """The items of a "park"-routed task that are still owed a drain."""
        outcomes, sink = self._outcomes, task.sink
        owed = []
        for item in task.items:
            record = outcomes.get(item.message_id, _NO_OUTCOMES).get(sink)
            if record is not None and record.outcome == "parked":
                owed.append(item)
        return owed

    # --- projections ---------------------------------------------------------

    def projection(self, broker: Optional["WsMessenger"] = None) -> dict:
        """Canonical snapshot of the broker state the log determines.

        The durability conformance engine's fixpoint: a projection taken
        from the live broker must equal the projection of a fresh broker
        rebuilt from the log alone."""
        broker = broker if broker is not None else self.broker
        assert broker is not None
        subscriptions: Dict[str, dict] = {}
        for family, tag, manager in broker.subscription_managers():
            for sub in manager.live_resources():
                state, value = _FAMILY_STATE[family](sub)
                subscriptions[f"{family}:{tag}:{sub.key}"] = {
                    "sink": sub.consumer.address if sub.consumer else None,
                    state: value,
                    "expires": sub.termination_time,
                    "queued": len(sub.queue),
                }
        boxes = {}
        if broker.message_boxes is not None:
            for box in broker.message_boxes.boxes():
                boxes[box.sink] = {"address": box.address, "pending": len(box)}
        dead = 0
        if broker.delivery_manager is not None:
            dead = len(broker.delivery_manager.dlq)
        return {
            "subscriptions": subscriptions,
            "boxes": boxes,
            "dead_letters": dead,
        }

    def snapshot(self) -> dict:
        """Deterministic store state for reports and tests."""
        return {
            "log_records": len(self.log),
            "settled": self.settled,
            "parked_open": self.parked_open,
            "torn_records": self.log.torn_records,
            "stats": self.stats.snapshot(),
        }
