"""The delivery manager: policy-driven reliable store-and-forward.

This is the pipeline the broker's fan-out routes through when reliability
is enabled.  Instead of a synchronous best-effort push that swallows
failures, every outbound notification becomes a :class:`DeliveryTask` on a
per-sink FIFO queue:

* the **first attempt is synchronous** — on a healthy network the hot path
  is byte-for-byte the old direct push;
* a failed attempt schedules a retry on the virtual clock with exponential
  backoff and deterministic seeded jitter (:class:`DeliveryPolicy`);
* a **circuit breaker** per sink fast-fails attempts to consumers that keep
  refusing, and half-opens on a clock timer;
* :class:`~repro.transport.network.FirewallBlocked` triggers the
  store-and-forward fallback: the message parks in the sink's broker-side
  :class:`~repro.delivery.messagebox.MessageBox`, drained by pull from
  inside the firewall;
* exhausted attempt budgets and TTLs land in the :class:`DeadLetterQueue`,
  introspectable and replayable — never silently dropped.

Per-sink queues are strictly ordered: a retrying head blocks the messages
behind it (head-of-line), which is what keeps redelivery in publish order.
Because nothing here reads a wall clock or global RNG, a (scenario, seed)
pair fully determines every retry timestamp — the reliability benchmark
asserts its artifact is byte-identical across runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from repro.delivery.breaker import BreakerState, CircuitBreaker
from repro.delivery.dlq import DeadLetterQueue
from repro.delivery.policy import DeliveryPolicy
from repro.delivery.task import DeliveryItem, DeliveryTask, TaskStatus
from repro.obs.instrument import BoundCounters
from repro.soap.fault import SoapFault
from repro.transport.clock import ClockScheduler
from repro.transport.network import FirewallBlocked, NetworkError, SimulatedNetwork
from repro.util.rng import SeededRng
from repro.xmlkit.writer import XmlCharacterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delivery.messagebox import MessageBox, MessageBoxRegistry
    from repro.qos.adaptive import AdaptiveQosController
    from repro.store.core import BrokerStore


class Closing(NamedTuple):
    """One row of the closing table: what each book writes when items of a
    task leave the queue this way."""

    status: str  #: the ``TaskStatus`` the task takes
    stat: str  #: the ``DeliveryStats`` field that moves ...
    per_item: bool  #: ... by the number of items closed (else by one: the task)
    counter: str  #: the obs counter that moves with it (``family``, + ``reason`` if any)
    ledger: str  #: the lineage-ledger state each item takes
    store: str  #: the ``BrokerStore`` entry point that logs each item's outcome


#: How an obligation leaves the pipeline: the one table ``DeliveryManager._close``
#: reads, so every book says the same thing.  (A pull drain later finishes a
#: ``parked`` row, item by item: ``DeliveryManager.drained``.)
CLOSING: dict[str, Closing] = {
    "delivered": Closing(
        TaskStatus.DELIVERED, "delivered", False, "delivery.delivered", "delivered", "task_delivered"
    ),
    "parked": Closing(
        TaskStatus.PARKED, "parked", True, "delivery.parked", "pending_pull", "items_parked"
    ),
    "shed": Closing(TaskStatus.SHED, "shed", True, "qos.shed_total", "shed", "items_shed"),
    "dead_lettered": Closing(
        TaskStatus.DEAD, "dead_lettered", False, "delivery.dead_lettered", "dead_lettered", "task_dead"
    ),
}


@dataclass
class DeliveryStats:
    """Aggregate pipeline accounting (virtual-clock deterministic)."""

    submitted: int = 0
    #: submissions carrying more than one coalesced notification (delivery
    #: batching or WSE wrapped batches) — each saved at least one request
    batched: int = 0
    delivered: int = 0
    attempts: int = 0
    retries: int = 0
    failed_attempts: int = 0
    parked: int = 0
    dead_lettered: int = 0
    replayed: int = 0
    expired: int = 0
    breaker_fast_fails: int = 0
    #: messages dropped by the adaptive QoS layer (bounded queues, box
    #: overflow) — every one also closed its obligation as ``shed``
    shed: int = 0
    #: attempts deferred because a token bucket was empty (load leveling)
    throttled: int = 0

    def snapshot(self) -> dict:
        return asdict(self)


class DeliveryManager:
    """Reliable delivery pipeline over one simulated network."""

    def __init__(
        self,
        network: SimulatedNetwork,
        *,
        policy: Optional[DeliveryPolicy] = None,
        seed: int = 0,
        message_boxes: Optional["MessageBoxRegistry"] = None,
        qos: Optional["AdaptiveQosController"] = None,
    ) -> None:
        self.network = network
        self.clock = network.clock
        self.policy = policy or DeliveryPolicy()
        self.scheduler = ClockScheduler(self.clock)
        #: jitter stream — forked per use-site label so unrelated draws
        #: cannot perturb each other's sequences
        self.rng = SeededRng(seed).fork("delivery.backoff")
        self.dlq = DeadLetterQueue()
        self.message_boxes = message_boxes
        if message_boxes is not None:
            message_boxes.on_drained = self.drained
        #: adaptive QoS controller: bounded queues, DiscardPolicy shedding
        #: and token-bucket pacing (None = the historical unbounded pipeline)
        self.qos = qos
        self.stats = DeliveryStats()
        #: called with the aggregate pending count whenever it may have
        #: moved (submits, drains, gauge sweeps) — WS-Messenger's publisher
        #: registrations hang their lag-driven demand pause / resume here
        self.backlog_listeners: list[Callable[[int], None]] = []
        #: durable broker store (set by BrokerStore.attach): records
        #: outcomes under the items' idempotency keys, and routes replayed
        #: submissions past obligations the log already settled
        self.store: Optional["BrokerStore"] = None
        self._queues: dict[str, deque[DeliveryTask]] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        #: ``len(open_breakers())``, kept by ``_breaker_step`` (sees every transition)
        self.breakers_open = 0
        self._wakeups: dict[str, float] = {}
        #: pre-bound per-family counters and the queue-lag histogram
        self._bound = BoundCounters()

    # --- intake ------------------------------------------------------------

    def submit(
        self,
        sink: str,
        send: Callable[[], None],
        *,
        items: Sequence[DeliveryItem] = (),
        family: str = "",
        priority: int = 0,
    ) -> DeliveryTask:
        """Queue one message for ``sink``; attempts immediately when the
        sink's queue is empty (the healthy-network fast path)."""
        instr = self.network.instrumentation
        store = self.store
        # the task's own list; each item already carries its publish's id
        item_list = list(items)
        lineage = next(
            (item.lineage for item in item_list if item.lineage is not None), None
        )
        task = DeliveryTask(
            sink=sink,
            send=send,
            items=item_list,
            family=family,
            # itemless control traffic still resumes under the span that
            # submitted it (e.g. a SubscriptionEnd inside a publish)
            lineage=lineage if lineage is not None else instr.trace_context(),
            enqueued_at=self.clock.now(),
            priority=priority,
        )
        if store is not None and store.replaying:
            resolution = store.resolve_replay(task)
            if resolution is not None:
                return self._apply_replay_resolution(task, resolution)
        self.stats.submitted += 1
        if len(item_list) > 1:
            self.stats.batched += 1
        self._bound.inc(instr, 1, "delivery.submitted", "family", family)
        self._ledger(item_list, "enqueued", sink=sink, family=family)
        self._enqueue(task)
        self._notify_backlog()
        return task

    def resubmit(self, task: DeliveryTask) -> DeliveryTask:
        """Re-queue a (dead-lettered) task with a fresh budget and TTL."""
        task.attempts = 0
        task.status = TaskStatus.QUEUED
        task.last_error = None
        task.delivered_at = None
        task.enqueued_at = self.clock.now()
        self.stats.replayed += 1
        self.network.instrumentation.count("delivery.replayed", family=task.family)
        self._ledger(task.items, "replayed", sink=task.sink)
        if self.store is not None:
            self.store.task_replayed(task)
        self._enqueue(task)
        return task

    def _apply_replay_resolution(
        self, task: DeliveryTask, resolution: tuple[str, str, float]
    ) -> DeliveryTask:
        """Settle a replayed submission the log already accounts for.

        No lineage events and no manager stats: the pre-crash ledger
        entries for these obligations still stand — emitting fresh ones
        would double the books the conservation audit balances."""
        verdict, reason, at = resolution
        store = self.store
        assert store is not None
        if verdict == "park":
            assert self.message_boxes is not None
            box = self.message_boxes.box_for(task.sink)
            owed = store.replay_park_items(task)
            for item in owed:
                box.park(item)
            task.status = TaskStatus.PARKED
            store.stats.reparked += len(owed)
        elif verdict == "dead":
            task.status = TaskStatus.DEAD
            task.last_error = reason
            self.dlq.add(task, reason, at)
            store.stats.redead += 1
        elif verdict == "shed":  # a QoS decision, settled for good: not a dead letter
            task.status = TaskStatus.SHED
            task.last_error = reason
            store.stats.suppressed += 1
        else:  # "suppress": every item already delivered or drained
            if reason == "drained":
                # re-mint the drained box in first-park order: the consumer
                # pulls at its address, and the next sink to park must not get it
                assert self.message_boxes is not None
                self.message_boxes.box_for(task.sink)
            task.status = TaskStatus.DELIVERED
            store.stats.suppressed += 1
        return task

    def _ledger(self, items: Sequence[DeliveryItem], state: str, **detail) -> None:
        """Ledger one transition for every lineage-bearing item."""
        instr = self.network.instrumentation
        if instr.enabled:
            for item in items:
                if item.lineage is not None:
                    instr.lineage_event(item.lineage.lineage_id, state, **detail)

    def _enqueue(self, task: DeliveryTask) -> None:
        queue = self._queues.setdefault(task.sink, deque())
        if self.qos is not None:
            admit, victims = self.qos.plan_admission(task.sink, queue, task)
            for victim in victims:
                queue.remove(victim)
                self._shed(victim, "queue_full")
            if not admit:
                self._shed(task, "queue_full")
                return
        queue.append(task)
        # drain now unless the head is already waiting on a scheduled retry
        # (len > 1 with no wakeup means we are inside this sink's drain loop)
        if task.sink not in self._wakeups and len(queue) == 1:
            self._drain_sink(task.sink)

    # --- the pump ----------------------------------------------------------

    def pending(self) -> int:
        """Messages still queued (excludes delivered/parked/dead)."""
        return sum(len(queue) for queue in self._queues.values())

    def run_due(self) -> int:
        """Run retries whose deadline has passed (clock advanced elsewhere)."""
        ran = self.scheduler.run_due()
        self.publish_gauges()
        self._notify_backlog()
        return ran

    def run_until_idle(self, *, deadline: Optional[float] = None) -> int:
        """Fast-forward the clock through every scheduled retry."""
        ran = self.scheduler.run_until_idle(deadline=deadline)
        self.publish_gauges()
        self._notify_backlog()
        return ran

    # --- internals ---------------------------------------------------------

    def _breaker_for(self, sink: str) -> CircuitBreaker:
        breaker = self._breakers.get(sink)
        if breaker is None:
            breaker = self._breakers[sink] = CircuitBreaker(
                self.clock,
                failure_threshold=self.policy.breaker_failure_threshold,
                reset_after=self.policy.breaker_reset_after,
            )
        return breaker

    def _wake_at(self, sink: str, when: float) -> None:
        existing = self._wakeups.get(sink)
        if existing is not None and existing <= when:
            return
        self._wakeups[sink] = when
        self.scheduler.call_at(when, lambda: self._on_wake(sink, when))

    def _on_wake(self, sink: str, when: float) -> None:
        if self._wakeups.get(sink) != when:
            return  # superseded by an earlier wake-up
        del self._wakeups[sink]
        self._drain_sink(sink)
        self._notify_backlog()

    def _breaker_step(self, instr, sink: str, breaker: CircuitBreaker, step: Callable):
        """Run one breaker operation; record the state transition it caused,
        if any, as a counter."""
        before = breaker.state
        result = step()
        after = breaker.state
        if after is not before:
            closed = BreakerState.CLOSED
            self.breakers_open += (after is not closed) - (before is not closed)
            if instr.enabled:
                instr.count("delivery.breaker_transitions", sink=sink, state=after.value)
        return result

    def _notify_backlog(self) -> None:
        if not self.backlog_listeners:
            return
        pending = self.pending()
        for listener in self.backlog_listeners:
            listener(pending)

    # --- closing an obligation ---------------------------------------------

    def _close(
        self, task: DeliveryTask, outcome: str, items: Sequence[DeliveryItem],
        reason: str = "", **detail: str,
    ) -> None:
        """Take ``items`` of ``task`` out of the pipeline as ``outcome``.

        The one place an obligation closes: the :data:`CLOSING` row says
        what each book records, and every book is written here, in one
        order — task status, stats, counter, then per item the ledger
        (``detail`` is extra event detail) and the store."""
        row = CLOSING[outcome]
        amount = len(items) if row.per_item else 1
        task.status = row.status
        stats = self.stats
        setattr(stats, row.stat, getattr(stats, row.stat) + amount)
        instr = self.network.instrumentation
        if reason:
            why = {"reason": reason}
            self._bound.inc(instr, amount, row.counter, "family", task.family, "reason", reason)
        else:
            why = {}
            self._bound.inc(instr, amount, row.counter, "family", task.family)
        detail.update(why)
        self._settle(row.ledger, row.store, task.sink, task.family, items, reason, detail)

    def drained(self, box: "MessageBox", batch: list[DeliveryItem], family: str) -> None:
        """A pull drain (in the ``family`` dialect) finishes what ``parked``
        began: the task's books were written then, each item closes now —
        ``delivered``, ``via=pull``."""
        self._settle("delivered", "items_drained", box.sink, family, batch, "", {"via": "pull"})

    def _settle(
        self, state: str, record: str, sink: str, family: str,
        items: Sequence[DeliveryItem], reason: str, detail: dict,
    ) -> None:
        """The per-item books of a close: ledger ``state``, store ``record``."""
        instr = self.network.instrumentation
        if instr.enabled:
            if state == "delivered":
                for item in items:
                    lineage = item.lineage
                    if lineage is not None:
                        instr.lineage_delivered(
                            lineage.lineage_id, family=family, hops=lineage.hop + 1,
                            sink=sink, **detail,
                        )
            else:
                self._ledger(items, state, sink=sink, **detail)
        if self.store is not None:
            getattr(self.store, record)(sink, items, reason)

    def _park(self, task: DeliveryTask) -> None:
        assert self.message_boxes is not None
        box = self.message_boxes.box_for(task.sink)
        parked: list[DeliveryItem] = []
        dropped: list[DeliveryItem] = []
        for item in task.items:
            (parked if box.park(item) else dropped).append(item)
        if parked:
            self._close(task, "parked", parked, box=box.address)
        if dropped:
            # box overflow: the item never reaches the box, so its
            # obligation must close here (``shed``) or the conservation
            # audit would find messages silently lost under overload
            self._close(task, "shed", dropped, "box_overflow")
            if parked:
                task.status = TaskStatus.PARKED  # what it parked is still owed

    def _shed(self, task: DeliveryTask, reason: str) -> None:
        """Drop one task by QoS decision, with its books kept straight:
        every item's obligation closes as ``shed`` and the drop is counted
        — graceful degradation must never be silent loss."""
        task.last_error = reason
        self._close(task, "shed", task.items, reason)

    def _dead_letter(self, task: DeliveryTask, reason: str) -> None:
        self.dlq.add(task, reason, self.clock.now())
        self._close(task, "dead_lettered", task.items, reason)

    def _drain_sink(self, sink: str) -> None:
        """Work the sink's queue head until empty or forced to wait."""
        instr = self.network.instrumentation
        while True:
            queue = self._queues.get(sink)
            if not queue:
                self._queues.pop(sink, None)
                return
            task = queue[0]
            now = self.clock.now()
            ttl = self.policy.message_ttl
            if ttl is not None and now - task.enqueued_at >= ttl:
                queue.popleft()
                self.stats.expired += 1
                self._dead_letter(task, "ttl_expired")
                continue
            breaker = self._breaker_for(sink)
            allowed = self._breaker_step(instr, sink, breaker, breaker.allows)
            parkable = self.message_boxes is not None and bool(task.items)
            if not allowed:
                # known-firewalled sinks store-and-forward straight away
                if parkable and self.message_boxes.get(sink) is not None:
                    queue.popleft()
                    self._park(task)
                    continue
                self.stats.breaker_fast_fails += 1
                instr.count("delivery.breaker_fast_fails", family=task.family)
                self._wake_at(sink, breaker.retry_at())
                return
            if self.qos is not None:
                ready_at = self.qos.attempt_delay(sink)
                if ready_at is not None:
                    # out of tokens: the queue holds the message and the
                    # wire stays quiet until the bucket refills
                    self.stats.throttled += 1
                    instr.count("qos.throttled_total", family=task.family)
                    self._wake_at(sink, ready_at)
                    return
            task.attempts += 1
            self.stats.attempts += 1
            self._bound.inc(instr, 1, "delivery.attempts", "family", task.family)
            if task.attempts > 1:
                self.stats.retries += 1
                self._bound.inc(instr, 1, "delivery.retries", "family", task.family)
            self._ledger(task.items, "attempted", n=task.attempts, sink=sink)
            try:
                # a first attempt inside the span that enqueued it sends under
                # that span (the wire injection reads its context); one whose
                # stack has lost it (a scheduler-fired retry, a timer-flushed
                # batch, a drain under another publish) re-parents there by
                # ``remote=``, so its header still names the enqueuing span
                lineage = task.lineage
                if lineage is not None and instr.trace_context() is lineage:
                    task.send()
                else:
                    with instr.span(
                        "delivery.attempt", remote=lineage, sink=sink,
                        family=task.family, attempt=str(task.attempts),
                    ):
                        task.send()
            except (NetworkError, SoapFault) as exc:
                task.last_error = f"{type(exc).__name__}: {exc}"
                self._breaker_step(instr, sink, breaker, breaker.record_failure)
                self.stats.failed_attempts += 1
                instr.count(
                    "delivery.failed_total",
                    family=task.family,
                    stage="attempt",
                    kind=type(exc).__name__,
                )
                if parkable and isinstance(exc, FirewallBlocked):
                    queue.popleft()
                    self._park(task)
                    continue
                if task.attempts >= self.policy.max_attempts:
                    queue.popleft()
                    self._dead_letter(task, "max_attempts")
                    continue
                delay = self.policy.backoff(task.attempts, self.rng)
                self._wake_at(
                    sink, max(self.clock.now() + delay, breaker.retry_at())
                )
                return
            except XmlCharacterError as exc:
                # the writer refused the payload: no attempt can ever succeed,
                # and the sink is not to blame (its breaker is left alone)
                task.last_error = f"{type(exc).__name__}: {exc}"
                queue.popleft()
                self._dead_letter(task, "unwritable")
                continue
            # success (the send itself advanced the clock by the RTT)
            self._breaker_step(instr, sink, breaker, breaker.record_success)
            queue.popleft()
            task.delivered_at = delivered_at = self.clock.now()
            self._bound.observe(
                instr, delivered_at - task.enqueued_at,
                "delivery.queue_lag_seconds", "family", task.family,
            )
            self._close(task, "delivered", task.items)

    # --- introspection -----------------------------------------------------

    def open_breakers(self) -> list[str]:
        return sorted(
            sink
            for sink, breaker in self._breakers.items()
            if breaker.state is not BreakerState.CLOSED
        )

    def breaker_state(self, sink: str) -> str:
        breaker = self._breakers.get(sink)
        return breaker.state.value if breaker else BreakerState.CLOSED.value

    def publish_gauges(self) -> None:
        """Point-in-time pipeline depth gauges for the obs layer."""
        instr = self.network.instrumentation
        if not instr.enabled:
            return
        instr.gauge("delivery.pending", self.pending())
        instr.gauge("delivery.dlq_depth", len(self.dlq))
        instr.gauge(
            "delivery.parked_pending",
            self.message_boxes.total_parked() if self.message_boxes else 0,
        )
        instr.gauge("delivery.breakers_open", self.breakers_open)
