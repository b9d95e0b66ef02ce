"""The one fan-out pipeline every specification family runs on.

The paper's Table 2 maps WS-Eventing and WS-Notification operations almost
one-to-one, and section VII serves both from one broker; what differs between
the families is how a notification is *rendered* (wrapped Notify / raw /
WSE push with a topic header / wrapped ``Notifications``), what a resume
*delivers* and what the faults are *called*.  Whether a match is pushed,
parked or held for a wrapped batch, and when a held batch leaves, is not a
family difference: it is the one route of
:class:`~repro.subscriptions.SubscriptionService`.  The subscriptions
themselves are :mod:`repro.subscriptions`'; everything else about a
publication is here, once, as three stages.  A publication travels them as
one value, the :class:`~repro.delivery.task.DeliveryItem` the route makes
before matching: the same item is routed to every match, parked (bare: a
drain stamps its own lineage), rendered and settled.

1. :meth:`Fanout.publish` — publish framing: origin detection, the
   ``<family>.publish`` span that mints the lineage, the ``published`` ledger
   record and ``notifications.matched``;
2. :meth:`Fanout.match` — the only candidate loop: expiry sweep, topic/content
   index lookup, the ``fanout.*`` counters, the full filter of the keys the
   index does not decide (its admission is final for the rest); survivors
   come out lazily, in subscription order, so liveness is checked at each
   one's turn;
3. :meth:`Fanout.settle` — one wire attempt, opening no span of its own (the
   client's ``deliver`` span and the lineage header it sends are the trace)
   and counted per *item* (the items the attempt renders, not copies of them),
   handed to the :class:`DeliveryManager` when there is one
   and otherwise made at once through :func:`repro.delivery.outcome.attempt_directly`,
   which writes the obligation ledger as one state sequence: ``enqueued ->
   attempted -> delivered | failed`` (the manager adds ``dead_lettered`` and
   ``shed``).  SubscriptionEnd and TerminationNotification take the same road
   with no items.

Best-effort delivery is deliberately still the ``manager is None`` branch of
``settle`` and not a single-shot-policy manager: see DESIGN.md, "The
fan-out pipeline", for the ladder numbers that decide it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from repro.delivery.outcome import DeliveryFailure, attempt_directly, record_failure
from repro.delivery.task import DeliveryItem
from repro.filters.base import FilterContext, admits
from repro.obs.instrument import BoundCounters
from repro.transport.network import SimulatedNetwork
from repro.xmlkit.element import XElem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delivery.manager import DeliveryManager
    from repro.subscriptions import Subscription, SubscriptionManager


def freeze_once(payload: XElem, instr, bound: BoundCounters, family: str) -> XElem:
    """The frozen instance every match of one publish shares: a frozen tree (a
    reader's, the door's) as it is, a mutable one (a publisher's) copied once."""
    if payload.frozen:
        return payload
    if instr.enabled:
        bound.inc(instr, 1, "fanout.payload_copies", "family", family)
    return payload.copy().freeze()


class Fanout:
    """The pipeline, bound to one producer / event source.

    The owner's :class:`~repro.subscriptions.SubscriptionManager` supplies
    the records, their expiry sweep and the index it keeps current.
    """

    def __init__(
        self,
        network: SimulatedNetwork,
        *,
        family: str,
        version_tag: str,
        role: str,
        address: str,
        subscriptions: "SubscriptionManager",
        manager: Optional["DeliveryManager"],
        failures: list[DeliveryFailure],
    ) -> None:
        self.network = network
        self.family = family
        self.version_tag = version_tag
        #: how the owner names itself on spans and ledger records
        #: (``producer=<address>`` / ``source=<address>``)
        self._origin = {role: address}
        self.subscriptions = subscriptions
        self.manager = manager
        self.failures = failures
        self._bound = BoundCounters()

    def _count_notifications(self, instr, name: str, amount: int) -> None:
        self._bound.inc(instr, amount, name, "family", self.family, "version", self.version_tag)

    # --- stage 1: publish framing --------------------------------------------------

    def publish(self, fan_out: Callable[..., int], *args, **span_attrs: str) -> int:
        """Run ``fan_out(*args)`` — the frame's route, which returns how many
        subscriptions matched — as one publication."""
        instr = self.network.instrumentation
        if not instr.enabled:
            return fan_out(*args)
        # a publish arriving with no live lineage is a true origin (mint a
        # fresh one); with one — e.g. the broker backbone re-publishing a
        # mediated message — it stays inside the existing trace
        originating = instr.trace_context() is None
        with instr.span(
            self.family + ".publish", mint=True,
            **self._origin, version=self.version_tag, **span_attrs,
        ) as span:
            if originating:
                # direct ledger write: mint=True guarantees span.lineage, so
                # the lineage_event() None-guard and kwargs repack are skipped
                instr._ledger_record(
                    span.lineage, "published", **self._origin, family=self.family
                )
            matched = fan_out(*args)
        self._count_notifications(instr, "notifications.matched", matched)
        return matched

    # --- stage 2: match ------------------------------------------------------------------

    def freeze(self, payload: XElem) -> XElem:
        return freeze_once(payload, self.network.instrumentation, self._bound, self.family)

    def match(self, context: FilterContext) -> Iterator["Subscription"]:
        """The live subscriptions whose filter admits this publication."""
        instr = self.network.instrumentation
        family = self.family
        if not self.subscriptions.restoring:  # log replay sweeps nothing
            self.subscriptions.sweep_due()
        index = self.subscriptions.index
        # the topic's one parse is the context's, made only if a key has a topic expression
        path = context.topic_path if context.topic is not None and index.topical else None
        candidates = index.candidates(path, context.payload)
        evals_counter = None
        if instr.enabled:
            bound = self._bound
            if index.content_evals:
                bound.inc(instr, index.content_evals, "fanout.xpath_evals", "family", family)
            bound.inc(instr, len(candidates), "fanout.index_hits", "family", family)
            skipped = len(self.subscriptions.records) - len(candidates)
            if skipped > 0:
                bound.inc(instr, skipped, "fanout.index_skips", "family", family)
            # one increment per residual filter run, via one handle
            evals_counter = bound.get(instr, "fanout.filter_evals", "family", family)
        # the index's admission is final except for these keys
        residual = index.residual
        if index.undecided:
            residual = residual | index.undecided
        records, now = self.subscriptions.records, self.network.clock.now
        # a replayed publish is judged at the time it was logged
        at = self.manager.store.replay_at if self.subscriptions.restoring else None
        for key in candidates:
            subscription = records.get(key)
            if subscription is None:
                continue
            expires = subscription.termination_time
            if expires is not None and (now() if at is None else at) >= expires:
                continue
            if key in residual:
                if evals_counter is not None:
                    evals_counter.inc()
                if not admits(subscription.filter, context, instr, family, key):
                    continue
            yield subscription

    # --- stage 3: settle -----------------------------------------------------------------

    def settle(
        self,
        sink: str,
        send: Callable[..., None],
        args: tuple,
        items: Sequence[DeliveryItem] = (),
        *,
        stage: str = "notify",
        priority: int = 0,
        on_failed: Optional[Callable[..., None]] = None,
    ) -> None:
        """Get one message to ``sink``: ``send(*args)`` is exactly one wire
        attempt (raising ``NetworkError`` / ``SoapFault``), ``items`` are the
        notifications it carries (none for an end / termination notice).

        With a delivery manager the attempt is submitted and the pipeline owns
        retries, dead-lettering and the firewall fallback — a failed attempt
        never ends the subscription.  Without one the obligation opens and
        closes in the one direct attempt, and a failure is handed to
        ``on_failed(exc, *args)`` so the owner ends the subscription in its
        own vocabulary.
        """
        network = self.network
        family = self.family
        n = len(items)

        def attempt() -> None:
            send(*args)
            instr = network.instrumentation
            if n and instr.enabled:
                self._count_notifications(instr, "notifications.delivered", n)

        if self.manager is not None:
            self.manager.submit(sink, attempt, items=items, family=family, priority=priority)
            return
        instr = network.instrumentation
        exc = attempt_directly(
            instr, attempt, sink, family,
            [item.lineage for item in items if item.lineage is not None],
        )
        if exc is not None:
            if n and instr.enabled:
                self._count_notifications(instr, "notifications.failed", n)
            # recorded, never swallowed — even when the sink is the thing
            # that died (delivery.failed_total)
            record_failure(
                self.failures, instr, at=network.clock.now(),
                family=family, stage=stage, sink=sink, error=exc,
            )
            if on_failed is not None:
                on_failed(exc, *args)
