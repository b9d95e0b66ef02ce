"""Message lineage: a ledger of every notification's life, keyed by lineage id.

Spans (:mod:`repro.obs.tracing`) answer *where time went*; the ledger
answers *where the messages went*.  Every state transition a notification
makes on its way from publish to a terminal state is recorded as an event
under its lineage id::

    published → mediated → enqueued → attempted(n) → delivered
                                                   | dead_lettered
                                                   | failed
                                                   | shed
                                                   | pending_pull → delivered(via=pull)

Accounting is in units of **delivery obligations** — one per (lineage,
sink) pair the fan-out decides to serve.  ``enqueued`` (or a DLQ
``replayed``) opens an obligation; ``delivered``, ``dead_lettered``,
``failed`` and ``shed`` close one; ``pending_pull`` marks one as parked
behind a firewall awaiting a pull drain.  ``shed`` is the adaptive-QoS
terminal state: the broker *chose* to drop the message (bounded-queue
overflow, message-box overflow) — an accounted decision, not a silent
loss.  The conservation auditor (:mod:`repro.obs.audit`) checks that
these books balance.

``queued``, ``mediated`` and ``filter_error`` are informational (no
obligation): ``mediated`` marks a broker translating the message between
spec families, ``queued`` marks payloads buffered inside a pull/wrapped-mode
subscription queue that does not carry per-item lineage, ``filter_error``
marks a subscription whose filter failed to evaluate on this message and so
did not match it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: states that open a delivery obligation for (lineage, sink)
OPENING_STATES = frozenset({"enqueued", "replayed"})
#: terminal states that close an obligation (``shed`` = the broker's own
#: QoS decision to drop, distinct from give-up-after-retries dead-letters)
CLOSING_STATES = frozenset({"delivered", "dead_lettered", "failed", "shed"})

#: every state the ledger accepts (guards against typo'd call sites)
KNOWN_STATES = frozenset(
    {
        "published",
        "mediated",
        "queued",
        "attempted",
        "pending_pull",
        "filter_error",
    }
    | OPENING_STATES
    | CLOSING_STATES
)


class LineageEvent:
    """One state transition, stamped on the virtual clock.

    A ``__slots__`` record: several events are appended per notification
    (enqueued / attempted / delivered, per sink), so construction cost is
    part of the instrumented hot path.
    """

    __slots__ = ("at", "state", "detail")

    def __init__(self, at: float, state: str, detail: dict) -> None:
        self.at = at
        self.state = state
        self.detail = detail

    def __repr__(self) -> str:
        return f"LineageEvent(at={self.at!r}, state={self.state!r}, detail={self.detail!r})"

    def to_dict(self) -> dict:
        record = {"at": round(self.at, 9), "state": self.state}
        record.update({k: self.detail[k] for k in sorted(self.detail)})
        return record


@dataclass
class LineageAccount:
    """The obligation books of one lineage, derived from its events."""

    opened: int = 0
    delivered: int = 0
    dead_lettered: int = 0
    failed: int = 0
    shed: int = 0
    parked: int = 0
    pulled: int = 0
    attempts: int = 0

    @property
    def closed(self) -> int:
        return self.delivered + self.dead_lettered + self.failed + self.shed

    @property
    def pending(self) -> int:
        """Obligations opened but not yet closed (queued, parked or retrying)."""
        return self.opened - self.closed

    @property
    def parked_outstanding(self) -> int:
        """Parked obligations not yet drained by pull."""
        return self.parked - self.pulled

    def to_dict(self) -> dict:
        return {
            "opened": self.opened,
            "delivered": self.delivered,
            "dead_lettered": self.dead_lettered,
            "failed": self.failed,
            "shed": self.shed,
            "pending": self.pending,
            "parked_outstanding": self.parked_outstanding,
            "attempts": self.attempts,
        }


class LineageLedger:
    """Append-only event log per lineage id, on the virtual clock."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self._now = clock.now  # pre-bound: read once per recorded event
        self.events: dict[str, list[LineageEvent]] = {}
        # publish-time index: read once per delivered obligation for the
        # latency SLO, so keep it O(1) instead of scanning the event list
        self._published_at: dict[str, float] = {}

    def record(self, lineage_id: str, state: str, **detail) -> None:
        if state not in KNOWN_STATES:
            raise ValueError(f"unknown lineage state: {state!r}")
        event = LineageEvent(self._now(), state, detail)
        events = self.events.get(lineage_id)
        if events is None:
            events = self.events[lineage_id] = []
        events.append(event)
        if state == "published" and lineage_id not in self._published_at:
            self._published_at[lineage_id] = event.at

    def lineages(self) -> list[str]:
        return sorted(self.events)

    def events_of(self, lineage_id: str) -> list[LineageEvent]:
        return list(self.events.get(lineage_id, ()))

    def published_at(self, lineage_id: str) -> float | None:
        return self._published_at.get(lineage_id)

    def account_of(self, lineage_id: str) -> LineageAccount:
        account = LineageAccount()
        for event in self.events.get(lineage_id, ()):
            if event.state in OPENING_STATES:
                account.opened += 1
            elif event.state == "delivered":
                account.delivered += 1
                if event.detail.get("via") == "pull":
                    account.pulled += 1
            elif event.state == "dead_lettered":
                account.dead_lettered += 1
            elif event.state == "failed":
                account.failed += 1
            elif event.state == "shed":
                account.shed += 1
            elif event.state == "pending_pull":
                account.parked += 1
            elif event.state == "attempted":
                account.attempts += 1
        return account

    def totals(self) -> LineageAccount:
        total = LineageAccount()
        for lineage_id in self.events:
            account = self.account_of(lineage_id)
            total.opened += account.opened
            total.delivered += account.delivered
            total.dead_lettered += account.dead_lettered
            total.failed += account.failed
            total.shed += account.shed
            total.parked += account.parked
            total.pulled += account.pulled
            total.attempts += account.attempts
        return total

    def snapshot(self) -> dict:
        """Deterministic dict: per-lineage event lists + accounting."""
        return {
            lineage_id: {
                "events": [e.to_dict() for e in events],
                "account": self.account_of(lineage_id).to_dict(),
            }
            for lineage_id, events in sorted(self.events.items())
        }

    def reset(self) -> None:
        self.events = {}
        self._published_at = {}

    def __len__(self) -> int:
        return len(self.events)
