"""The dead-letter queue: where messages go instead of vanishing.

A message whose attempt budget or TTL is exhausted is *not* dropped — it is
parked here with the reason and its full attempt history, introspectable by
operators (``entries``) and replayable once the sink recovers
(:meth:`DeadLetterQueue.replay` re-submits through the owning manager with a
fresh attempt budget).  This is the disconnection-tolerant redelivery the
CORBA-services experience report identifies as the distinguishing feature of
a production notification service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.delivery.task import DeliveryTask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delivery.manager import DeliveryManager


@dataclass
class DeadLetter:
    """One dead-lettered task plus why and when it died."""

    task: DeliveryTask
    reason: str  # "max_attempts" | "ttl_expired" | "unwritable" | explicit park reason
    dead_at: float


class DeadLetterQueue:
    """Terminal parking for undeliverable messages, with replay."""

    def __init__(self) -> None:
        self.entries: list[DeadLetter] = []
        #: total ever dead-lettered (replay drains ``entries`` but not this)
        self.total = 0

    def add(self, task: DeliveryTask, reason: str, now: float) -> DeadLetter:
        letter = DeadLetter(task, reason, now)
        self.entries.append(letter)
        self.total += 1
        return letter

    def __len__(self) -> int:
        return len(self.entries)

    def replay(self, manager: "DeliveryManager", *, sink: Optional[str] = None) -> int:
        """Re-submit dead letters through ``manager`` with fresh budgets.

        ``sink`` restricts replay to one consumer.  Replayed entries leave
        the DLQ immediately — a replay that fails again simply dead-letters
        again, so nothing is ever double-queued.  Returns the number of
        re-submitted messages.
        """
        chosen: list[DeadLetter] = []
        kept: list[DeadLetter] = []
        for letter in self.entries:
            (chosen if sink is None or letter.task.sink == sink else kept).append(letter)
        self.entries = kept
        for letter in chosen:
            manager.resubmit(letter.task)
        return len(chosen)
