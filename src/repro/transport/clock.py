"""Virtual time.

Subscription expiry ("soft state" in the paper's section VI observation 5),
message latency and lease renewal are all driven by one explicit clock so
tests and benchmarks are deterministic and can fast-forward time.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional


class VirtualClock:
    """A monotonically advancing simulated clock, in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new time."""
        if seconds < 0:
            raise ValueError("the clock cannot run backwards")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        if timestamp < self._now:
            raise ValueError(
                f"cannot rewind clock from {self._now} to {timestamp}"
            )
        self._now = timestamp
        return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(t={self._now:.3f})"


class ClockScheduler:
    """Deferred callbacks on a :class:`VirtualClock`.

    The simulation is synchronous, so nothing fires spontaneously: callbacks
    scheduled for the future run when the owner *pumps* the scheduler —
    either :meth:`run_due` after the clock has been advanced externally, or
    :meth:`run_until_idle`, which repeatedly fast-forwards the clock to the
    next deadline.  Ties break in insertion order (a monotonic sequence
    number), so two tasks due at the same instant always run in the order
    they were scheduled — one of the determinism guarantees the delivery
    benchmarks assert byte-for-byte.
    """

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the clock reaches ``when`` (clamped to now)."""
        heapq.heappush(
            self._heap, (max(when, self.clock.now()), next(self._seq), callback)
        )

    def run_due(self) -> int:
        """Run every callback whose deadline has passed; returns how many."""
        ran = 0
        while self._heap and self._heap[0][0] <= self.clock.now():
            _, _, callback = heapq.heappop(self._heap)
            callback()
            ran += 1
        return ran

    def run_until_idle(self, *, deadline: Optional[float] = None) -> int:
        """Advance the clock deadline-to-deadline until nothing is scheduled
        (or the next deadline lies beyond ``deadline``); returns runs."""
        ran = self.run_due()
        while self._heap:
            when = self._heap[0][0]
            if deadline is not None and when > deadline:
                break
            self.clock.advance_to(when)
            ran += self.run_due()
        return ran
