"""Per-sink circuit breakers on the virtual clock.

A sink that has failed several deliveries in a row is overwhelmingly likely
to fail the next one too; hammering it wastes wire budget and — in the
synchronous simulation as in a real broker thread pool — delays every other
sink behind it.  The breaker is the classic three-state machine:

* **closed** — deliveries flow; consecutive failures are counted.
* **open** — tripped after ``failure_threshold`` consecutive failures; all
  attempts fast-fail locally (no wire traffic) until ``reset_after`` virtual
  seconds have passed.
* **half-open** — the first attempt after the cool-down is let through as a
  probe; success closes the breaker, failure re-opens it for another full
  cool-down.

All timing comes from the :class:`~repro.transport.clock.VirtualClock`, so
breaker trajectories are deterministic and assertable in tests.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from repro.transport.clock import VirtualClock


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """One sink's breaker; the :class:`DeliveryManager` keys these by address."""

    def __init__(
        self,
        clock: VirtualClock,
        *,
        failure_threshold: int = 5,
        reset_after: float = 60.0,
    ) -> None:
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        #: (virtual time, new state) — introspection for tests and reports
        self.transitions: list[tuple[float, str]] = []

    def _move(self, state: BreakerState) -> None:
        self.state = state
        self.transitions.append((self.clock.now(), state.value))

    def allows(self) -> bool:
        """May an attempt go out right now?  Transitions OPEN → HALF_OPEN
        when the cool-down has elapsed (the caller's attempt is the probe)."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            assert self.opened_at is not None
            # compare against the exact float retry_at() hands to the wake
            # scheduler: (opened_at + reset_after) - opened_at can round to
            # just under reset_after, and a subtraction-based test then spins
            # the manager on same-instant wakes forever
            if self.clock.now() >= self.opened_at + self.reset_after:
                self._move(BreakerState.HALF_OPEN)
                return True
            return False
        return True  # HALF_OPEN: the probe is in the caller's hands

    def retry_at(self) -> float:
        """Earliest virtual time an attempt could be allowed again."""
        if self.state is BreakerState.OPEN:
            assert self.opened_at is not None
            return self.opened_at + self.reset_after
        return self.clock.now()

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self._move(BreakerState.CLOSED)
        self.opened_at = None

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            # the probe failed: straight back to open, fresh cool-down
            self.opened_at = self.clock.now()
            self._move(BreakerState.OPEN)
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.opened_at = self.clock.now()
            self._move(BreakerState.OPEN)
