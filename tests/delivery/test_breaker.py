"""The per-sink circuit breaker state machine on the virtual clock."""

from repro.delivery import BreakerState, CircuitBreaker
from repro.transport import VirtualClock


def make(clock=None, threshold=3, reset=10.0):
    clock = clock or VirtualClock()
    return clock, CircuitBreaker(clock, failure_threshold=threshold, reset_after=reset)


class TestCircuitBreaker:
    def test_starts_closed_and_allowing(self):
        _, breaker = make()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allows()

    def test_trips_open_at_threshold(self):
        _, breaker = make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allows()

    def test_success_resets_the_failure_count(self):
        _, breaker = make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_opens_after_cooldown(self):
        clock, breaker = make(threshold=1, reset=10.0)
        breaker.record_failure()
        assert not breaker.allows()
        clock.advance(9.999)
        assert not breaker.allows()
        clock.advance(0.001)
        assert breaker.allows()  # the probe
        assert breaker.state is BreakerState.HALF_OPEN

    def test_probe_success_closes(self):
        clock, breaker = make(threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allows()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        clock, breaker = make(threshold=1, reset=10.0)
        breaker.record_failure()  # opens at t=0
        clock.advance(10.0)
        assert breaker.allows()  # half-open at t=10
        breaker.record_failure()  # re-opens at t=10
        assert breaker.state is BreakerState.OPEN
        assert breaker.retry_at() == 20.0
        clock.advance(9.0)
        assert not breaker.allows()
        clock.advance(1.0)
        assert breaker.allows()

    def test_retry_at_while_open(self):
        clock, breaker = make(threshold=1, reset=10.0)
        clock.advance(5.0)
        breaker.record_failure()
        assert breaker.retry_at() == 15.0

    def test_transitions_are_recorded_with_timestamps(self):
        clock, breaker = make(threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        breaker.allows()
        breaker.record_success()
        assert [s for _, s in breaker.transitions] == ["open", "half_open", "closed"]
        assert [t for t, _ in breaker.transitions] == [0.0, 10.0, 10.0]
