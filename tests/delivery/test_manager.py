"""The delivery manager: retries, ordering, DLQ, breakers, determinism."""

from repro.delivery import (
    DeliveryItem,
    DeliveryManager,
    DeliveryPolicy,
    MessageBoxRegistry,
    TaskStatus,
)
from repro.transport import FirewallBlocked, MessageLost, SimulatedNetwork, VirtualClock
from repro.xmlkit import parse_xml


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:dm"><e:n>{n}</e:n></e:V>')


class FlakySend:
    """Fails the first ``failures`` calls, then succeeds; counts calls."""

    def __init__(self, failures=0, error=MessageLost):
        self.failures = failures
        self.error = error
        self.calls = 0
        self.delivered = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error("injected")
        self.delivered += 1


def make_manager(policy=None, seed=0, boxes=False):
    network = SimulatedNetwork(VirtualClock())
    registry = MessageBoxRegistry(network, "http://broker/msgbox") if boxes else None
    manager = DeliveryManager(
        network, policy=policy or DeliveryPolicy(), seed=seed, message_boxes=registry
    )
    return network, manager


class TestHappyPath:
    def test_first_attempt_is_synchronous(self):
        _, manager = make_manager()
        send = FlakySend()
        task = manager.submit("http://sink", send)
        assert send.calls == 1
        assert task.status is TaskStatus.DELIVERED
        assert manager.pending() == 0
        assert manager.stats.delivered == 1

    def test_retry_recovers_after_backoff(self):
        network, manager = make_manager(
            DeliveryPolicy(max_attempts=5, base_backoff=1.0, jitter=0.0)
        )
        send = FlakySend(failures=2)
        task = manager.submit("http://sink", send)
        assert task.status is TaskStatus.QUEUED
        assert manager.pending() == 1
        manager.run_until_idle()
        assert task.status is TaskStatus.DELIVERED
        assert send.calls == 3
        assert manager.stats.retries == 2
        # backoff 1.0 then 2.0 on the virtual clock
        assert network.clock.now() == 3.0

    def test_run_due_only_runs_elapsed_deadlines(self):
        network, manager = make_manager(
            DeliveryPolicy(max_attempts=5, base_backoff=5.0, jitter=0.0)
        )
        send = FlakySend(failures=1)
        manager.submit("http://sink", send)
        assert manager.run_due() == 0  # retry is due at t=5, clock at 0
        network.clock.advance(5.0)
        assert manager.run_due() == 1
        assert send.delivered == 1

    def test_per_sink_queue_preserves_publish_order(self):
        _, manager = make_manager(
            DeliveryPolicy(max_attempts=5, base_backoff=1.0, jitter=0.0)
        )
        order = []
        fail_first = [True]

        def send_a():
            if fail_first[0]:
                fail_first[0] = False
                raise MessageLost("injected")
            order.append("a")

        manager.submit("http://sink", send_a)
        manager.submit("http://sink", lambda: order.append("b"))
        manager.submit("http://sink", lambda: order.append("c"))
        # "b"/"c" must wait behind the retrying head, not overtake it
        assert order == []
        manager.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_independent_sinks_do_not_block_each_other(self):
        _, manager = make_manager(
            DeliveryPolicy(max_attempts=5, base_backoff=1.0, jitter=0.0)
        )
        stuck = FlakySend(failures=3)
        fine = FlakySend()
        manager.submit("http://stuck", stuck)
        manager.submit("http://fine", fine)
        assert fine.delivered == 1  # delivered synchronously despite the other sink


class TestDeadLetters:
    def test_exhausted_budget_dead_letters(self):
        _, manager = make_manager(
            DeliveryPolicy(max_attempts=3, base_backoff=1.0, jitter=0.0)
        )
        send = FlakySend(failures=99)
        task = manager.submit("http://sink", send, family="wsn")
        manager.run_until_idle()
        assert task.status is TaskStatus.DEAD
        assert send.calls == 3
        assert len(manager.dlq) == 1
        assert manager.dlq.entries[0].reason == "max_attempts"
        assert manager.stats.dead_lettered == 1
        # three failures, under the default threshold of five: counted, not open
        assert manager._breakers["http://sink"].consecutive_failures == 3

    def test_ttl_expiry_dead_letters_without_further_attempts(self):
        _, manager = make_manager(
            DeliveryPolicy(
                max_attempts=10, base_backoff=10.0, jitter=0.0, message_ttl=5.0
            )
        )
        send = FlakySend(failures=99)
        task = manager.submit("http://sink", send)
        manager.run_until_idle()  # retry wakes at t=10, past the 5s TTL
        assert task.status is TaskStatus.DEAD
        assert send.calls == 1
        assert manager.dlq.entries[0].reason == "ttl_expired"
        assert manager.stats.expired == 1

    def test_replay_redelivers_with_fresh_budget(self):
        _, manager = make_manager(
            DeliveryPolicy(max_attempts=2, base_backoff=1.0, jitter=0.0)
        )
        send = FlakySend(failures=2)  # dies under a 2-attempt budget...
        task = manager.submit("http://sink", send)
        manager.run_until_idle()
        assert task.status is TaskStatus.DEAD
        replayed = manager.dlq.replay(manager)
        manager.run_until_idle()
        assert replayed == 1
        assert len(manager.dlq) == 0
        assert task.status is TaskStatus.DELIVERED  # ...but the replay lands
        assert manager.stats.replayed == 1

    def test_replay_can_select_a_sink(self):
        _, manager = make_manager(DeliveryPolicy(max_attempts=1))
        manager.submit("http://a", FlakySend(failures=1))  # recovers on replay
        manager.submit("http://b", FlakySend(failures=9))
        assert len(manager.dlq) == 2
        assert manager.dlq.replay(manager, sink="http://a") == 1
        assert [d.task.sink for d in manager.dlq.entries] == ["http://b"]


class TestBreaker:
    def test_breaker_opens_and_fast_fails_without_wire_attempts(self):
        _, manager = make_manager(
            DeliveryPolicy(
                max_attempts=2,
                base_backoff=1.0,
                jitter=0.0,
                breaker_failure_threshold=2,
                breaker_reset_after=10.0,
            )
        )
        dead = FlakySend(failures=99)
        manager.submit("http://sink", dead)
        manager.run_until_idle()  # 2 failures: task dead, breaker open
        assert manager.breaker_state("http://sink") == "open"
        probe = FlakySend()
        manager.submit("http://sink", probe)
        assert probe.calls == 0  # fast-failed locally, nothing sent
        assert manager.stats.breaker_fast_fails == 1

    def test_half_open_probe_recovers_the_sink(self):
        network, manager = make_manager(
            DeliveryPolicy(
                max_attempts=2,
                base_backoff=1.0,
                jitter=0.0,
                breaker_failure_threshold=2,
                breaker_reset_after=10.0,
            )
        )
        manager.submit("http://sink", FlakySend(failures=99))
        manager.run_until_idle()
        probe = FlakySend()
        task = manager.submit("http://sink", probe)
        manager.run_until_idle()  # clock passes the cool-down, probe goes out
        assert task.status is TaskStatus.DELIVERED
        assert probe.calls == 1
        assert manager.breaker_state("http://sink") == "closed"
        assert manager.open_breakers() == []

    def test_open_breakers_lists_tripped_sinks(self):
        _, manager = make_manager(
            DeliveryPolicy(max_attempts=1, breaker_failure_threshold=1)
        )
        manager.submit("http://bad", FlakySend(failures=9))
        manager.submit("http://good", FlakySend())
        assert manager.open_breakers() == ["http://bad"]

    def test_the_open_count_tracks_every_transition(self):
        from repro.obs.instrument import Instrumentation

        network, manager = make_manager(
            DeliveryPolicy(
                max_attempts=3, base_backoff=1.0, jitter=0.0,
                breaker_failure_threshold=2, breaker_reset_after=4.0,
            )
        )
        instrumentation = Instrumentation.attach(network)

        def flapping(period):
            calls = [0]

            def send():
                calls[0] += 1
                if (calls[0] // period) % 2 == 0:
                    raise MessageLost("flap")

            return send

        sends = {f"http://dead-{n}": FlakySend(failures=10**6) for n in range(2)}
        sends.update({f"http://flap-{n}": flapping(2 + n) for n in range(3)})
        sends["http://good"] = FlakySend()
        seen = set()
        for _ in range(40):
            for sink, send in sends.items():
                manager.submit(sink, send)
            network.clock.advance(1.5)
            for drain in (manager.run_due, manager.run_until_idle):
                drain()
                assert manager.breakers_open == len(manager.open_breakers())
                gauges = instrumentation.metrics.snapshot()["gauges"]
                assert gauges["delivery.breakers_open"] == manager.breakers_open
                seen.add(manager.breakers_open)
        # the run opened breakers, closed some again and never left the books
        assert len(seen) > 2 and 0 < max(seen) <= len(sends) - 1


class TestFirewallParking:
    def test_firewall_blocked_parks_content_in_message_box(self):
        _, manager = make_manager(boxes=True)
        send = FlakySend(failures=99, error=FirewallBlocked)
        task = manager.submit(
            "http://fw-sink",
            send,
            items=[DeliveryItem(event(1), "t")],
            family="wsn",
        )
        assert task.status is TaskStatus.PARKED
        assert send.calls == 1  # parked on the first block, no retry storm
        box = manager.message_boxes.get("http://fw-sink")
        assert box is not None and len(box) == 1
        assert manager.stats.parked == 1

    def test_open_breaker_plus_existing_box_parks_without_wire(self):
        _, manager = make_manager(
            DeliveryPolicy(breaker_failure_threshold=1), boxes=True
        )
        send = FlakySend(failures=99, error=FirewallBlocked)
        manager.submit("http://fw-sink", send, items=[DeliveryItem(event(1))])
        # breaker tripped and a box exists: later messages park straight away
        manager.submit("http://fw-sink", send, items=[DeliveryItem(event(2))])
        assert send.calls == 1
        assert len(manager.message_boxes.get("http://fw-sink")) == 2

    def test_content_free_task_is_not_parkable(self):
        _, manager = make_manager(DeliveryPolicy(max_attempts=2, jitter=0.0), boxes=True)
        send = FlakySend(failures=99, error=FirewallBlocked)
        task = manager.submit("http://fw-sink", send)  # control message, no items
        manager.run_until_idle()
        assert task.status is TaskStatus.DEAD
        assert manager.message_boxes.get("http://fw-sink") is None

    def test_without_registry_firewall_blocked_is_an_ordinary_failure(self):
        _, manager = make_manager(DeliveryPolicy(max_attempts=2, jitter=0.0))
        send = FlakySend(failures=99, error=FirewallBlocked)
        task = manager.submit("http://fw-sink", send, items=[DeliveryItem(event())])
        manager.run_until_idle()
        assert task.status is TaskStatus.DEAD


class TestDeterminism:
    def run_scenario(self, seed):
        network, manager = make_manager(
            DeliveryPolicy(max_attempts=6, base_backoff=0.5, jitter=0.3), seed=seed
        )
        tasks = [
            manager.submit(f"http://sink-{n}", FlakySend(failures=failures))
            for n, failures in enumerate([3, 1, 4])
        ]
        manager.run_until_idle()
        return [task.delivered_at for task in tasks], manager.stats.snapshot()

    def test_same_seed_same_retry_schedule(self):
        assert self.run_scenario(42) == self.run_scenario(42)

    def test_different_seed_different_jitter(self):
        times_a, _ = self.run_scenario(1)
        times_b, _ = self.run_scenario(2)
        assert times_a != times_b


class TestIntrospection:
    def test_delivery_metrics_flow_into_instrumentation(self):
        from repro.obs.instrument import Instrumentation

        network, manager = make_manager(DeliveryPolicy(max_attempts=1))
        instrumentation = Instrumentation.attach(network)
        manager.submit("http://sink", FlakySend(failures=9), family="wsn")
        counters = instrumentation.metrics.snapshot()["counters"]
        assert (
            counters["delivery.failed_total{family=wsn,kind=MessageLost,stage=attempt}"]
            == 1
        )
        assert counters["delivery.dead_lettered{family=wsn,reason=max_attempts}"] == 1
