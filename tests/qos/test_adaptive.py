"""Adaptive QoS core: token buckets, policy validation, admission plans."""

import pytest

from repro.delivery.task import DeliveryTask
from repro.qos import (
    AdaptiveQosController,
    AdaptiveQosPolicy,
    DiscardPolicy,
    QosError,
    QosProfile,
    TokenBucket,
    default_tenant,
    validate_supported,
)
from repro.transport import VirtualClock


def task(priority=0, items=1):
    return DeliveryTask("http://sink", lambda: None, priority=priority)


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(VirtualClock(), rate=1.0, burst=2.0)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refills_on_virtual_time(self):
        clock = VirtualClock()
        bucket = TokenBucket(clock, rate=2.0, burst=2.0)
        bucket.try_acquire()
        bucket.try_acquire()
        clock.advance(0.5)  # 2/s * 0.5s = 1 token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = VirtualClock()
        bucket = TokenBucket(clock, rate=10.0, burst=3.0)
        clock.advance(100.0)
        assert bucket.balance() == 3.0

    def test_next_available_is_exactly_acquirable(self):
        # waking at the computed instant must find the token there (the
        # epsilon guard against float refill rounding)
        clock = VirtualClock()
        bucket = TokenBucket(clock, rate=3.0, burst=1.0)
        bucket.try_acquire()
        ready = bucket.next_available()
        assert ready > clock.now()
        clock.advance(ready - clock.now())
        assert bucket.try_acquire()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(VirtualClock(), rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(VirtualClock(), rate=1.0, burst=0.5)


class TestPolicyValidation:
    def test_defaults_are_a_no_op_policy(self):
        policy = AdaptiveQosPolicy()
        controller = AdaptiveQosController(VirtualClock(), policy=policy)
        assert controller.attempt_delay("http://sink") is None
        admit, victims = controller.plan_admission("http://sink", [], task())
        assert (admit, victims) == (True, [])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"per_sink_rate": 0.0},
            {"per_tenant_rate": -1.0},
            {"per_sink_burst": 0.0},
            {"max_sink_queue": 0},
            {"pause_pending_above": 0},
            {"pause_pending_above": 5, "resume_pending_below": 5},
        ],
    )
    def test_invalid_knobs_raise_qos_error(self, kwargs):
        with pytest.raises(QosError):
            AdaptiveQosPolicy(**kwargs)


class TestProfileAcceptance:
    def test_start_stop_time_are_unsupported(self):
        with pytest.raises(QosError):
            validate_supported(QosProfile({"StartTime": 5.0}))
        with pytest.raises(QosError):
            validate_supported(QosProfile({"StopTimeSupported": True}))

    def test_rejections_are_counted(self):
        controller = AdaptiveQosController(VirtualClock())
        with pytest.raises(QosError):
            controller.register_consumer("http://c", QosProfile({"StartTime": 1.0}))
        assert controller.profile_rejections == 1
        assert controller.profile_for("http://c") is None

    def test_accepted_profile_drives_limits(self):
        controller = AdaptiveQosController(
            VirtualClock(), policy=AdaptiveQosPolicy(max_sink_queue=100)
        )
        controller.register_consumer(
            "http://c",
            QosProfile(
                {
                    "MaxEventsPerConsumer": 3,
                    "Priority": 7,
                    "DiscardPolicy": DiscardPolicy.LIFO_ORDER,
                }
            ),
        )
        assert controller.queue_limit("http://c") == 3  # profile overrides policy
        assert controller.queue_limit("http://other") == 100
        assert controller.priority_of("http://c") == 7
        assert controller.discard_policy_for("http://c") is DiscardPolicy.LIFO_ORDER
        assert controller.discard_policy_for("http://other") is DiscardPolicy.FIFO_ORDER


class TestAdmission:
    def make(self, *, limit=2, discard=DiscardPolicy.FIFO_ORDER):
        policy = AdaptiveQosPolicy(max_sink_queue=limit, discard_policy=discard)
        return AdaptiveQosController(VirtualClock(), policy=policy)

    def test_under_limit_admits_without_victims(self):
        controller = self.make(limit=2)
        admit, victims = controller.plan_admission("s", [task()], task())
        assert (admit, victims) == (True, [])

    def test_fifo_evicts_oldest_waiting(self):
        controller = self.make(limit=2)
        head, waiting = task(), task()
        admit, victims = controller.plan_admission("s", [head, waiting], task())
        assert admit and victims == [waiting]

    def test_queue_head_is_never_evicted(self):
        # index 0 may be owned by an active drain frame; with nothing else
        # waiting, the incoming task is rejected instead
        controller = self.make(limit=1)
        head = task()
        admit, victims = controller.plan_admission("s", [head], task())
        assert (admit, victims) == (False, [])

    def test_lifo_rejects_the_newcomer(self):
        controller = self.make(limit=2, discard=DiscardPolicy.LIFO_ORDER)
        admit, victims = controller.plan_admission("s", [task(), task()], task())
        assert (admit, victims) == (False, [])

    def test_priority_evicts_lowest_only_when_strictly_beaten(self):
        controller = self.make(limit=3, discard=DiscardPolicy.PRIORITY_ORDER)
        head, low, high = task(5), task(1), task(9)
        admit, victims = controller.plan_admission("s", [head, low, high], task(4))
        assert admit and victims == [low]
        # equal priority does not evict: the earlier message keeps its seat
        admit, victims = controller.plan_admission("s", [head, low, high], task(1))
        assert (admit, victims) == (False, [])


class TestPacing:
    def test_sink_bucket_gates_and_reports_ready_time(self):
        clock = VirtualClock()
        controller = AdaptiveQosController(
            clock, policy=AdaptiveQosPolicy(per_sink_rate=1.0, per_sink_burst=1.0)
        )
        assert controller.attempt_delay("http://t/a") is None  # burst token
        ready = controller.attempt_delay("http://t/a")
        assert ready == pytest.approx(clock.now() + 1.0)
        # a starved check consumes nothing: the ready time does not move
        assert controller.attempt_delay("http://t/a") == pytest.approx(ready)
        clock.advance(1.0)
        assert controller.attempt_delay("http://t/a") is None

    def test_tenant_bucket_is_shared_across_sinks(self):
        clock = VirtualClock()
        controller = AdaptiveQosController(
            clock,
            policy=AdaptiveQosPolicy(per_tenant_rate=1.0, per_tenant_burst=1.0),
        )
        assert controller.attempt_delay("http://t/a") is None
        # same tenant prefix: the sibling sink finds the bucket empty
        assert controller.attempt_delay("http://t/b") is not None
        # a different tenant has its own bucket
        assert controller.attempt_delay("http://other/x") is None

    def test_default_tenant_grouping(self):
        assert default_tenant("http://host/app/c1") == "http://host/app"
        assert default_tenant("http://host/app/c1") == default_tenant(
            "http://host/app/c2"
        )
        assert default_tenant("sink-7") == "sink"
        assert default_tenant("plain") == "plain"

    def test_snapshot_counts(self):
        controller = AdaptiveQosController(
            VirtualClock(), policy=AdaptiveQosPolicy(per_sink_rate=1.0)
        )
        controller.attempt_delay("http://a")
        controller.register_consumer("http://a", QosProfile({"Priority": 1}))
        assert len(controller._sink_buckets) == 1
        assert len(controller._profiles) == 1
