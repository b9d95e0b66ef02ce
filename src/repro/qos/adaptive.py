"""Adaptive QoS: the Table 3 property stubs made load-bearing.

The paper's Table 3 shows the WS eventing specs defining *no* QoS
properties while CORBA Notification mandates thirteen; the CORBA-services
experience reports are equally clear that the properties only matter when
the broker actually consults them under load.  This module is that
consultation point: an :class:`AdaptiveQosController` sits on the delivery
pipeline and turns sustained overload into *graceful degradation* instead
of unbounded queue growth —

* **token-bucket pacing** per consumer sink and per tenant (an
  address-prefix grouping of sinks), refilled on the virtual clock so every
  throttling decision is deterministic;
* **bounded per-sink queues** whose overflow behaviour is driven by the
  CORBA :class:`~repro.qos.properties.DiscardPolicy` a consumer requested
  (FIFO drops the oldest waiting message, LIFO rejects the newest,
  PriorityOrder evicts the lowest-priority waiter);
* **profile acceptance**: a consumer attaches a
  :class:`~repro.qos.properties.QosProfile` to Subscribe/Register and gets
  CORBA's ``UnsupportedQoS`` behaviour (:class:`QosError`, surfaced as a
  sender fault on the wire) when it asks for what this broker cannot do;
* thresholds for **publisher pause/resume** (used by the WSN broker's
  demand-based publishing to stop pulling from upstream producers while
  downstream lag is high).

Everything here is policy and bookkeeping; the delivery manager owns the
queues and performs the actual shedding/ledgering so the obligation books
(:mod:`repro.obs.lineage`) stay balanced — shed messages close their
obligations with a ``shed`` event rather than vanishing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.qos.properties import DiscardPolicy, QosError, QosProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delivery.task import DeliveryTask

#: properties this broker cannot honour: requesting them must fault, per
#: CORBA's "must be understood even when not implemented" rule
_UNSUPPORTED_WHEN_SET = ("StartTime", "StopTime")
_UNSUPPORTED_WHEN_TRUE = ("StartTimeSupported", "StopTimeSupported")


def validate_supported(profile: QosProfile) -> QosProfile:
    """Reject profiles requesting properties this broker cannot honour."""
    for name in _UNSUPPORTED_WHEN_SET:
        if profile.get(name) is not None:
            raise QosError(f"{name} is not supported by this broker")
    for name in _UNSUPPORTED_WHEN_TRUE:
        if profile.get(name):
            raise QosError(f"{name} cannot be granted by this broker")
    # understood (Table 3: all 13 CORBA properties are) but not implemented:
    # events carry no deadline to order a discard by, and pacing is the
    # broker's token buckets, not a per-consumer interval — granting either
    # and then ignoring it would be a silent downgrade
    if profile.get("DiscardPolicy") is DiscardPolicy.DEADLINE_ORDER:
        raise QosError("DiscardPolicy DeadlineOrder is not supported by this broker")
    if profile.get("PacingInterval"):
        raise QosError("PacingInterval is not supported by this broker")
    return profile


def default_tenant(sink: str) -> str:
    """The tenant a sink address belongs to: its prefix up to the last
    ``/`` (else the last ``-``), so ``http://host/app/c1`` and ``.../c2``
    share one tenant bucket."""
    for separator in ("/", "-"):
        head, found, _ = sink.rpartition(separator)
        if found:
            return head
    return sink


class TokenBucket:
    """A token bucket on the virtual clock (no wall time, fully seeded-run
    deterministic): ``rate`` tokens per virtual second up to ``burst``."""

    __slots__ = ("clock", "rate", "burst", "tokens", "stamped_at")

    def __init__(self, clock, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError("token rate must be positive")
        if burst < 1:
            raise ValueError("burst must allow at least one token")
        self.clock = clock
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamped_at = clock.now()

    def balance(self) -> float:
        """Refill from elapsed virtual time, then report the balance."""
        now = self.clock.now()
        if now > self.stamped_at:
            self.tokens = min(
                self.burst, self.tokens + (now - self.stamped_at) * self.rate
            )
            self.stamped_at = now
        return self.tokens

    def try_acquire(self, n: float = 1.0) -> bool:
        # the epsilon absorbs refill rounding when a wake-up lands exactly
        # on the computed next_available instant
        if self.balance() >= n - 1e-9:
            self.tokens = max(0.0, self.tokens - n)
            return True
        return False

    def next_available(self, n: float = 1.0) -> float:
        """Virtual time when ``n`` tokens will have accrued."""
        deficit = n - self.balance()
        if deficit <= 0:
            return self.clock.now()
        return self.clock.now() + deficit / self.rate


@dataclass(frozen=True)
class AdaptiveQosPolicy:
    """Broker-side overload policy (immutable, shareable).

    ``None`` disables a dimension; the all-defaults policy is a no-op, so
    attaching a controller never changes behaviour until a knob is set.
    """

    #: sustained deliveries/virtual-second allowed per consumer sink
    per_sink_rate: Optional[float] = None
    per_sink_burst: float = 8.0
    #: sustained deliveries/virtual-second shared by a tenant's sinks
    per_tenant_rate: Optional[float] = None
    per_tenant_burst: float = 32.0
    #: queued tasks per sink before DiscardPolicy shedding kicks in
    max_sink_queue: Optional[int] = None
    #: how overflow victims are chosen (consumer profiles may override)
    discard_policy: DiscardPolicy = DiscardPolicy.FIFO_ORDER
    #: aggregate delivery.pending at which demand-based publishers pause…
    pause_pending_above: Optional[int] = None
    #: …and the (lower) watermark at which they resume
    resume_pending_below: int = 0

    def __post_init__(self) -> None:
        for name in ("per_sink_rate", "per_tenant_rate"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise QosError(f"{name} must be positive (or None)")
        if self.per_sink_burst < 1 or self.per_tenant_burst < 1:
            raise QosError("bucket bursts must allow at least one token")
        if self.max_sink_queue is not None and self.max_sink_queue < 1:
            raise QosError("max_sink_queue must be at least 1 (or None)")
        if self.pause_pending_above is not None:
            if self.pause_pending_above < 1:
                raise QosError("pause_pending_above must be at least 1")
            if not 0 <= self.resume_pending_below < self.pause_pending_above:
                raise QosError(
                    "resume_pending_below must sit below pause_pending_above"
                )


class AdaptiveQosController:
    """Consults policy + per-consumer profiles on every delivery decision.

    The controller is pure bookkeeping: it answers *admit or shed whom*
    and *attempt now or at what time*; the delivery manager applies the
    verdicts (and owns the lineage/metric consequences).
    """

    def __init__(
        self, clock, policy: Optional[AdaptiveQosPolicy] = None
    ) -> None:
        self.clock = clock
        self.policy = policy or AdaptiveQosPolicy()
        self._sink_buckets: dict[str, TokenBucket] = {}
        self._tenant_buckets: dict[str, TokenBucket] = {}
        self._profiles: dict[str, QosProfile] = {}
        #: profiles refused at subscribe/register time (UnsupportedQoS)
        self.profile_rejections = 0

    # --- profile acceptance ------------------------------------------------

    def accept_profile(self, profile: QosProfile) -> QosProfile:
        """Validate a requested profile; :class:`QosError` when this broker
        cannot honour it (callers map that to the wire fault)."""
        try:
            return validate_supported(profile)
        except QosError:
            self.profile_rejections += 1
            raise

    def register_consumer(self, sink: str, profile: QosProfile) -> QosProfile:
        accepted = self.accept_profile(profile)
        self._profiles[sink] = accepted
        return accepted

    def profile_for(self, sink: str) -> Optional[QosProfile]:
        return self._profiles.get(sink)

    def priority_of(self, sink: str) -> int:
        profile = self._profiles.get(sink)
        return int(profile.get("Priority")) if profile is not None else 0

    def queue_limit(self, sink: str) -> Optional[int]:
        """Bounded-queue limit for a sink: the consumer's
        ``MaxEventsPerConsumer`` (when non-zero) overrides the policy."""
        profile = self._profiles.get(sink)
        if profile is not None:
            limit = profile.get("MaxEventsPerConsumer")
            if limit:
                return int(limit)
        return self.policy.max_sink_queue

    def discard_policy_for(self, sink: str) -> DiscardPolicy:
        profile = self._profiles.get(sink)
        if profile is not None and "DiscardPolicy" in profile.values:
            return profile.values["DiscardPolicy"]
        return self.policy.discard_policy

    # --- bounded-queue admission --------------------------------------------

    def plan_admission(
        self, sink: str, queue, task: "DeliveryTask"
    ) -> "tuple[bool, list[DeliveryTask]]":
        """Decide one enqueue against the sink's bound.

        Returns ``(admit, victims)``: whether the incoming task may join
        the queue, and which *waiting* tasks must be shed to make room.
        The queue head (index 0) is never evicted — it may be owned by an
        active attempt loop, so only positions 1.. are eligible victims.
        """
        limit = self.queue_limit(sink)
        if limit is None or len(queue) < limit:
            return True, []
        discard = self.discard_policy_for(sink)
        if discard is DiscardPolicy.LIFO_ORDER:
            return False, []
        waiting = [queued for index, queued in enumerate(queue) if index > 0]
        if not waiting:
            return False, []
        if discard is DiscardPolicy.PRIORITY_ORDER:
            lowest = waiting[0]
            for queued in waiting[1:]:
                if queued.priority < lowest.priority:
                    lowest = queued
            if task.priority > lowest.priority:
                return True, [lowest]
            return False, []
        # FIFO_ORDER (and ANY_ORDER, which leaves the choice to the broker;
        # DEADLINE_ORDER never gets here — validate_supported refuses it):
        # the oldest waiting message makes room for the newest
        return True, [waiting[0]]

    # --- token-bucket pacing -----------------------------------------------

    def _bucket(
        self, table: dict[str, TokenBucket], key: str, rate: float, burst: float
    ) -> TokenBucket:
        bucket = table.get(key)
        if bucket is None:
            bucket = table[key] = TokenBucket(self.clock, rate, burst)
        return bucket

    def attempt_delay(self, sink: str) -> Optional[float]:
        """Gate one delivery attempt to ``sink``.

        ``None`` means *go* (one token was consumed from every applicable
        bucket); otherwise the virtual time at which tokens will exist —
        the caller schedules a wake-up instead of attempting (queue-based
        load leveling: the message waits, the wire stays quiet).
        """
        policy = self.policy
        buckets: list[TokenBucket] = []
        if policy.per_sink_rate is not None:
            buckets.append(
                self._bucket(
                    self._sink_buckets, sink,
                    policy.per_sink_rate, policy.per_sink_burst,
                )
            )
        if policy.per_tenant_rate is not None:
            buckets.append(
                self._bucket(
                    self._tenant_buckets, default_tenant(sink),
                    policy.per_tenant_rate, policy.per_tenant_burst,
                )
            )
        if not buckets:
            return None
        ready_at = self.clock.now()
        starved = False
        for bucket in buckets:
            if bucket.balance() < 1.0 - 1e-9:
                starved = True
                ready_at = max(ready_at, bucket.next_available())
        if starved:
            return ready_at
        for bucket in buckets:
            bucket.try_acquire()
        return None
