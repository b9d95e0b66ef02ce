"""repro.delivery — reliable store-and-forward delivery.

The paper calls WS-Messenger a "scalable, reliable and efficient" broker;
this package supplies the reliability half the specifications leave to
implementations.  It turns the broker's synchronous best-effort push into a
policy-driven pipeline: per-subscriber outbound queues scheduled on the
virtual clock, exponential backoff with deterministic seeded jitter,
per-sink circuit breakers, a dead-letter queue with replay, and — for
consumers behind firewalls — store-and-forward message boxes drained via
the WSN 1.3 ``GetMessages`` / WSE ``Pull`` semantics.

Layering: everything here depends only on the transport substrate plus the
message *formats* of the two spec families; the WSE source, WSN producer and
the broker depend on this package (never the reverse), taking a
:class:`DeliveryManager` by reference.
"""

from repro.delivery.batcher import BatcherStats, DeliveryBatcher
from repro.delivery.breaker import BreakerState, CircuitBreaker
from repro.delivery.dlq import DeadLetter, DeadLetterQueue
from repro.delivery.manager import DeliveryManager, DeliveryStats
from repro.delivery.outcome import DeliveryFailure, record_failure
from repro.delivery.policy import BatchingPolicy, DeliveryPolicy
from repro.delivery.task import DeliveryItem, DeliveryTask, TaskStatus
from repro.delivery.messagebox import (
    MessageBox,
    MessageBoxRegistry,
    drain_message_box_wse,
)

__all__ = [
    "BatcherStats",
    "BatchingPolicy",
    "BreakerState",
    "DeliveryBatcher",
    "CircuitBreaker",
    "DeadLetter",
    "DeadLetterQueue",
    "DeliveryFailure",
    "DeliveryItem",
    "DeliveryManager",
    "DeliveryPolicy",
    "DeliveryStats",
    "DeliveryTask",
    "MessageBox",
    "MessageBoxRegistry",
    "TaskStatus",
    "drain_message_box_wse",
    "record_failure",
]
