"""Delivery tasks: one queued outbound notification and its life story.

A task is what the WSE source / WSN producer hand the
:class:`~repro.delivery.manager.DeliveryManager` instead of pushing
directly: the target sink address, a ``send`` thunk that performs exactly
one wire attempt (raising the transport's ``NetworkError`` family or
``SoapFault`` on failure), and the spec-neutral message items so the
firewall fallback can park the *content* in a message box even though the
thunk itself is opaque.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.xmlkit.element import XElem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.propagation import LineageContext


@dataclass(frozen=True)
class DeliveryItem:
    """One spec-neutral notification (payload + topic): the producer side's
    one value for it from match to wire — what a family routes, parks,
    renders and settles, and what mediation translates to and from.

    ``lineage`` is the sender-side trace context captured when the fan-out
    created this obligation; it survives queueing, message-box parking and
    DLQ replay, so the eventual delivery (push or pull) still lands in the
    publish's trace tree and ledger.  A copy parked on a subscription is bare:
    the drain that sends it stamps its own.

    ``message_id`` is the durable publish id stamped by the broker store
    (when one is attached): ``(message_id, sink)`` is the idempotency key
    that makes crash-replay exactly-once.
    """

    payload: XElem
    topic: Optional[str] = None
    lineage: Optional["LineageContext"] = None
    message_id: Optional[str] = None


class TaskStatus:
    """Task lifecycle states (plain strings; they appear in snapshots)."""

    QUEUED = "queued"
    DELIVERED = "delivered"
    PARKED = "parked"
    DEAD = "dead"
    #: dropped by the adaptive QoS layer (bounded-queue or box overflow) —
    #: an accounted decision, closed in the lineage ledger as ``shed``
    SHED = "shed"


@dataclass
class DeliveryTask:
    """One message on its way to one sink."""

    sink: str
    send: Callable[[], None]
    #: message content for message-box parking and DLQ replay; may be empty
    #: for control traffic (e.g. SubscriptionEnd) that cannot be parked
    items: list[DeliveryItem] = field(default_factory=list)
    #: metric label: which protocol family queued this ("wse"/"wsn"/"")
    family: str = ""
    #: trace context the send thunk resumes under (a batched wrapped-mode
    #: task carries several lineages in ``items``; the wire header carries
    #: this one — the first item's)
    lineage: Optional["LineageContext"] = None
    enqueued_at: float = 0.0
    #: QoS priority (the consumer profile's ``Priority``): under
    #: PriorityOrder discard, lower-priority waiting tasks are shed first
    priority: int = 0
    attempts: int = 0
    status: str = TaskStatus.QUEUED
    last_error: Optional[str] = None
    delivered_at: Optional[float] = None
