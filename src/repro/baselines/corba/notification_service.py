"""The CORBA Notification Service (6/1997): filtering + QoS over channels.

"The CORBA Notification service specification is an enhancement to the CORBA
event service specification.  It adds supports for event filtering and
Quality of Service (QoS)." (paper section VI.A).  This module adds, over the
Event Service:

- **structured events** as the routed unit;
- **filter objects** holding extended-TCL constraints, attachable to admins
  (OR across an admin's filters) and proxies;
- the **13 QoS properties**, with Priority/FIFO ordering, bounded
  per-consumer queues with discard policies, and batched (sequence) push
  delivery driven by MaximumBatchSize.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.baselines.corba.events import StructuredEvent
from repro.baselines.corba.orb import CorbaError, ObjectReference, Orb
from repro.filters.base import FilterError
from repro.filters.tcl import TclConstraint
from repro.qos.properties import DiscardPolicy, OrderPolicy, QosProfile


class FilterObject:
    """A Notification Service filter: a disjunction of TCL constraints."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self._constraints: dict[int, TclConstraint] = {}

    def add_constraint(self, expression: str) -> int:
        try:
            constraint = TclConstraint(expression)
        except FilterError as exc:
            raise CorbaError(f"InvalidConstraint: {exc}") from exc
        constraint_id = next(self._counter)
        self._constraints[constraint_id] = constraint
        return constraint_id

    def match_structured(self, event: StructuredEvent) -> bool:
        if not self._constraints:
            return True  # an empty filter matches everything
        mapping = event.to_mapping()
        return any(c.matches(mapping) for c in self._constraints.values())


class _FilterableMixin:
    def __init__(self) -> None:
        self._filters: dict[int, FilterObject] = {}
        self._filter_counter = itertools.count(1)

    def add_filter(self, filter_object: FilterObject) -> int:
        filter_id = next(self._filter_counter)
        self._filters[filter_id] = filter_object
        return filter_id

    def remove_filter(self, filter_id: int) -> None:
        if filter_id not in self._filters:
            raise CorbaError(f"FilterNotFound: {filter_id}")
        del self._filters[filter_id]

    def remove_all_filters(self) -> None:
        self._filters.clear()

    def get_all_filters(self) -> list[int]:
        return list(self._filters)

    def _passes(self, event: StructuredEvent) -> bool:
        if not self._filters:
            return True
        return any(f.match_structured(event) for f in self._filters.values())


class StructuredProxyPushSupplier(_FilterableMixin):
    """Delivers matching structured events to a connected push consumer,
    honouring the consumer's QoS (priority ordering, batching, bounds)."""

    def __init__(self, channel: "NotificationChannel", qos: QosProfile) -> None:
        super().__init__()
        self._channel = channel
        self.qos = qos
        self._consumer: Optional[ObjectReference] = None
        self._batch: list[StructuredEvent] = []
        self._suspended_buffer: list[StructuredEvent] = []
        self.suspended = False

    def connect_structured_push_consumer(self, consumer: ObjectReference) -> None:
        if self._consumer is not None:
            raise CorbaError("AlreadyConnected")
        self._consumer = consumer

    def disconnect_structured_push_supplier(self) -> None:
        self._consumer = None
        self._batch.clear()
        self._suspended_buffer.clear()

    def suspend_connection(self) -> None:
        """Buffer deliveries until resumed (the demand-control hook the
        paper's Table 3 credits the Notification Service with)."""
        if self._consumer is None:
            raise CorbaError("NotConnected")
        if self.suspended:
            raise CorbaError("ConnectionAlreadyInactive")
        self.suspended = True

    def resume_connection(self) -> None:
        if not self.suspended:
            raise CorbaError("ConnectionAlreadyActive")
        self.suspended = False
        buffered, self._suspended_buffer = self._suspended_buffer, []
        for event in buffered:
            self._deliver(event)

    def set_qos(self, values: dict[str, Any]) -> None:
        self.qos = self.qos.merged_with(values)

    def _deliver(self, event: StructuredEvent) -> None:
        if self._consumer is None or not self._passes(event):
            return
        if self.suspended:
            self._suspended_buffer.append(event)
            return
        batch_size = self.qos.get("MaximumBatchSize")
        if batch_size <= 1:
            self._send([event])
            return
        self._batch.append(event)
        if len(self._batch) >= batch_size:
            self.flush()

    def flush(self) -> None:
        if self._batch:
            batch, self._batch = self._batch, []
            self._send(batch)

    def _send(self, events: list[StructuredEvent]) -> None:
        wire = [event.to_wire() for event in events]
        if len(events) == 1:
            operation, argument = "push_structured_event", wire[0]
        else:
            operation, argument = "push_structured_events", wire
        try:
            self._channel.orb.invoke(self._consumer, operation, [argument])
        except CorbaError:
            self.disconnect_structured_push_supplier()


class StructuredProxyPullSupplier(_FilterableMixin):
    """A bounded, policy-ordered queue the consumer pulls from."""

    def __init__(self, channel: "NotificationChannel", qos: QosProfile) -> None:
        super().__init__()
        self._channel = channel
        self.qos = qos
        self._queue: list[StructuredEvent] = []
        self.discarded = 0

    def set_qos(self, values: dict[str, Any]) -> None:
        self.qos = self.qos.merged_with(values)

    def _deliver(self, event: StructuredEvent) -> None:
        if not self._passes(event):
            return
        self._queue.append(event)
        self._enforce_bounds()

    def _enforce_bounds(self) -> None:
        bound = self.qos.get("MaxEventsPerConsumer")
        if not bound:
            return
        policy = self.qos.get("DiscardPolicy")
        while len(self._queue) > bound:
            self.discarded += 1
            if policy is DiscardPolicy.LIFO_ORDER:
                self._queue.pop()  # newest discarded
            elif policy is DiscardPolicy.PRIORITY_ORDER:
                lowest = min(range(len(self._queue)), key=lambda i: self._queue[i].priority)
                self._queue.pop(lowest)
            else:  # FIFO / Any: oldest discarded
                self._queue.pop(0)

    def try_pull_structured_event(self) -> tuple[Optional[StructuredEvent], bool]:
        if not self._queue:
            return None, False
        policy = self.qos.get("OrderPolicy")
        if policy is OrderPolicy.PRIORITY_ORDER:
            index = max(range(len(self._queue)), key=lambda i: self._queue[i].priority)
        else:  # FIFO / Any
            index = 0
        return self._queue.pop(index), True


class StructuredProxyPushConsumer(_FilterableMixin):
    """Suppliers push structured events into the channel through this proxy."""

    def __init__(self, channel: "NotificationChannel") -> None:
        super().__init__()
        self._channel = channel

    def push_structured_event(self, event: StructuredEvent) -> None:
        if self._passes(event):
            self._channel._fan_out(event)


class NotificationConsumerAdmin(_FilterableMixin):
    """Admin grouping consumer-side proxies; admin filters apply to all."""

    def __init__(self, channel: "NotificationChannel") -> None:
        super().__init__()
        self._channel = channel

    def obtain_structured_push_supplier(
        self, qos: Optional[QosProfile] = None
    ) -> StructuredProxyPushSupplier:
        return self._attach(StructuredProxyPushSupplier, qos)

    def obtain_structured_pull_supplier(
        self, qos: Optional[QosProfile] = None
    ) -> StructuredProxyPullSupplier:
        return self._attach(StructuredProxyPullSupplier, qos)

    def _attach(self, proxy_class, qos: Optional[QosProfile]):
        """A consumer-side proxy with ``qos``, else the channel's QoS."""
        proxy = proxy_class(self._channel, qos or QosProfile(dict(self._channel.default_qos.values)))
        self._channel._consumer_proxies.append((self, proxy))
        return proxy


class NotificationSupplierAdmin:
    def __init__(self, channel: "NotificationChannel") -> None:
        self._channel = channel

    def obtain_structured_push_consumer(self) -> StructuredProxyPushConsumer:
        return StructuredProxyPushConsumer(self._channel)


class NotificationChannel:
    """An event channel with filtering and QoS."""

    def __init__(self, orb: Orb, default_qos: Optional[QosProfile] = None) -> None:
        self.orb = orb
        self.default_qos = default_qos or QosProfile()
        self._consumer_proxies: list[tuple[NotificationConsumerAdmin, Any]] = []

    def new_for_consumers(self) -> NotificationConsumerAdmin:
        return NotificationConsumerAdmin(self)

    def new_for_suppliers(self) -> NotificationSupplierAdmin:
        return NotificationSupplierAdmin(self)

    def set_qos(self, values: dict[str, Any]) -> None:
        self.default_qos = self.default_qos.merged_with(values)

    def validate_qos(self, values: dict[str, Any]) -> None:
        self.default_qos.merged_with(values)  # raises QosError if invalid

    def _fan_out(self, event: StructuredEvent) -> None:
        for admin, proxy in list(self._consumer_proxies):
            if not admin._passes(event):
                continue
            proxy._deliver(event)
