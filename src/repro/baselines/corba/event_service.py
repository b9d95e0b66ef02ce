"""The CORBA Event Service (3/1995): channels, push/pull proxies, no filters.

Every event a supplier pushes into a channel reaches **every** connected
consumer — "It does not address event filtering and Quality of Service
(QoS).  A consumer receives all events on a channel." (paper section VI.A).
Both push and pull models are supported, as Table 3 records.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.baselines.corba.orb import CorbaError, ObjectReference, Orb


class ProxyPushSupplier:
    """Channel-side supplier proxy: pushes events at a connected consumer."""

    def __init__(self, channel: "EventChannel") -> None:
        self._channel = channel
        self._consumer: Optional[ObjectReference] = None

    def connect_push_consumer(self, consumer: ObjectReference) -> None:
        if self._consumer is not None:
            raise CorbaError("AlreadyConnected")
        self._consumer = consumer

    def disconnect_push_supplier(self) -> None:
        self._consumer = None

    def _deliver(self, event: Any) -> None:
        if self._consumer is None:
            return
        try:
            self._channel.orb.invoke(self._consumer, "push", [event])
        except CorbaError:
            self.disconnect_push_supplier()  # dead consumer drops off


class ProxyPullSupplier:
    """Channel-side supplier proxy a consumer pulls events from."""

    def __init__(self, channel: "EventChannel") -> None:
        self._channel = channel
        self._queue: list[Any] = []

    def _deliver(self, event: Any) -> None:
        self._queue.append(event)

    def try_pull(self) -> tuple[Any, bool]:
        """Non-blocking pull: (event, has_event)."""
        if self._queue:
            return self._queue.pop(0), True
        return None, False


class ProxyPushConsumer:
    """Channel-side consumer proxy a supplier pushes events into."""

    def __init__(self, channel: "EventChannel") -> None:
        self._channel = channel

    def push(self, event: Any) -> None:
        self._channel._fan_out(event)


class ProxyPullConsumer:
    """Channel-side consumer proxy that pulls events *from* a supplier."""

    def __init__(self, channel: "EventChannel") -> None:
        self._channel = channel
        self._supplier: Optional[ObjectReference] = None

    def connect_pull_supplier(self, supplier: ObjectReference) -> None:
        if self._supplier is not None:
            raise CorbaError("AlreadyConnected")
        self._supplier = supplier

    def poll(self) -> int:
        """Drain the connected supplier into the channel; returns count."""
        if self._supplier is None:
            raise CorbaError("Disconnected: pull consumer not connected")
        drained = 0
        while True:
            result = self._channel.orb.invoke(self._supplier, "try_pull", [])
            event, has_event = result[0], result[1]
            if not has_event:
                return drained
            self._channel._fan_out(event)
            drained += 1


class ConsumerAdmin:
    def __init__(self, channel: "EventChannel") -> None:
        self._channel = channel

    def obtain_push_supplier(self) -> ProxyPushSupplier:
        proxy = ProxyPushSupplier(self._channel)
        self._channel._push_suppliers.append(proxy)
        return proxy

    def obtain_pull_supplier(self) -> ProxyPullSupplier:
        proxy = ProxyPullSupplier(self._channel)
        self._channel._pull_suppliers.append(proxy)
        return proxy


class SupplierAdmin:
    def __init__(self, channel: "EventChannel") -> None:
        self._channel = channel

    def obtain_push_consumer(self) -> ProxyPushConsumer:
        return ProxyPushConsumer(self._channel)

    def obtain_pull_consumer(self) -> ProxyPullConsumer:
        return ProxyPullConsumer(self._channel)


class EventChannel:
    """An event channel: decouples suppliers from consumers, fans out all."""

    def __init__(self, orb: Orb) -> None:
        self.orb = orb
        self._push_suppliers: list[ProxyPushSupplier] = []
        self._pull_suppliers: list[ProxyPullSupplier] = []

    def for_consumers(self) -> ConsumerAdmin:
        return ConsumerAdmin(self)

    def for_suppliers(self) -> SupplierAdmin:
        return SupplierAdmin(self)

    def _fan_out(self, event: Any) -> None:
        for proxy in list(self._push_suppliers):
            proxy._deliver(event)
        for proxy in list(self._pull_suppliers):
            proxy._deliver(event)
