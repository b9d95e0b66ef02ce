"""The JMS provider: destinations, queues, topics, durable state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.baselines.jms.messages import DeliveryMode, JmsError, JmsMessage
from repro.filters.selector import MessageSelector
from repro.transport.clock import VirtualClock


def _insert_by_priority(queue: list[JmsMessage], message: JmsMessage) -> None:
    """Priority order, FIFO within a priority (JMS 'message order' QoS)."""
    index = len(queue)
    while index > 0 and queue[index - 1].priority < message.priority:
        index -= 1
    queue.insert(index, message)


@dataclass
class Queue:
    """Point-to-point destination: each message goes to exactly one consumer."""

    name: str
    _messages: list[JmsMessage] = field(default_factory=list)

    def put(self, message: JmsMessage) -> None:
        _insert_by_priority(self._messages, message)

    def take(self, selector: Optional[MessageSelector], now: float) -> Optional[JmsMessage]:
        for index, message in enumerate(self._messages):
            if message.is_expired(now):
                continue
            if selector is None or selector.matches(message.selector_fields()):
                return self._messages.pop(index)
        return None


@dataclass
class _DurableSubscription:
    client_id: str
    name: str
    selector: Optional[MessageSelector]
    backlog: list[JmsMessage] = field(default_factory=list)
    active_listener: Optional[Callable[[JmsMessage], None]] = None


@dataclass
class _ActiveSubscriber:
    listener: Callable[[JmsMessage], None]
    selector: Optional[MessageSelector]


@dataclass
class Topic:
    """Publish/subscribe destination."""

    name: str
    _subscribers: list[_ActiveSubscriber] = field(default_factory=list)
    _durables: dict[tuple[str, str], _DurableSubscription] = field(default_factory=dict)

    def publish(self, message: JmsMessage, now: float) -> int:
        delivered = 0
        if message.is_expired(now):
            return 0
        for subscriber in list(self._subscribers):
            if subscriber.selector is None or subscriber.selector.matches(
                message.selector_fields()
            ):
                subscriber.listener(message.body_copy())
                delivered += 1
        for durable in self._durables.values():
            if durable.selector is not None and not durable.selector.matches(
                message.selector_fields()
            ):
                continue
            if durable.active_listener is not None:
                durable.active_listener(message.body_copy())
                delivered += 1
            else:
                _insert_by_priority(durable.backlog, message.body_copy())
        return delivered


class JmsProvider:
    """The message broker all connections attach to."""

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        from repro.obs.instrument import NULL_INSTRUMENTATION

        self.clock = clock if clock is not None else VirtualClock()
        #: swappable observability hook (the JMS baseline has no
        #: SimulatedNetwork to carry one); Instrumentation-compatible
        self.instrumentation = NULL_INSTRUMENTATION
        self._queues: dict[str, Queue] = {}
        self._topics: dict[str, Topic] = {}

    # --- platform gate (Table 3: "only works on Java platforms") ----------------

    SUPPORTED_PLATFORM = "java"

    def check_platform(self, platform: str) -> None:
        if platform != self.SUPPORTED_PLATFORM:
            raise JmsError(
                f"platform {platform!r} unsupported: JMS is a Java-platform API"
            )

    # --- destinations --------------------------------------------------------------

    def queue(self, name: str) -> Queue:
        return self._queues.setdefault(name, Queue(name))

    def topic(self, name: str) -> Topic:
        return self._topics.setdefault(name, Topic(name))

    # --- durable subscription registry ------------------------------------------------

    def durable_subscription(
        self,
        topic: Topic,
        client_id: str,
        name: str,
        selector: Optional[MessageSelector],
    ) -> _DurableSubscription:
        key = (client_id, name)
        existing = topic._durables.get(key)
        if existing is None:
            existing = _DurableSubscription(client_id, name, selector)
            topic._durables[key] = existing
        return existing

    def unsubscribe_durable(self, topic: Topic, client_id: str, name: str) -> None:
        durable = topic._durables.get((client_id, name))
        if durable is None:
            raise JmsError(f"no durable subscription {name!r} for client {client_id!r}")
        if durable.active_listener is not None:  # JMS 1.1 Session.unsubscribe: erroneous
            raise JmsError(f"durable subscription {name!r} still has an active subscriber")
        del topic._durables[client_id, name]

    # --- failure injection ------------------------------------------------------------

    def crash_and_recover(self) -> None:
        """Simulated broker crash: non-persistent messages are lost,
        persistent ones survive (the Persistence QoS criterion)."""
        for queue in self._queues.values():
            queue._messages = [
                m for m in queue._messages if m.delivery_mode is DeliveryMode.PERSISTENT
            ]
        for topic in self._topics.values():
            topic._subscribers.clear()  # active (non-durable) subscribers drop
            for durable in topic._durables.values():
                durable.active_listener = None
                durable.backlog = [
                    m for m in durable.backlog if m.delivery_mode is DeliveryMode.PERSISTENT
                ]
