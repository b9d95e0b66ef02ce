"""JMS connections, sessions, producers and consumers."""

from __future__ import annotations

from typing import Optional, Union

from repro.baselines.jms.messages import DeliveryMode, JmsError, JmsMessage
from repro.baselines.jms.provider import JmsProvider, Queue, Topic, _DurableSubscription
from repro.filters.selector import MessageSelector

Destination = Union[Queue, Topic]


class Connection:
    """A client connection; ``client_id`` scopes durable subscriptions."""

    def __init__(self, provider: JmsProvider, client_id: str, *, platform: str = "java") -> None:
        provider.check_platform(platform)
        self.provider = provider
        self.client_id = client_id
        self.started = False

    def create_session(self, *, transacted: bool = False) -> "Session":
        return Session(self, transacted=transacted)

    def start(self) -> None:
        self.started = True


class MessageProducer:
    def __init__(self, session: "Session", destination: Destination) -> None:
        self.session = session
        self.destination = destination

    def send(
        self,
        message: JmsMessage,
        *,
        priority: Optional[int] = None,
        delivery_mode: Optional[DeliveryMode] = None,
        time_to_live: float = 0.0,
    ) -> None:
        clock = self.session.connection.provider.clock
        if priority is not None:
            if not 0 <= priority <= 9:
                raise JmsError("JMS priority must be 0..9")
            message.priority = priority
        if delivery_mode is not None:
            message.delivery_mode = delivery_mode
        message.timestamp = clock.now()
        message.expiration = clock.now() + time_to_live if time_to_live > 0 else 0.0
        message.destination = self.destination.name
        if self.session.transacted:
            self.session._pending_sends.append((self.destination, message))
        else:
            self.session._dispatch(self.destination, message)


class MessageConsumer:
    def __init__(
        self,
        session: "Session",
        destination: Destination,
        selector: Optional[str] = None,
        *,
        durable: Optional[_DurableSubscription] = None,
    ) -> None:
        self.session = session
        self.destination = destination
        self.selector = MessageSelector(selector) if selector else None
        self._durable = durable
        self._buffer: list[JmsMessage] = []
        self.closed = False
        if isinstance(destination, Topic):
            if durable is not None:
                durable.active_listener = self._buffer.append
                # deliver any backlog accumulated while inactive
                backlog, durable.backlog = durable.backlog, []
                self._buffer.extend(backlog)
            else:
                from repro.baselines.jms.provider import _ActiveSubscriber

                self._subscription = _ActiveSubscriber(self._buffer.append, self.selector)
                destination._subscribers.append(self._subscription)

    def receive(self) -> Optional[JmsMessage]:
        """Non-blocking receive (receiveNoWait in JMS terms)."""
        if self.closed:
            raise JmsError("consumer closed")
        if not self.session.connection.started:
            return None  # deliveries only flow on started connections
        clock = self.session.connection.provider.clock
        if isinstance(self.destination, Queue):
            message = self.destination.take(self.selector, clock.now())
        else:
            message = None
            while self._buffer:
                candidate = self._buffer.pop(0)
                if not candidate.is_expired(clock.now()):
                    message = candidate
                    break
        if message is not None and self.session.transacted:
            self.session._pending_receives.append((self.destination, message))
        return message

    def close(self) -> None:
        self.closed = True
        if isinstance(self.destination, Topic):
            if self._durable is not None:
                self._durable.active_listener = None  # goes dormant, keeps backlog
                self._durable.backlog.extend(self._buffer)
                self._buffer.clear()
            elif hasattr(self, "_subscription"):
                try:
                    self.destination._subscribers.remove(self._subscription)
                except ValueError as exc:
                    # double-close: the subscriber is already detached; the
                    # skip is recorded, never silently dropped
                    self.session.connection.provider.instrumentation.count(
                        "obs.swallowed_errors_total",
                        site="jms.consumer.close",
                        kind=type(exc).__name__,
                    )


class Session:
    """A unit of work; when transacted, sends/receives commit atomically."""

    def __init__(self, connection: Connection, *, transacted: bool = False) -> None:
        self.connection = connection
        self.transacted = transacted
        self._pending_sends: list[tuple[Destination, JmsMessage]] = []
        self._pending_receives: list[tuple[Destination, JmsMessage]] = []

    # --- factories ---------------------------------------------------------------

    def create_producer(self, destination: Destination) -> MessageProducer:
        return MessageProducer(self, destination)

    def create_consumer(
        self, destination: Destination, selector: Optional[str] = None
    ) -> MessageConsumer:
        return MessageConsumer(self, destination, selector)

    def create_durable_subscriber(
        self, topic: Topic, name: str, selector: Optional[str] = None
    ) -> MessageConsumer:
        durable = self.connection.provider.durable_subscription(
            topic,
            self.connection.client_id,
            name,
            MessageSelector(selector) if selector else None,
        )
        return MessageConsumer(self, topic, selector, durable=durable)

    def unsubscribe(self, topic: Topic, name: str) -> None:
        self.connection.provider.unsubscribe_durable(
            topic, self.connection.client_id, name
        )

    # --- transactions -----------------------------------------------------------------

    def commit(self) -> None:
        self._check_transacted()
        for destination, message in self._pending_sends:
            self._dispatch(destination, message)
        self._pending_sends.clear()
        self._pending_receives.clear()  # consumed messages are now final

    def rollback(self) -> None:
        self._check_transacted()
        self._pending_sends.clear()
        # received messages go back, marked redelivered
        for destination, message in self._pending_receives:
            message.redelivered = True
            if isinstance(destination, Queue):
                destination.put(message)
        self._pending_receives.clear()

    def _check_transacted(self) -> None:
        if not self.transacted:
            raise JmsError("session is not transacted")

    def _dispatch(self, destination: Destination, message: JmsMessage) -> None:
        clock = self.connection.provider.clock
        if isinstance(destination, Queue):
            destination.put(message)
        else:
            destination.publish(message, clock.now())
