"""Messaging backbones: the broker's pluggable underlying pub/sub system.

"Besides using the default message filtering, WS-Messenger provides a
generic interface that can use existing publish/subscribe systems as the
underlying message systems.  In this way, WS-Messenger provides Web service
interfaces to existing messaging systems." (section VII)

A backbone carries neutral notifications from :meth:`WsMessenger.publish`
to the broker's fan-out, frozen: an adapter that re-parses the payload
freezes the tree it read in place.  Besides the trivial in-memory fabric, two real
adapters wrap the baseline systems: the payload XML genuinely traverses a
JMS topic (as a TextMessage) or a CORBA Notification channel (as a
structured event through CDR marshalling) before reaching WS consumers.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.baselines.corba.events import StructuredEvent
from repro.baselines.corba.notification_service import NotificationChannel
from repro.baselines.corba.orb import Orb
from repro.baselines.jms.messages import TextMessage
from repro.baselines.jms.provider import JmsProvider
from repro.baselines.jms.session import Connection
from repro.xmlkit.element import XElem
from repro.xmlkit.parser import parse_xml
from repro.xmlkit.writer import serialize_xml

Deliver = Callable[[XElem, Optional[str]], None]


class MessagingBackbone:
    """The generic underlying-messaging interface."""

    #: set by the broker that mounts the backbone; lets adapters route
    #: otherwise-invisible per-message drain errors through the network's
    #: ``obs.swallowed_errors_total`` counter instead of dropping them
    network = None

    def start(self, deliver: Deliver) -> None:
        """Connect the backbone to the broker's fan-out callback."""
        raise NotImplementedError

    def publish(self, payload: XElem, topic: Optional[str]) -> None:
        raise NotImplementedError

    def _count_swallow(self, site: str, error: Exception) -> None:
        if self.network is not None:
            self.network.instrumentation.count(
                "obs.swallowed_errors_total", site=site, kind=type(error).__name__
            )

    def describe(self) -> str:
        return type(self).__name__


class InMemoryBackbone(MessagingBackbone):
    """The default: publications reach the fan-out directly."""

    def __init__(self) -> None:
        self._deliver: Optional[Deliver] = None

    def start(self, deliver: Deliver) -> None:
        self._deliver = deliver

    def publish(self, payload: XElem, topic: Optional[str]) -> None:
        if self._deliver is None:
            raise RuntimeError("backbone not started")
        self._deliver(payload, topic)

    def describe(self) -> str:
        return "in-memory"


class JmsBackbone(MessagingBackbone):
    """Routes broker traffic through a JMS topic on the baseline provider."""

    TOPIC_PROPERTY = "wsTopic"

    def __init__(self, provider: JmsProvider, topic_name: str = "ws-messenger") -> None:
        self.provider = provider
        self.topic = provider.topic(topic_name)
        self._connection = Connection(provider, "ws-messenger-backbone")
        self._connection.start()
        self._session = self._connection.create_session()
        self._producer = self._session.create_producer(self.topic)
        self._deliver: Optional[Deliver] = None
        self.messages_carried = 0

    def start(self, deliver: Deliver) -> None:
        self._deliver = deliver
        consumer = self._session.create_consumer(self.topic)

        # the consumer buffers; we drain synchronously after each publish,
        # which keeps the single-process simulation deterministic
        self._consumer = consumer

    def publish(self, payload: XElem, topic: Optional[str]) -> None:
        if self._deliver is None:
            raise RuntimeError("backbone not started")
        message = TextMessage(text=serialize_xml(payload))
        if topic is not None:
            message.set_property(self.TOPIC_PROPERTY, topic)
        self._producer.send(message)
        first_error: Optional[Exception] = None
        while True:
            received = self._consumer.receive()
            if received is None:
                break
            self.messages_carried += 1
            carried_topic = received.get_property(self.TOPIC_PROPERTY)
            try:
                self._deliver(parse_xml(received.text).freeze(), carried_topic)
            except Exception as exc:  # noqa: BLE001
                # one bad buffered message must not strand those queued
                # behind it; the first error still surfaces after the drain,
                # any further ones are counted rather than silently lost
                if first_error is None:
                    first_error = exc
                else:
                    self._count_swallow("messenger.adapters.jms_drain", exc)
        if first_error is not None:
            raise first_error

    def describe(self) -> str:
        return f"jms(topic={self.topic.name})"


class CorbaBackbone(MessagingBackbone):
    """Routes broker traffic through a CORBA Notification channel.

    Payload XML rides as the remainder-of-body of a structured event; the
    WS topic becomes filterable data.  The event round-trips through CDR via
    the push consumer proxy and an ORB-registered consumer servant.
    """

    def __init__(self, orb: Optional[Orb] = None) -> None:
        self.orb = orb or Orb("ws-messenger")
        self.channel = NotificationChannel(self.orb)
        self._deliver: Optional[Deliver] = None
        self.messages_carried = 0

    def start(self, deliver: Deliver) -> None:
        self._deliver = deliver

        def consumer_servant(operation: str, args: list) -> None:
            events = args[0] if operation == "push_structured_events" else [args[0]]
            first_error: Optional[Exception] = None
            for wire in events:
                event = StructuredEvent.from_wire(wire)
                self.messages_carried += 1
                topic = event.filterable_data.get("wsTopic")
                try:
                    deliver(parse_xml(event.payload).freeze(), topic)
                except Exception as exc:  # noqa: BLE001
                    # same contract as the JMS drain: finish the batch, then
                    # surface the first error; count the rest
                    if first_error is None:
                        first_error = exc
                    else:
                        self._count_swallow("messenger.adapters.corba_push", exc)
            if first_error is not None:
                raise first_error

        consumer_ref = self.orb.register(consumer_servant)
        proxy = self.channel.new_for_consumers().obtain_structured_push_supplier()
        proxy.connect_structured_push_consumer(consumer_ref)
        self._supplier = self.channel.new_for_suppliers().obtain_structured_push_consumer()

    def publish(self, payload: XElem, topic: Optional[str]) -> None:
        if self._deliver is None:
            raise RuntimeError("backbone not started")
        event = StructuredEvent(
            domain_name="ws-messenger",
            type_name="Notification",
            filterable_data={"wsTopic": topic} if topic is not None else {},
            payload=serialize_xml(payload),
        )
        self._supplier.push_structured_event(event)

    def describe(self) -> str:
        return "corba-notification"
