"""JMS message types and headers."""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class JmsError(Exception):
    """JMSException equivalent."""


class DeliveryMode(Enum):
    NON_PERSISTENT = 1
    PERSISTENT = 2


_id_counter = itertools.count(1)


@dataclass
class JmsMessage:
    """Base message: the JMS-defined header fields plus user properties.

    "JMS messages have well defined structure in the header field for
    efficient filtering" — selectors evaluate over :meth:`selector_fields`.
    """

    message_id: str = field(default_factory=lambda: f"ID:msg-{next(_id_counter)}")
    destination: Optional[str] = None
    delivery_mode: DeliveryMode = DeliveryMode.PERSISTENT
    priority: int = 4  # JMS default
    timestamp: float = 0.0
    expiration: float = 0.0  # 0 = never
    correlation_id: Optional[str] = None
    jms_type: Optional[str] = None
    redelivered: bool = False
    properties: dict[str, Any] = field(default_factory=dict)

    def set_property(self, name: str, value: Any) -> None:
        if not isinstance(value, (bool, int, float, str)):
            raise JmsError(f"property {name!r} has unsupported type {type(value).__name__}")
        self.properties[name] = value

    def get_property(self, name: str) -> Any:
        return self.properties.get(name)

    def selector_fields(self) -> dict[str, Any]:
        """Headers + properties, named as selectors reference them."""
        fields: dict[str, Any] = dict(self.properties)
        fields.update(
            JMSMessageID=self.message_id,
            JMSPriority=self.priority,
            JMSTimestamp=self.timestamp,
            JMSCorrelationID=self.correlation_id,
            JMSType=self.jms_type,
            JMSDeliveryMode=(
                "PERSISTENT" if self.delivery_mode is DeliveryMode.PERSISTENT else "NON_PERSISTENT"
            ),
            JMSRedelivered=self.redelivered,
        )
        return fields

    def is_expired(self, now: float) -> bool:
        return self.expiration > 0 and now >= self.expiration

    def body_copy(self) -> "JmsMessage":
        """A shallow header copy (bodies are immutable once sent here)."""
        import copy

        return copy.deepcopy(self)


@dataclass
class TextMessage(JmsMessage):
    text: str = ""


@dataclass
class BytesMessage(JmsMessage):
    data: bytes = b""

    def __post_init__(self) -> None:
        if not isinstance(self.data, (bytes, bytearray)):
            raise JmsError("BytesMessage body must be bytes")
        self.data = bytes(self.data)


@dataclass
class MapMessage(JmsMessage):
    body: dict[str, Any] = field(default_factory=dict)

    def set_value(self, name: str, value: Any) -> None:
        if not isinstance(value, (bool, int, float, str, bytes)):
            raise JmsError(f"MapMessage value for {name!r} has unsupported type")
        self.body[name] = value

    def get_value(self, name: str) -> Any:
        return self.body.get(name)


@dataclass
class StreamMessage(JmsMessage):
    items: list[Any] = field(default_factory=list)

    def write(self, value: Any) -> None:
        if not isinstance(value, (bool, int, float, str, bytes)):
            raise JmsError("StreamMessage items must be primitives")
        self.items.append(value)

    def read(self) -> Any:
        if not self.items:
            raise JmsError("MessageEOFException: stream exhausted")
        return self.items.pop(0)


@dataclass
class ObjectMessage(JmsMessage):
    """Carries a serializable object (pickled, standing in for Java
    serialization — the platform coupling Table 3 notes)."""

    _payload: bytes = b""

    def set_object(self, value: Any) -> None:
        try:
            self._payload = pickle.dumps(value)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:  # unpicklable
            raise JmsError(f"object not serializable: {exc}") from exc

    def get_object(self) -> Any:
        if not self._payload:
            return None
        return pickle.loads(self._payload)
