"""The CORBA Notification 13 QoS properties and the JMS QoS criteria."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping


class QosError(ValueError):
    """An unsupported QoS property or an invalid value (CORBA's
    UnsupportedQoS exception)."""


class OrderPolicy(Enum):
    ANY_ORDER = "AnyOrder"
    FIFO_ORDER = "FifoOrder"
    PRIORITY_ORDER = "PriorityOrder"
    DEADLINE_ORDER = "DeadlineOrder"


class DiscardPolicy(Enum):
    ANY_ORDER = "AnyOrder"
    FIFO_ORDER = "FifoOrder"
    LIFO_ORDER = "LifoOrder"
    PRIORITY_ORDER = "PriorityOrder"
    DEADLINE_ORDER = "DeadlineOrder"


#: the 13 properties the CORBA Notification Service specification defines
#: (must be *understood* by implementations, extendable with others)
CORBA_QOS_PROPERTIES: tuple[str, ...] = (
    "EventReliability",
    "ConnectionReliability",
    "Priority",
    "StartTime",
    "StopTime",
    "Timeout",
    "StartTimeSupported",
    "StopTimeSupported",
    "MaxEventsPerConsumer",
    "OrderPolicy",
    "DiscardPolicy",
    "MaximumBatchSize",
    "PacingInterval",
)

#: Table 3's JMS QoS criteria
JMS_QOS_CRITERIA: tuple[str, ...] = (
    "Priority",
    "Persistence",
    "Durability",
    "Transaction",
    "MessageOrder",
)

_DEFAULTS: dict[str, Any] = {
    "EventReliability": "BestEffort",
    "ConnectionReliability": "BestEffort",
    "Priority": 0,
    "StartTime": None,
    "StopTime": None,
    "Timeout": None,
    "StartTimeSupported": False,
    "StopTimeSupported": False,
    "MaxEventsPerConsumer": 0,  # 0 = unbounded
    "OrderPolicy": OrderPolicy.ANY_ORDER,
    "DiscardPolicy": DiscardPolicy.ANY_ORDER,
    "MaximumBatchSize": 1,
    "PacingInterval": 0.0,
}


@dataclass
class QosProfile:
    """A validated set of QoS property values (CORBA-style).

    Unknown properties are accepted only when ``allow_extensions`` — the spec
    allows vendors to extend beyond the 13, but every implementation must
    understand the 13.
    """

    values: dict[str, Any] = field(default_factory=dict)
    allow_extensions: bool = False

    def __post_init__(self) -> None:
        for name, value in self.values.items():
            self._validate(name, value)

    def _validate(self, name: str, value: Any) -> None:
        if name not in CORBA_QOS_PROPERTIES:
            if not self.allow_extensions:
                raise QosError(f"unknown QoS property {name!r}")
            return
        if name == "Priority" and not isinstance(value, int):
            raise QosError("Priority must be an integer")
        if name == "Priority" and not (-32767 <= value <= 32767):
            raise QosError("Priority out of CORBA short range")
        if name == "MaxEventsPerConsumer" and (not isinstance(value, int) or value < 0):
            raise QosError("MaxEventsPerConsumer must be a non-negative integer")
        if name == "MaximumBatchSize" and (not isinstance(value, int) or value < 1):
            raise QosError("MaximumBatchSize must be a positive integer")
        if name == "OrderPolicy" and not isinstance(value, OrderPolicy):
            raise QosError("OrderPolicy must be an OrderPolicy value")
        if name == "DiscardPolicy" and not isinstance(value, DiscardPolicy):
            raise QosError("DiscardPolicy must be a DiscardPolicy value")
        if name in ("EventReliability", "ConnectionReliability") and value not in (
            "BestEffort",
            "Persistent",
        ):
            raise QosError(f"{name} must be BestEffort or Persistent")
        if name == "Timeout" and value is not None and value < 0:
            raise QosError("Timeout must be non-negative")

    def set(self, name: str, value: Any) -> None:
        self._validate(name, value)
        self.values[name] = value

    def get(self, name: str) -> Any:
        if name in self.values:
            return self.values[name]
        if name in _DEFAULTS:
            return _DEFAULTS[name]
        raise QosError(f"unknown QoS property {name!r}")

    def merged_with(self, overrides: Mapping[str, Any]) -> "QosProfile":
        merged = dict(self.values)
        merged.update(overrides)
        return QosProfile(merged, allow_extensions=self.allow_extensions)
