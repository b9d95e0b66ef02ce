"""CORBA event representations: generic (any) and structured.

The Notification Service "introduced 'Structured Events' which provides a
well-defined data structure to map a generic event to a well structured
event.  The structured event is useful for efficient filtering." (paper
section VI.A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass
class StructuredEvent:
    """A CORBA structured event.

    - fixed header: domain name / type name / event name;
    - variable header: QoS-ish per-event properties (e.g. Priority);
    - filterable body: name/value pairs that filter constraints inspect;
    - remainder of body: the opaque payload.
    """

    domain_name: str = ""
    type_name: str = ""
    event_name: str = ""
    variable_header: dict[str, Any] = field(default_factory=dict)
    filterable_data: dict[str, Any] = field(default_factory=dict)
    payload: Any = None

    def to_mapping(self) -> dict[str, Any]:
        """The nested-mapping shape the TCL evaluator consumes."""
        return {
            "header": {
                "fixed_header": {
                    "event_type": {
                        "domain_name": self.domain_name,
                        "type_name": self.type_name,
                    },
                    "event_name": self.event_name,
                },
                "variable_header": dict(self.variable_header),
            },
            "filterable_data": dict(self.filterable_data),
            "variable_header": dict(self.variable_header),
            "remainder_of_body": self.payload,
        }

    def to_wire(self) -> dict[str, Any]:
        """CDR-marshallable form (struct of structs)."""
        return {
            "domain_name": self.domain_name,
            "type_name": self.type_name,
            "event_name": self.event_name,
            "variable_header": dict(self.variable_header),
            "filterable_data": dict(self.filterable_data),
            "payload": self.payload,
        }

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "StructuredEvent":
        return cls(
            domain_name=wire.get("domain_name", ""),
            type_name=wire.get("type_name", ""),
            event_name=wire.get("event_name", ""),
            variable_header=dict(wire.get("variable_header", {})),
            filterable_data=dict(wire.get("filterable_data", {})),
            payload=wire.get("payload"),
        )

    @property
    def priority(self) -> int:
        value = self.variable_header.get("Priority", 0)
        return value if isinstance(value, int) else 0
