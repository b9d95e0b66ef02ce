"""QoS profile on the wire: a spec-neutral extension element.

Neither WS-Eventing nor WS-BaseNotification defines QoS vocabulary (the
Table 3 gap), but both leave extension slots in Subscribe — WSE via open
content, WSN 1.3 via ``SubscriptionPolicy``.  A consumer that wants CORBA
Notification-style properties carries them there as::

    <qos:Profile xmlns:qos="http://repro.invalid/qos">
      <qos:Property Name="Priority">7</qos:Property>
      <qos:Property Name="DiscardPolicy">LifoOrder</qos:Property>
    </qos:Profile>

Parsing is strict: unknown property names and malformed values raise
:class:`~repro.qos.properties.QosError`, which the subscribe handlers map
to a sender fault (CORBA's ``UnsupportedQoS`` surfaced in SOAP terms).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.qos.properties import DiscardPolicy, OrderPolicy, QosError, QosProfile
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import QName

#: namespace of this implementation's QoS extension vocabulary
QOS_NS = "http://repro.invalid/qos"
PROFILE = QName(QOS_NS, "Profile")
PROPERTY = QName(QOS_NS, "Property")
_NAME_ATTR = QName("", "Name")


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1"):
        return True
    if lowered in ("false", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


#: wire text -> property value, per understood property
_DECODERS: dict[str, Callable[[str], Any]] = {
    "EventReliability": str,
    "ConnectionReliability": str,
    "Priority": int,
    "StartTime": str,
    "StopTime": str,
    "Timeout": float,
    "StartTimeSupported": _parse_bool,
    "StopTimeSupported": _parse_bool,
    "MaxEventsPerConsumer": int,
    "OrderPolicy": OrderPolicy,
    "DiscardPolicy": DiscardPolicy,
    "MaximumBatchSize": int,
    "PacingInterval": float,
}


def _encode(value: Any) -> str:
    if isinstance(value, (OrderPolicy, DiscardPolicy)):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def profile_texts(profile: QosProfile) -> dict[str, str]:
    """A profile's explicitly-set values as ``{name: text}`` (wire and log)."""
    return {name: _encode(profile.values[name]) for name in sorted(profile.values)}


def profile_to_element(profile: QosProfile) -> XElem:
    """Render a profile's explicitly-set values as a ``qos:Profile``."""
    element = XElem(PROFILE)
    for name, text in profile_texts(profile).items():
        prop = text_element(PROPERTY, text)
        prop.attrs[_NAME_ATTR] = name
        element.append(prop)
    return element


def profile_from_texts(texts: Iterable[tuple[Optional[str], str]]) -> QosProfile:
    """A profile from ``(name, text)`` pairs — a ``qos:Profile``'s, or a
    logged ``{name: text}``'s items; :class:`QosError` on anything malformed."""
    values: dict[str, Any] = {}
    for name, text in texts:
        if not name:
            raise QosError("qos:Property without a Name attribute")
        decoder = _DECODERS.get(name)
        if decoder is None:
            raise QosError(f"unknown QoS property {name!r}")
        try:
            values[name] = decoder(text)
        except (ValueError, KeyError) as exc:
            raise QosError(f"bad value for QoS property {name}: {text!r}") from exc
    return QosProfile(values)


def profile_from_element(element: XElem) -> QosProfile:
    """Parse a ``qos:Profile``; :class:`QosError` on anything malformed."""
    properties = element.find_all(PROPERTY)
    return profile_from_texts((p.attrs.get(_NAME_ATTR), p.full_text().strip()) for p in properties)


def find_profile(parent: XElem) -> Optional[QosProfile]:
    """Parse the ``qos:Profile`` child of ``parent`` when present."""
    element = parent.find(PROFILE)
    if element is None:
        return None
    return profile_from_element(element)
