"""Typed log records — the durable vocabulary of the broker.

Every record is a frozen dataclass with a ``kind`` tag and a flat,
JSON-serializable ``to_dict`` form (:func:`record_from_dict` is the
inverse; :func:`encode_line` writes it as a log-file line).  Timestamps are
virtual-clock seconds, so a log replayed under the same clock is
bit-for-bit deterministic.

The records fall into three groups:

* **subscription lifecycle** — :class:`SubscribeRecorded` (the grant as
  made, not the request: replay restores it with its id, so the manager
  EPRs clients hold stay valid, and its absolute expiry),
  :class:`RenewRecorded`, :class:`RemoveRecorded`,
  :class:`PauseRecorded`, :class:`PullDrainRecorded`;
* **publishes** — :class:`PublishRecorded`, appended *before* fan-out
  (the transactional outbox);
* **delivery outcomes** — :class:`OutcomeRecorded`, keyed by
  ``(message_id, sink)``: the idempotency key that makes crash-replay
  exactly-once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

#: outcome states a delivery obligation can settle into.  ``delivered``,
#: ``dead`` and ``drained`` are terminal; ``parked`` is an open obligation
#: waiting in a message box; ``replayed`` reopens a ``dead`` key (DLQ
#: replay); ``routed`` marks a publish forwarded to its owning mesh shard
#: (no local fan-out to reproduce).
OUTCOMES = frozenset(
    {"delivered", "parked", "dead", "drained", "replayed", "routed"}
)


class _Record:
    """What every record shares: a ``kind`` tag and a flat dict form."""

    kind: ClassVar[str]

    def to_dict(self) -> Dict[str, Any]:
        return {**self.__dict__, "kind": self.kind}


@dataclass(frozen=True)
class SubscribeRecorded(_Record):
    """A granted Subscribe: the :class:`~repro.subscriptions.Grant` made, not the request."""

    kind: ClassVar[str] = "subscribe"
    at: float
    family: str  # "wse" | "wsn"
    tag: str  # version tag, e.g. "v2004_08" / "v1_3"
    sub_id: str
    expires: Optional[float]  # granted *absolute* expiry (virtual seconds)
    consumer: Optional[str]  # the consumer's address; None in pull mode
    consumer_epr: Optional[str]  # the EPR whole, if it has reference parameters / properties
    end_to: Optional[str]
    end_to_epr: Optional[str]
    filter: Dict[str, Any]  # the filter parts (build_filter's arguments)
    qos: Optional[Dict[str, str]]  # the accepted QoS profile, property -> wire text
    mode: str  # "Push" | "Pull" | "Wrap"
    use_raw: bool
    topic: Optional[str]  # the topic expression a subscription keeps


@dataclass(frozen=True)
class RenewRecorded(_Record):
    """A granted Renew / SetTerminationTime: new absolute expiry."""

    kind: ClassVar[str] = "renew"
    at: float
    family: str
    tag: str
    sub_id: str
    expires: Optional[float]


@dataclass(frozen=True)
class RemoveRecorded(_Record):
    """A subscription leaving the store: unsubscribe, destroy or expiry."""

    kind: ClassVar[str] = "remove"
    at: float
    family: str
    tag: str
    sub_id: str
    reason: str = ""


@dataclass(frozen=True)
class PauseRecorded(_Record):
    """A WSN subscription paused (``paused=True``) or resumed."""

    kind: ClassVar[str] = "pause"
    at: float
    tag: str
    sub_id: str
    paused: bool


@dataclass(frozen=True)
class PullDrainRecorded(_Record):
    """A pull-mode WSE subscription drained ``count`` queued messages."""

    kind: ClassVar[str] = "pull_drain"
    at: float
    tag: str
    sub_id: str
    count: int


@dataclass(frozen=True)
class PublishRecorded(_Record):
    """The transactional outbox entry: appended before any fan-out."""

    kind: ClassVar[str] = "publish"
    at: float
    message_id: str
    topic: Optional[str]
    payload: str  # serialized event XML
    lineage: Optional[str]  # encoded LineageContext, if instrumented


@dataclass(frozen=True)
class OutcomeRecorded(_Record):
    """A delivery obligation settling; key = ``(message_id, sink)``."""

    kind: ClassVar[str] = "outcome"
    at: float
    message_id: str
    sink: str
    outcome: str  # one of OUTCOMES
    reason: str = ""


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)  # json.dumps' spellings


def _dict_text(value: Dict[str, Any]) -> str:
    """A nested object: keys sorted, each value through the same table."""
    text = _SCALAR_TEXT
    return "{%s}" % ",".join(f"{text[str](k)}:{text[type(v)](v)}" for k, v in sorted(value.items()))


#: JSON text of each value a record field can hold, by exact type
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    float: _float_text,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    dict: _dict_text,
}

_RECORD_TYPES = {cls.kind: cls for cls in _Record.__subclasses__()}


def _line_layout(cls: Type[Any]) -> Tuple[str, Tuple[str, ...]]:
    """A record's log line as a ``%`` template — keys sorted, the constant
    ``kind`` written in — and the field names its slots take, in order."""
    names = sorted([*(field.name for field in fields(cls)), "kind"])
    slots = [f'"kind":"{cls.kind}"' if n == "kind" else f'"{n}":%s' for n in names]
    return "{" + ",".join(slots) + "}\n", tuple(n for n in names if n != "kind")


_LINE_LAYOUTS = {cls: _line_layout(cls) for cls in _RECORD_TYPES.values()}


def encode_line(record: Any) -> str:
    """One log-file line for ``record``: byte for byte what
    ``json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))``
    plus a newline gives (ASCII only), without building the dict."""
    template, names = _LINE_LAYOUTS[type(record)]
    doc = record.__dict__
    return template % tuple([_SCALAR_TEXT[type(doc[n])](doc[n]) for n in names])


def record_from_dict(doc: Dict[str, Any]) -> Any:
    """Rebuild a typed record from its serialized form: its fields, no others."""
    kind = doc.get("kind")
    cls = _RECORD_TYPES.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown log record kind {kind!r}")
    return cls(**{key: value for key, value in doc.items() if key != "kind"})
