"""A miniature Object Request Broker with GIOP-style framing.

Every operation invocation between CORBA objects marshals its arguments to
CDR, wraps them in a GIOP-like request frame, routes through the ORB, and
unmarshals on the far side — so the baseline pays the real serialization
costs Table 3's "RPC / binary CDR" row implies, and the benchmarks can
account wire bytes for CORBA just as they do for SOAP.

The interoperability limitation the paper dwells on (section VI.A: CORBA
solutions "depend on a single vendor's implementation... can only achieve
interoperability on the intranet scale") is modelled by object references:
one resolves only at the ORB instance that issued it, so an invocation
routed to any other ORB is refused before its frame is read.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Any, Callable

from repro.baselines.corba.cdr import CdrDecoder, CdrEncoder, CdrError

_GIOP_MAGIC = b"GIOP"
_REQUEST = 0
_REPLY = 1
_REPLY_OK = 0
_REPLY_EXCEPTION = 1


class CorbaError(Exception):
    """A CORBA system or user exception surfaced to the caller."""


@dataclass(frozen=True)
class ObjectReference:
    """An IOR-like reference: resolvable only within its home ORB."""

    orb_id: str
    object_key: str

    def __str__(self) -> str:
        return f"IOR:{self.orb_id}/{self.object_key}"


Servant = Callable[[str, list[Any]], Any]  # (operation, args) -> result


class Orb:
    """Routes marshalled invocations to registered servants."""

    def __init__(self, vendor: str = "acme-orb") -> None:
        self.orb_id = f"{vendor}-{id(self) & 0xFFFF:04x}"
        self._counter = itertools.count(1)
        self._servants: dict[str, Servant] = {}
        self.frames_routed = 0
        self.bytes_routed = 0

    # --- registration ------------------------------------------------------------

    def register(self, servant: Servant, *, key: str | None = None) -> ObjectReference:
        object_key = key or f"obj-{next(self._counter)}"
        self._servants[object_key] = servant
        return ObjectReference(self.orb_id, object_key)

    # --- invocation ----------------------------------------------------------------

    def invoke(self, reference: ObjectReference, operation: str, args: list[Any]) -> Any:
        """Marshal, frame, route, unframe, unmarshal — a full GIOP round trip."""
        request = self._frame_request(reference, operation, args)
        reply = self._route(reference, request)
        return self._parse_reply(reply)

    def _frame_request(
        self, reference: ObjectReference, operation: str, args: list[Any]
    ) -> bytes:
        body = CdrEncoder()
        body.put_string(self.orb_id)  # requesting ORB
        body.put_string(reference.object_key)
        body.put_string(operation)
        body.put_ulong(len(args))
        for arg in args:
            body.put_any(arg)
        payload = body.data()
        header = _GIOP_MAGIC + struct.pack(">BBBBI", 1, 2, 0, _REQUEST, len(payload))
        return header + payload

    def _route(self, reference: ObjectReference, frame: bytes) -> bytes:
        self.frames_routed += 1
        self.bytes_routed += len(frame)
        if reference.orb_id != self.orb_id:
            raise CorbaError(
                f"object reference {reference} is foreign to ORB {self.orb_id}; "
                "CORBA interoperates at intranet scale only"
            )
        decoder = CdrDecoder(frame[12:])  # the GIOP header is invoke's own framing
        try:
            decoder.get_string()  # the requesting ORB: on the wire, checked by nothing
            object_key = decoder.get_string()
            operation = decoder.get_string()
            args = [decoder.get_any() for _ in range(decoder.get_ulong())]
        except CdrError as exc:
            raise CorbaError(f"unmarshalling failed: {exc}") from exc
        servant = self._servants.get(object_key)
        if servant is None:
            return self._frame_reply(_REPLY_EXCEPTION, f"OBJECT_NOT_EXIST: {object_key}")
        try:
            result = servant(operation, args)
        except CorbaError as exc:
            return self._frame_reply(_REPLY_EXCEPTION, str(exc))
        try:
            return self._frame_reply(_REPLY_OK, result)
        except CdrError as exc:
            return self._frame_reply(_REPLY_EXCEPTION, f"reply marshalling failed: {exc}")

    def _frame_reply(self, status: int, value: Any) -> bytes:
        body = CdrEncoder()
        body.put_octet(status)
        body.put_any(value)
        payload = body.data()
        header = _GIOP_MAGIC + struct.pack(">BBBBI", 1, 2, 0, _REPLY, len(payload))
        return header + payload

    def _parse_reply(self, frame: bytes) -> Any:
        self.bytes_routed += len(frame)
        decoder = CdrDecoder(frame[12:])
        status = decoder.get_octet()
        value = decoder.get_any()
        if status == _REPLY_EXCEPTION:
            raise CorbaError(str(value))
        return value
