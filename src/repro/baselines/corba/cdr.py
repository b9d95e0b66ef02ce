"""Common Data Representation (CDR) marshalling.

Table 3's CORBA columns note "the message payload is in a binary format
known as Common Data Representation (CDR)".  This module implements the CDR
core: big-endian primitives with natural alignment, length-prefixed strings,
sequences, and a tagged ``any``-style encoding for dynamically typed values
(the generic events of the Event Service and the fields of structured
events).
"""

from __future__ import annotations

import struct
from typing import Any


class CdrError(ValueError):
    """Malformed CDR data or an unmarshallable value."""


# type tags for the dynamic (any) encoding
_TAG_NULL = 0
_TAG_BOOLEAN = 1
_TAG_LONG = 2
_TAG_DOUBLE = 3
_TAG_STRING = 4
_TAG_SEQUENCE = 5
_TAG_STRUCT = 6


class CdrEncoder:
    """Marshals values into a big-endian, naturally aligned CDR buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def data(self) -> bytes:
        return bytes(self._buffer)

    def _align(self, boundary: int) -> None:
        remainder = len(self._buffer) % boundary
        if remainder:
            self._buffer.extend(b"\x00" * (boundary - remainder))

    # --- primitives -----------------------------------------------------------

    def put_octet(self, value: int) -> "CdrEncoder":
        self._buffer.append(value & 0xFF)
        return self

    def put_boolean(self, value: bool) -> "CdrEncoder":
        return self.put_octet(1 if value else 0)

    def put_long(self, value: int) -> "CdrEncoder":
        self._align(4)
        try:
            self._buffer.extend(struct.pack(">i", value))
        except struct.error as exc:
            raise CdrError(f"long out of range: {value}") from exc
        return self

    def put_ulong(self, value: int) -> "CdrEncoder":
        self._align(4)
        try:
            self._buffer.extend(struct.pack(">I", value))
        except struct.error as exc:
            raise CdrError(f"ulong out of range: {value}") from exc
        return self

    def put_double(self, value: float) -> "CdrEncoder":
        self._align(8)
        self._buffer.extend(struct.pack(">d", value))
        return self

    def put_string(self, value: str) -> "CdrEncoder":
        encoded = value.encode("utf-8") + b"\x00"
        self.put_ulong(len(encoded))
        self._buffer.extend(encoded)
        return self

    # --- dynamic values ------------------------------------------------------------

    def put_any(self, value: Any) -> "CdrEncoder":
        if value is None:
            self.put_octet(_TAG_NULL)
        elif isinstance(value, bool):
            self.put_octet(_TAG_BOOLEAN)
            self.put_boolean(value)
        elif isinstance(value, int):
            self.put_octet(_TAG_LONG)
            self.put_long(value)
        elif isinstance(value, float):
            self.put_octet(_TAG_DOUBLE)
            self.put_double(value)
        elif isinstance(value, str):
            self.put_octet(_TAG_STRING)
            self.put_string(value)
        elif isinstance(value, (list, tuple)):
            self.put_octet(_TAG_SEQUENCE)
            self.put_ulong(len(value))
            for item in value:
                self.put_any(item)
        elif isinstance(value, dict):
            self.put_octet(_TAG_STRUCT)
            self.put_ulong(len(value))
            for key, item in value.items():
                if not isinstance(key, str):
                    raise CdrError(f"struct keys must be strings, got {type(key).__name__}")
                self.put_string(key)
                self.put_any(item)
        else:
            raise CdrError(f"cannot marshal {type(value).__name__}")
        return self


class CdrDecoder:
    """Unmarshals a CDR buffer produced by :class:`CdrEncoder`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def _align(self, boundary: int) -> None:
        remainder = self._offset % boundary
        if remainder:
            self._offset += boundary - remainder

    def _take(self, count: int) -> bytes:
        if self._offset + count > len(self._data):
            raise CdrError("truncated CDR buffer")
        chunk = self._data[self._offset : self._offset + count]
        self._offset += count
        return chunk

    # --- primitives -----------------------------------------------------------

    def get_octet(self) -> int:
        return self._take(1)[0]

    def get_boolean(self) -> bool:
        return self.get_octet() != 0

    def get_long(self) -> int:
        self._align(4)
        return struct.unpack(">i", self._take(4))[0]

    def get_ulong(self) -> int:
        self._align(4)
        return struct.unpack(">I", self._take(4))[0]

    def get_double(self) -> float:
        self._align(8)
        return struct.unpack(">d", self._take(8))[0]

    def get_string(self) -> str:
        length = self.get_ulong()
        raw = self._take(length)
        if not raw.endswith(b"\x00"):
            raise CdrError("string not NUL-terminated")
        return raw[:-1].decode("utf-8")

    # --- dynamic values ------------------------------------------------------------

    def get_any(self) -> Any:
        tag = self.get_octet()
        if tag == _TAG_NULL:
            return None
        if tag == _TAG_BOOLEAN:
            return self.get_boolean()
        if tag == _TAG_LONG:
            return self.get_long()
        if tag == _TAG_DOUBLE:
            return self.get_double()
        if tag == _TAG_STRING:
            return self.get_string()
        if tag == _TAG_SEQUENCE:
            return [self.get_any() for _ in range(self.get_ulong())]
        if tag == _TAG_STRUCT:
            count = self.get_ulong()
            return {self.get_string(): self.get_any() for _ in range(count)}
        raise CdrError(f"unknown CDR any tag {tag}")
