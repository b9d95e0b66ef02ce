"""Wire-level trace propagation: the lineage header.

In-process tracing (:mod:`repro.obs.tracing`) connects spans through a
synchronous call stack, which breaks at every point where a message's life
continues *outside* the stack that produced it: a retry fired later by the
delivery scheduler, a message parked in a broker-side box and drained by
pull, or simply the logical process boundary between two endpoints.  This
module carries the causal chain across those gaps the way W3C Trace Context
carries it across HTTP services: as a header on the message itself.

The context rides the HTTP binding as a request header — exactly where
W3C ``traceparent`` lives::

    X-Lineage: 01-lin-00000007-0000002a-02

``01`` is the format version, then the lineage id (one per published
notification, minted at the root publish), the parent span id (hex), and the
hop count (hex) — the number of wire hops the message has crossed when the
receiver sees it.  Injection happens in :class:`~repro.transport.endpoint.
SoapClient` at request framing (instrumented runs only, so the SOAP
envelope bytes are *identical* with and without instrumentation — the
observability fast path never pays an extra XML element through the
serializer and parser); extraction happens in :class:`~repro.transport.
endpoint.SoapEndpoint` as a dict probe on the parsed request head.  A
missing or malformed header never faults a message: extraction degrades to
``None`` and the dispatch starts a fresh root span, exactly as before this
module existed.

Decoding is memoised per header text, in a bounded LRU table: a fan-out
sends one text to many consumers, and a context is an immutable value.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

#: wire-format version field (bump on any encoding change)
FORMAT_VERSION = "01"

DECODE_MEMO_CAP = 256  # most header texts LineageContext.decode remembers


class LineageContext:
    """One message's position in its trace: lineage, parent span, hop.

    ``hop`` counts wire hops crossed since the root publish.  A context held
    by the *sender* (a continuation context, e.g. stored on a queued delivery
    task) carries the sender's own hop; :meth:`step` derives the receiver's
    context, one hop further.

    A plain ``__slots__`` class rather than a dataclass: one is built per
    traced send and per queued delivery task, so construction cost shows up
    in the instrumentation-overhead benchmark.  Value semantics (eq/hash)
    are kept — contexts are still treated as immutable records.
    """

    __slots__ = ("lineage_id", "parent_span", "hop", "_wire_text")

    def __init__(self, lineage_id: str, parent_span: int, hop: int) -> None:
        self.lineage_id = lineage_id
        self.parent_span = parent_span
        self.hop = hop
        #: memoized stepped wire form (a context is immutable, and batched
        #: fan-out injects the same context into many outgoing requests)
        self._wire_text: Optional[str] = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LineageContext)
            and self.lineage_id == other.lineage_id
            and self.parent_span == other.parent_span
            and self.hop == other.hop
        )

    def __hash__(self) -> int:
        return hash((self.lineage_id, self.parent_span, self.hop))

    def __repr__(self) -> str:
        return (
            f"LineageContext(lineage_id={self.lineage_id!r}, "
            f"parent_span={self.parent_span}, hop={self.hop})"
        )

    def step(self) -> "LineageContext":
        """The context as seen one wire hop downstream."""
        return LineageContext(self.lineage_id, self.parent_span, self.hop + 1)

    def wire_text(self) -> str:
        """``step().encode()`` without the intermediate context, memoized."""
        text = self._wire_text
        if text is None:
            parent = min(self.parent_span, 0xFFFFFFFF)
            hop = min(self.hop + 1, 0xFF)
            text = self._wire_text = (
                f"{FORMAT_VERSION}-{self.lineage_id}-{parent:08x}-{hop:02x}"
            )
        return text

    def encode(self) -> str:
        # fields are fixed-width on the wire; saturate rather than overflow
        parent = min(self.parent_span, 0xFFFFFFFF)
        hop = min(self.hop, 0xFF)
        return f"{FORMAT_VERSION}-{self.lineage_id}-{parent:08x}-{hop:02x}"

    @classmethod
    @lru_cache(maxsize=DECODE_MEMO_CAP)
    def decode(cls, text: str) -> Optional["LineageContext"]:
        """Parse the header text; ``None`` on anything malformed."""
        parts = text.strip().rsplit("-", 2)
        if len(parts) != 3:
            return None
        head, parent_hex, hop_hex = parts
        version, sep, lineage_id = head.partition("-")
        if not sep or version != FORMAT_VERSION or not lineage_id:
            return None
        # fixed-width fields: a short tail would otherwise mis-split a
        # truncated header into a plausible-looking context
        if len(parent_hex) != 8 or len(hop_hex) != 2:
            return None
        try:
            parent_span = int(parent_hex, 16)
            hop = int(hop_hex, 16)
        except ValueError:
            return None
        if parent_span < 0 or hop < 0:
            return None
        return cls(lineage_id=lineage_id, parent_span=parent_span, hop=hop)

