"""WS-Reliability-style at-least-once delivery with duplicate suppression.

Sequence headers (sequence id + message number) ride alongside unmodified
WSE/WSN payloads; the sender resends on transient loss, the receiver
suppresses duplicates, so end-to-end semantics become exactly-once over a
lossy wire — composed entirely outside the notification specifications.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.soap.envelope import SoapEnvelope
from repro.transport.endpoint import ActionHandler, SoapClient, SoapEndpoint
from repro.transport.network import MessageLost
from repro.wsa.epr import EndpointReference
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import QName

#: WS-Reliability 1.1-era namespace (abbreviated)
WSRM_NS = "http://docs.oasis-open.org/wsrm/2004/06/reference-1.1"
SEQUENCE_HEADER = QName(WSRM_NS, "Sequence")
_SEQ_ID = QName(WSRM_NS, "Identifier")
_SEQ_NUMBER = QName(WSRM_NS, "MessageNumber")

_sequence_counter = itertools.count(1)


def _sequence_block(sequence_id: str, number: int) -> XElem:
    block = XElem(SEQUENCE_HEADER)
    block.append(text_element(_SEQ_ID, sequence_id))
    block.append(text_element(_SEQ_NUMBER, str(number)))
    return block


def sequence_of(envelope: SoapEnvelope) -> Optional[tuple[str, int]]:
    header = envelope.header(SEQUENCE_HEADER)
    if header is None:
        return None
    identifier = header.find(_SEQ_ID)
    number = header.find(_SEQ_NUMBER)
    if identifier is None or number is None:
        return None
    try:
        return identifier.full_text().strip(), int(number.full_text().strip())
    except ValueError:
        return None


class ReliableChannel:
    """Sender side: numbered, resent-on-loss one-way messages."""

    def __init__(
        self,
        client: SoapClient,
        target: EndpointReference,
        *,
        max_retries: int = 3,
    ) -> None:
        self.client = client
        self.target = target
        self.max_retries = max_retries
        self.sequence_id = f"urn:uuid:seq-{next(_sequence_counter):06d}"
        self._next_number = itertools.count(1)
        self.resends = 0
        self.gave_up = 0

    def send(self, action: str, body: XElem) -> bool:
        """Send one message at-least-once; True if it was acknowledged."""
        number = next(self._next_number)
        block = _sequence_block(self.sequence_id, number)
        for _attempt in range(self.max_retries + 1):
            try:
                self.client.call(
                    self.target,
                    action,
                    [body.copy()],
                    expect_reply=False,
                    extra_headers=[block],
                )
                return True
            except MessageLost:
                self.resends += 1
                continue
        self.gave_up += 1
        return False


def make_reliable(endpoint: SoapEndpoint) -> None:
    """Receiver side: suppress duplicate (sequence, number) deliveries.

    Duplicates are acknowledged (2xx) without re-invoking the handler, so a
    resent notification is never processed twice.
    """
    seen: set[tuple[str, int]] = set()

    def wrap(handler: ActionHandler) -> ActionHandler:
        def deduplicating(envelope, headers):
            sequence = sequence_of(envelope)
            if sequence is not None:
                if sequence in seen:
                    return None  # duplicate: ack, do not reprocess
                seen.add(sequence)
            return handler(envelope, headers)

        return deduplicating

    endpoint._handlers = {action: wrap(h) for action, h in endpoint._handlers.items()}
    if endpoint._fallback is not None:
        endpoint._fallback = wrap(endpoint._fallback)
