"""Minimal HTTP/1.1 framing for SOAP messages.

Every envelope crosses the simulated wire as a real HTTP request so the
benchmarks can account true message sizes (Table 3's "message transport" row
contrasts RPC-bound protocols with transport-independent SOAP; we demonstrate
the HTTP binding while the codec itself stays transport-agnostic).

Framing is strict in both directions: the head must be pure ASCII with
CRLF-free header fields, and a declared ``Content-Length`` must match the
body byte-for-byte.  Anything else raises :class:`HttpFramingError` — a
mismatch silently accepted here would let a truncated or padded envelope
masquerade as the real message, which is exactly the class of wire-fidelity
bug the conformance fuzzer exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from urllib.parse import urlsplit

_CRLF = "\r\n"
_XML = "text/xml; charset=utf-8"

#: trace-context request header (see :mod:`repro.obs.propagation`).
#: Instrumented sends carry lineage here — in the HTTP head, the way W3C
#: ``traceparent`` rides — so the SOAP envelope bytes stay identical with
#: and without instrumentation.
LINEAGE_HTTP_HEADER = "X-Lineage"


class HttpFramingError(ValueError):
    """Malformed HTTP framing on the simulated wire."""


@dataclass
class HttpRequest:
    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


@dataclass
class HttpResponse:
    status: int
    reason: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def _require_token(value: str, what: str) -> str:
    """An ASCII, CR/LF-free header field; raises HttpFramingError otherwise."""
    if not value.isascii():
        raise HttpFramingError(f"non-ASCII {what}: {value!r}")
    if "\r" in value or "\n" in value:
        raise HttpFramingError(f"CR/LF in {what}: {value!r}")
    return value


@lru_cache(maxsize=256)
def request_head(url: str, soap_action: str = "", content_type: str = _XML) -> tuple[bytes, bytes]:
    """Validate and frame what a SOAP POST to ``url`` says apart from its
    body: the bytes before and after the ``Content-Length`` value.

    The one framing code: :func:`build_request` calls it per request, and a
    subscription keeps the result for its consumer, so a push validates and
    frames its head once and not per delivery; pure, so the last answers are
    remembered (a refusal never is) and a repeated control call frames none.
    """
    if any(ch <= " " for ch in url):
        # controls and SP must be rejected before urlsplit sees them: a SP in
        # the request-target would mis-split the request line on parse, and
        # urlsplit *silently strips* tab/CR/LF (WHATWG sanitization) — either
        # way the target on the wire would not be the one the caller addressed
        # (RFC 7230 §3.1.1 requires percent-encoding)
        raise HttpFramingError(f"control character or space in request URL: {url!r}")
    parts = urlsplit(url)
    # origin-form (RFC 7230 §5.3.1): the absolute path *and* the query
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    before = (
        f"POST {_require_token(target, 'request target')} HTTP/1.1{_CRLF}"
        f"Host: {_require_token(parts.netloc or 'localhost', 'Host')}{_CRLF}"
        f"Content-Type: {_require_token(content_type, 'Content-Type')}{_CRLF}"
        "Content-Length: "
    )
    after = f'{_CRLF}SOAPAction: "{_require_token(soap_action, "SOAPAction")}"{_CRLF}'
    return before.encode("ascii"), after.encode("ascii")


def build_request(
    url: str,
    body: bytes,
    *,
    soap_action: str = "",
    content_type: str = _XML,
    lineage: str | None = None,
    head: tuple[bytes, bytes] | None = None,
) -> bytes:
    """Frame a SOAP POST to ``url``.

    ``head`` is a :func:`request_head` already framed for this URL, action
    and content type (they are then not looked at again).  ``lineage`` is the
    optional trace-context value; when given it is emitted as an
    ``X-Lineage`` header so instrumented sends never alter the envelope
    bytes themselves.
    """
    before, after = head or request_head(url, soap_action, content_type)
    if lineage is not None:
        after += _lineage_line(lineage)
    return b"%b%d%b\r\n%b" % (before, len(body), after, body)


@lru_cache(maxsize=256)
def _lineage_line(lineage: str) -> bytes:
    """The ``X-Lineage`` line, validated and framed once per lineage text (a
    publish's deliveries share one) the way :func:`request_head` is."""
    text = _require_token(lineage, LINEAGE_HTTP_HEADER)
    return f"{LINEAGE_HTTP_HEADER}: {text}{_CRLF}".encode("ascii")


def _head_lines(wire: bytes) -> tuple[list[str], bytes]:
    """The header section of a message, line by line, and its body."""
    head, sep, body = wire.partition(b"\r\n\r\n")
    if not sep:
        raise HttpFramingError("no header/body separator (CRLFCRLF)")
    try:
        return head.decode("ascii").split(_CRLF), body
    except UnicodeDecodeError as exc:
        raise HttpFramingError(f"non-ASCII bytes in header section: {exc}") from exc


def parse_request(wire: bytes) -> HttpRequest:
    lines, body = _head_lines(wire)
    if not lines or " " not in lines[0]:
        raise HttpFramingError("missing request line")
    try:
        method, path, _version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise HttpFramingError(f"bad request line: {lines[0]!r}") from exc
    headers, length_name = _parse_headers(lines[1:])
    return HttpRequest(method, path, headers, _checked_body(headers, length_name, body))


_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request", 500: "Internal Server Error"}


def build_response(status: int, body: bytes = b"", reason: str | None = None) -> bytes:
    if status == 202 and not body and reason is None:
        return _ACCEPTED
    reason = _require_token(reason or _REASONS.get(status, "Unknown"), "reason phrase")
    head = (
        f"HTTP/1.1 {status} {reason}{_CRLF}Content-Type: {_XML}{_CRLF}"
        f"Content-Length: {len(body)}{_CRLF}{_CRLF}"
    )
    return head.encode("ascii") + body


#: the one canonical empty ``202 Accepted`` — what every one-way push is
#: answered with, so it is framed once here and recognised by equality below
_ACCEPTED = build_response(202, reason="Accepted")


def parse_response(wire: bytes) -> HttpResponse:
    if wire == _ACCEPTED:
        # byte-for-byte the canonical answer: stricter than parsing it
        return HttpResponse(202, "Accepted", {"Content-Type": _XML, "Content-Length": "0"})
    lines, body = _head_lines(wire)
    if not lines or not lines[0].startswith("HTTP/"):
        raise HttpFramingError("missing status line")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2:
        raise HttpFramingError(f"bad status line: {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise HttpFramingError(f"non-numeric status: {parts[1]!r}") from exc
    reason = parts[2] if len(parts) > 2 else ""
    headers, length_name = _parse_headers(lines[1:])
    return HttpResponse(status, reason, headers, _checked_body(headers, length_name, body))


def _parse_headers(lines: list[str]) -> tuple[dict[str, str], str | None]:
    """The header fields, and the name of the first one that spells
    ``Content-Length`` in any case (None: there is none).  A field repeated
    under one name keeps its first position and its last value."""
    headers: dict[str, str] = {}
    length_name = None
    for line in lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        name = name.strip()
        if not sep or not name:
            raise HttpFramingError(f"malformed header line: {line!r}")
        headers[name] = value.strip()
        # 14 = len("Content-Length"): no other name is lowercased to be compared
        if length_name is None and len(name) == 14 and name.lower() == "content-length":
            length_name = name
    return headers, length_name


def _checked_body(headers: dict[str, str], length_name: str | None, body: bytes) -> bytes:
    """Validate the body against a declared Content-Length.

    With no declared length the body is taken as delimited by the wire blob
    itself (the simulated transport always hands over whole messages); with
    one, any mismatch — short, long, or unparsable — is a framing error, not
    a silent truncation.
    """
    if length_name is None:
        return body
    value = headers[length_name]
    try:
        declared = int(value)
    except ValueError as exc:
        raise HttpFramingError(f"bad Content-Length: {value!r}") from exc
    if declared < 0:
        raise HttpFramingError(f"negative Content-Length: {declared}")
    if declared != len(body):
        raise HttpFramingError(
            f"Content-Length mismatch: declared {declared}, body has {len(body)} bytes"
        )
    return body
