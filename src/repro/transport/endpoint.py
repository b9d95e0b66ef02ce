"""SOAP endpoints and clients over the simulated network.

A :class:`SoapEndpoint` registers under a URI, unframes incoming HTTP,
parses the SOAP envelope, extracts WS-Addressing headers and dispatches on
``wsa:Action`` — the coarse-grained, message-level interoperability style the
paper identifies as the key shift away from fine-grained API interop
(section VI, observation 6).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.instrument import BoundCounters
from repro.obs.propagation import LineageContext
from repro.render import control_envelope
from repro.soap.codec import parse_envelope, serialize_envelope
from repro.soap.envelope import SoapEnvelope, SoapVersion
from repro.soap.fault import FaultCode, SoapFault
from repro.transport.http import (
    LINEAGE_HTTP_HEADER,
    HttpFramingError,
    build_request,
    build_response,
    parse_request,
    parse_response,
)
from repro.transport.network import PUBLIC_ZONE, SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders, extract_headers
from repro.wsa.versions import WsaVersion
from repro.xmlkit.element import XElem

#: an action handler: (request envelope, addressing headers) -> reply (text or tree) or None
ActionHandler = Callable[[SoapEnvelope, MessageHeaders], Optional[str | SoapEnvelope]]


class SoapEndpoint:
    """A Web service bound to an address on the simulated network."""

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        *,
        zone: str = PUBLIC_ZONE,
        soap_version: SoapVersion = SoapVersion.V11,
    ) -> None:
        self.network = network
        self.address = address
        self.zone = zone
        self.soap_version = soap_version
        self._handlers: dict[str, ActionHandler] = {}
        self._fallback: Optional[ActionHandler] = None
        #: pre-bound endpoint.requests counters, one per status (see
        #: repro.obs.instrument.BoundCounters) — this endpoint counts per
        #: dispatched request, so it never rebuilds metric keys
        self._request_counters = BoundCounters()
        network.register(address, self._handle_wire, zone=zone)

    def epr(self) -> EndpointReference:
        return EndpointReference(self.address)

    def on_action(self, action: str, handler: ActionHandler) -> "SoapEndpoint":
        """Register a handler for one ``wsa:Action`` URI."""
        self._handlers[action] = handler
        return self

    def on_any(self, handler: ActionHandler) -> "SoapEndpoint":
        """Fallback for actions with no explicit handler (e.g. raw notifies)."""
        self._fallback = handler
        return self

    def close(self) -> None:
        self.network.unregister(self.address)

    # --- wire handling ----------------------------------------------------

    def _count_request(self, instr, status: str) -> None:
        self._request_counters.inc(
            instr, 1, "endpoint.requests", "address", self.address, "status", status
        )

    def _handle_wire(self, wire: bytes) -> bytes:
        instr = self.network.instrumentation
        try:
            request = parse_request(wire)
        except HttpFramingError as exc:
            fault = SoapFault(FaultCode.SENDER, f"malformed HTTP framing: {exc}")
            self._count_request(instr, "framing_error")
            return build_response(400, self._fault_bytes(fault, SoapVersion.V11))
        try:
            envelope = parse_envelope(request.body)
        except ValueError as exc:
            fault = SoapFault(FaultCode.SENDER, f"unparseable envelope: {exc}")
            self._count_request(instr, "parse_error")
            return build_response(400, self._fault_bytes(fault, SoapVersion.V11))
        try:
            headers = extract_headers(envelope)
        except ValueError:
            headers = MessageHeaders(to=self.address, action="")
        if not instr.enabled:
            return self._dispatch(envelope, headers)
        # re-establish the trace context instrumented senders put in the HTTP
        # head (None when absent or malformed: the dispatch then roots a
        # fresh tree)
        lineage_text = request.headers.get(LINEAGE_HTTP_HEADER)
        lineage = None if lineage_text is None else LineageContext.decode(lineage_text)
        with instr.span(
            "dispatch", remote=lineage, address=self.address, action=headers.action
        ) as span:
            return self._dispatch(envelope, headers, span)

    def _dispatch(self, envelope: SoapEnvelope, headers: MessageHeaders, span=None) -> bytes:
        """Action dispatch: the handler's reply, or a 500 fault for a missing
        handler or a raised one.  ``span`` is the instrumented path's open
        ``dispatch`` span, which hears how the request ended and counts it;
        without one (untraced) nothing is counted, at no cost."""
        handler = self._handlers.get(headers.action, self._fallback)
        if handler is None:
            if span is not None:
                span.fail(f"no handler for {headers.action!r}")
                self._count_request(self.network.instrumentation, "no_handler")
            fault = SoapFault(
                FaultCode.SENDER, f"no handler for action {headers.action!r}"
            )
            return build_response(500, self._fault_bytes(fault, envelope.version))
        try:
            reply = handler(envelope, headers)
        except SoapFault as fault:
            if span is not None:
                span.fail(f"fault: {fault.reason}")
                self._count_request(self.network.instrumentation, "fault")
            return build_response(500, self._fault_bytes(fault, envelope.version))
        if span is not None:
            self._count_request(self.network.instrumentation, "ok")
        return self._reply_response(reply)

    @staticmethod
    def _reply_response(reply: Optional[str | SoapEnvelope]) -> bytes:
        if reply is None:
            return build_response(202)
        # rendered text goes out as it is; a handler may still answer with a tree
        text = reply if isinstance(reply, str) else serialize_envelope(reply)
        return build_response(200, text.encode("utf-8"))

    def _fault_bytes(self, fault: SoapFault, version: SoapVersion) -> bytes:
        return serialize_envelope(fault.to_envelope(version)).encode("utf-8")


class SoapClient:
    """Builds, addresses, sends and unwraps SOAP request/response exchanges."""

    def __init__(
        self,
        network: SimulatedNetwork,
        *,
        zone: str = PUBLIC_ZONE,
        wsa_version: WsaVersion = WsaVersion.V2005_08,
        soap_version: SoapVersion = SoapVersion.V11,
        envelope_filter: Optional[Callable[[SoapEnvelope], None]] = None,
    ) -> None:
        self.network = network
        self.zone = zone
        self.wsa_version = wsa_version
        self.soap_version = soap_version
        #: composition hook: applied to every outgoing envelope just before
        #: serialization (e.g. WS-Security signing, WS-Reliability sequencing)
        self.envelope_filter = envelope_filter

    def call(
        self,
        target: EndpointReference,
        action: str,
        body: list[XElem],
        *,
        reply_to: Optional[EndpointReference] = None,
        expect_reply: bool = True,
        extra_headers: Optional[list[XElem]] = None,
    ) -> Optional[SoapEnvelope]:
        """Send a request; returns the reply envelope (or ``None`` on 202).

        Raises :class:`SoapFault` when the peer answered with a fault, and
        the transport's :class:`NetworkError` subclasses on wire failures.
        """
        headers = MessageHeaders.request(target, action, reply_to=reply_to)
        text = control_envelope(
            self.soap_version, self.wsa_version, headers, body,
            extra_headers or (), self.envelope_filter,
        )
        reply = self.send_rendered(target.address, action, text)
        return reply if expect_reply else None

    def request(
        self, target: EndpointReference, action: str, body: XElem, operation: str
    ) -> XElem:
        """:meth:`call` for an ``operation`` that has a response: its body
        element.  A peer that answers nothing (202) is a Receiver fault."""
        reply = self.call(target, action, [body])
        if reply is None:
            raise SoapFault(FaultCode.RECEIVER, f"no response to {operation}")
        return reply.body_element()

    def send_envelope(self, target_address: str, envelope: SoapEnvelope) -> Optional[SoapEnvelope]:
        """Filter, serialise and send a pre-built envelope (the mediation layer's)."""
        if self.envelope_filter is not None:
            self.envelope_filter(envelope)
        action = extract_headers(envelope).action
        return self.send_rendered(target_address, action, serialize_envelope(envelope))

    def send_rendered(
        self, target_address: str, action: str, text: str,
        *, head: Optional[tuple[bytes, bytes]] = None,
    ) -> Optional[SoapEnvelope]:
        """One request/response exchange of envelope ``text`` that is ready
        to go (what :mod:`repro.render` hands out, or a tree serialised just
        now — an :attr:`envelope_filter` works on trees, so whoever built
        ``text`` has applied it): the reply envelope, ``None`` for an empty
        response (202), the peer's fault raised.  Lineage (when tracing) rides
        the HTTP head; ``head`` is the request head a subscription keeps
        framed for this address and action (see ``request_head``)."""
        context = self.network.instrumentation.trace_context()
        wire = build_request(
            target_address,
            text.encode("utf-8"),
            soap_action=action,
            lineage=None if context is None else context.wire_text(),
            head=head,
        )
        raw = self.network.send_request(target_address, wire, from_zone=self.zone)
        response = parse_response(raw)
        if not response.body:
            return None
        reply = parse_envelope(response.body)
        if reply.is_fault():
            raise SoapFault.from_element(reply.body_element(), reply.version)
        return reply
