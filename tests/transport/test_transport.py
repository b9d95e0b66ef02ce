"""Tests for the virtual clock, simulated network, HTTP framing and endpoints."""

import pytest

from repro.obs import Instrumentation
from repro.soap import SoapEnvelope, SoapFault, FaultCode, parse_envelope, serialize_envelope
from repro.transport import (
    AddressUnreachable,
    FirewallBlocked,
    MessageLost,
    SimulatedNetwork,
    SoapClient,
    SoapEndpoint,
    VirtualClock,
)
from repro.transport.http import (
    HttpFramingError,
    build_request,
    build_response,
    parse_request,
    parse_response,
    request_head,
)
from repro.wsa import EndpointReference
from repro.wsa.headers import MessageHeaders, apply_headers
from repro.wsa.versions import WsaVersion
from repro.xmlkit.element import text_element
from repro.xmlkit.names import QName

PING = QName("urn:app", "Ping")
PONG = QName("urn:app", "Pong")


class TestClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(2.5) == 2.5
        assert clock.now() == 2.5

    def test_advance_to(self):
        clock = VirtualClock(10.0)
        clock.advance_to(12.0)
        assert clock.now() == 12.0

    def test_no_rewind(self):
        clock = VirtualClock(5.0)
        with pytest.raises(ValueError):
            clock.advance(-1)
        with pytest.raises(ValueError):
            clock.advance_to(1.0)


class TestHttpFraming:
    def test_request_roundtrip(self):
        wire = build_request("http://host/svc", b"<x/>", soap_action="urn:a")
        request = parse_request(wire)
        assert request.method == "POST"
        assert request.path == "/svc"
        assert request.body == b"<x/>"
        assert request.headers["SOAPAction"] == '"urn:a"'

    def test_response_roundtrip(self):
        wire = build_response(200, b"<ok/>")
        response = parse_response(wire)
        assert response.ok and response.body == b"<ok/>"

    def test_202_accepted(self):
        response = parse_response(build_response(202))
        assert response.ok and response.body == b""

    def test_error_status_not_ok(self):
        assert not parse_response(build_response(500, b"<f/>")).ok

    def test_request_target_keeps_the_query(self):
        # RFC 7230 §5.3.1 origin-form is path + "?" + query; a sink at
        # /in?tenant=a used to be POSTed to /in (the fragment never travels)
        wire = build_request("http://host/in?tenant=a&x=1#frag", b"<x/>")
        assert parse_request(wire).path == "/in?tenant=a&x=1"
        assert parse_request(build_request("http://host/a;v=1", b"")).path == "/a;v=1"
        assert parse_request(build_request("http://host?q=1", b"")).path == "/?q=1"

    def test_request_head_is_the_one_framing_code(self):
        head = request_head("http://host/in?tenant=a", "urn:a")
        for body, lineage in [(b"", None), (b"<x/>", None), (b"<x/>", "01-abc")]:
            framed = build_request("ignored when a head is given", body, lineage=lineage, head=head)
            assert framed == build_request(
                "http://host/in?tenant=a", body, soap_action="urn:a", lineage=lineage
            )
        for url, action in [("http://host/a b", ""), ("http://host/\u00e4", ""), ("http://h/", "a\r\nb")]:
            with pytest.raises(HttpFramingError):
                request_head(url, action)

    def test_a_malformed_lineage_header_is_refused_every_time(self):
        # the header line is framed once per lineage text; a refusal is not
        # remembered, so the same bad text raises again on every request
        good = build_request("http://host/in", b"<x/>", lineage="01-lin-1-0000002a-01")
        assert parse_request(good).headers["X-Lineage"] == "01-lin-1-0000002a-01"
        for lineage in ["01-lin\r\nX-Evil: 1", "01-lin\n", "01-lïn-1-0000002a-01"]:
            for _ in range(2):
                with pytest.raises(HttpFramingError):
                    build_request("http://host/in", b"<x/>", lineage=lineage)

    def test_canonical_202_is_recognised_by_equality_only(self):
        canonical = build_response(202)
        assert canonical is build_response(202) == build_response(202, b"", "Accepted")
        assert parse_response(canonical) == parse_response(bytes(bytearray(canonical)))
        assert parse_response(canonical).headers == {
            "Content-Type": "text/xml; charset=utf-8", "Content-Length": "0"
        }
        # anything that merely resembles it is parsed (and checked) in full
        with pytest.raises(HttpFramingError):
            parse_response(canonical.replace(b"Content-Length: 0", b"Content-Length: 7"))
        assert parse_response(canonical.replace(b"Accepted", b"Fine")).reason == "Fine"
        response = parse_response(canonical)
        response.headers["X-Mutated"] = "1"
        assert "X-Mutated" not in parse_response(canonical).headers

    def test_malformed_request(self):
        with pytest.raises(HttpFramingError):
            parse_request(b"garbage")

    def test_malformed_response(self):
        with pytest.raises(HttpFramingError):
            parse_response(b"NOPE 200")


class TestNetwork:
    def test_request_response(self):
        network = SimulatedNetwork()
        network.register("http://svc", lambda req: b"reply:" + req)
        assert network.send_request("http://svc", b"hi") == b"reply:hi"

    def test_unknown_address(self):
        with pytest.raises(AddressUnreachable):
            SimulatedNetwork().send_request("http://none", b"x")

    def test_unregister(self):
        network = SimulatedNetwork()
        network.register("http://svc", lambda req: b"")
        network.unregister("http://svc")
        with pytest.raises(AddressUnreachable):
            network.send_request("http://svc", b"x")

    def test_latency_advances_clock(self):
        clock = VirtualClock()
        network = SimulatedNetwork(clock, latency=0.01)
        network.register("http://svc", lambda req: b"")
        network.send_request("http://svc", b"x")
        assert clock.now() == pytest.approx(0.02)  # round trip

    def test_firewall_blocks_inbound(self):
        network = SimulatedNetwork()
        network.add_zone("lan", blocks_inbound=True)
        network.register("http://inside", lambda req: b"", zone="lan")
        with pytest.raises(FirewallBlocked):
            network.send_request("http://inside", b"x")

    def test_firewall_allows_same_zone(self):
        network = SimulatedNetwork()
        network.add_zone("lan", blocks_inbound=True)
        network.register("http://inside", lambda req: b"ok", zone="lan")
        assert network.send_request("http://inside", b"x", from_zone="lan") == b"ok"

    def test_firewalled_host_can_call_out(self):
        network = SimulatedNetwork()
        network.add_zone("lan", blocks_inbound=True)
        network.register("http://outside", lambda req: b"ok")
        assert network.send_request("http://outside", b"x", from_zone="lan") == b"ok"

    def test_loss_model_deterministic_with_seed(self):
        network = SimulatedNetwork(loss_rate=1.0, seed=1)
        network.register("http://svc", lambda req: b"")
        with pytest.raises(MessageLost):
            network.send_request("http://svc", b"x")
        assert network.stats.lost == 1

    def test_stats_accounting(self):
        network = SimulatedNetwork()
        network.register("http://svc", lambda req: b"12345")
        network.send_request("http://svc", b"123")
        assert network.stats.requests == 1
        assert network.stats.bytes_sent == 3
        assert network.stats.bytes_received == 5
        network.stats.reset()
        assert network.stats.requests == 0

    def test_unknown_zone_rejected(self):
        with pytest.raises(ValueError):
            SimulatedNetwork().register("http://svc", lambda req: b"", zone="nope")


class TestSoapEndpoint:
    def _setup(self):
        network = SimulatedNetwork()
        endpoint = SoapEndpoint(network, "http://svc")

        def ping(envelope, headers):
            reply = SoapEnvelope(envelope.version)
            reply.add_body(text_element(PONG, envelope.body_element().text()))
            return reply

        endpoint.on_action("urn:app:Ping", ping)
        return network, endpoint

    def test_action_dispatch(self):
        network, _ = self._setup()
        client = SoapClient(network)
        reply = client.call(EndpointReference("http://svc"), "urn:app:Ping", [text_element(PING, "yo")])
        assert reply.body_element().name == PONG
        assert reply.body_element().text() == "yo"

    def test_one_way_returns_none(self):
        network = SimulatedNetwork()
        received = []
        endpoint = SoapEndpoint(network, "http://sink")
        endpoint.on_any(lambda envelope, headers: received.append(envelope) or None)
        client = SoapClient(network)
        result = client.call(EndpointReference("http://sink"), "urn:app:Notify", [text_element(PING, "n")])
        assert result is None
        assert len(received) == 1

    def test_unknown_action_faults(self):
        network, _ = self._setup()
        client = SoapClient(network)
        with pytest.raises(SoapFault):
            client.call(EndpointReference("http://svc"), "urn:app:Nope", [text_element(PING, "x")])

    def test_handler_fault_propagates(self):
        network = SimulatedNetwork()
        endpoint = SoapEndpoint(network, "http://svc")

        def boom(envelope, headers):
            raise SoapFault(FaultCode.SENDER, "rejected", subcode=QName("urn:app", "No"))

        endpoint.on_action("urn:app:Ping", boom)
        client = SoapClient(network)
        with pytest.raises(SoapFault) as excinfo:
            client.call(EndpointReference("http://svc"), "urn:app:Ping", [text_element(PING, "x")])
        assert excinfo.value.reason == "rejected"
        assert excinfo.value.subcode.local == "No"

    def test_close_unregisters(self):
        network, endpoint = self._setup()
        endpoint.close()
        client = SoapClient(network)
        with pytest.raises(AddressUnreachable):
            client.call(EndpointReference("http://svc"), "urn:app:Ping", [text_element(PING, "x")])

    def test_epr(self):
        _, endpoint = self._setup()
        assert endpoint.epr().address == "http://svc"

    @pytest.mark.parametrize(
        "body",
        [
            b"<a>" * 5000 + b"</a>" * 5000,
            b'<!DOCTYPE r [<!ENTITY a "expanded">]><r>&a;</r>',
            b"<s:Envelope",
        ],
        ids=["deep-nesting", "doctype", "truncated"],
    )
    def test_hostile_body_answers_400_sender_fault(self, body):
        # nothing the parser refuses may raise out of send_request into the
        # sender's stack: the answer is a counted 400 Sender fault
        network, _ = self._setup()
        instrumentation = Instrumentation.attach(network)
        wire = network.send_request("http://svc", build_request("http://svc", body))
        response = parse_response(wire)
        assert response.status == 400
        reply = parse_envelope(response.body)
        fault = SoapFault.from_element(reply.body_element(), reply.version)
        assert fault.code is FaultCode.SENDER
        assert "unparseable envelope" in fault.reason
        assert instrumentation.metrics.counter_values("endpoint.requests") == {
            "endpoint.requests{address=http://svc,status=parse_error}": 1
        }

    def test_malformed_framing_answers_400_sender_fault(self):
        network, _ = self._setup()
        instrumentation = Instrumentation.attach(network)
        wire = network.send_request("http://svc", b"POST /svc HTTP/1.1\r\nHost: svc\r\n")
        response = parse_response(wire)
        assert response.status == 400
        reply = parse_envelope(response.body)
        fault = SoapFault.from_element(reply.body_element(), reply.version)
        assert fault.code is FaultCode.SENDER
        assert "malformed HTTP framing" in fault.reason
        assert instrumentation.metrics.counter_values("endpoint.requests") == {
            "endpoint.requests{address=http://svc,status=framing_error}": 1
        }

    def test_an_action_without_handler_answers_500_and_fails_its_dispatch(self):
        network, _ = self._setup()
        instrumentation = Instrumentation.attach(network)
        envelope = SoapEnvelope().add_body(text_element(PING, "x"))
        apply_headers(
            envelope,
            MessageHeaders(to="http://svc", action="urn:app:Nope"),
            WsaVersion.V2005_08,
        )
        body = serialize_envelope(envelope).encode("utf-8")
        wire = network.send_request(
            "http://svc", build_request("http://svc", body, soap_action="urn:app:Nope")
        )
        response = parse_response(wire)
        assert response.status == 500
        reply = parse_envelope(response.body)
        fault = SoapFault.from_element(reply.body_element(), reply.version)
        assert fault.code is FaultCode.SENDER
        assert fault.reason == "no handler for action 'urn:app:Nope'"
        [dispatch] = [s for s in instrumentation.tracer.spans if s.name == "dispatch"]
        assert dispatch.status == "error"
        assert dispatch.error == "no handler for 'urn:app:Nope'"
        assert instrumentation.metrics.counter_values("endpoint.requests") == {
            "endpoint.requests{address=http://svc,status=no_handler}": 1
        }
