"""Property-based robustness: the broker front door never crashes the
transport — every input either succeeds or produces a well-formed SOAP
fault."""

from xml.sax.saxutils import escape

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.messenger import WsMessenger
from repro.soap import SoapEnvelope, SoapVersion, parse_envelope, serialize_envelope
from repro.transport import SimulatedNetwork, VirtualClock
from repro.transport.http import build_request, parse_response
from repro.wsa.headers import MessageHeaders, apply_headers
from repro.wsa.versions import WsaVersion
from repro.wse.versions import WseVersion
from repro.wsn.versions import WsnVersion
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import QName

_network = SimulatedNetwork(VirtualClock())
_broker = WsMessenger(_network, "http://fuzz-broker")

_namespaces = st.sampled_from(
    [v.namespace for v in WseVersion]
    + [v.namespace for v in WsnVersion]
    + ["urn:garbage", ""]
)
_locals = st.sampled_from(
    ["Subscribe", "Notify", "Renew", "GetCurrentMessage", "Zorble", "Unsubscribe"]
)
_actions = st.sampled_from(
    [v.action("Subscribe") for v in WseVersion]
    + [v.action("Notify") for v in WsnVersion]
    + ["urn:whatever", ""]
)

#: the child's text stand-in, spliced over after serialization
_SLOT = "urn:fuzz:slot"


@st.composite
def random_requests(draw):
    envelope = SoapEnvelope(SoapVersion.V11)
    action = draw(_actions)
    if draw(st.booleans()):
        apply_headers(
            envelope,
            MessageHeaders(to="http://fuzz-broker", action=action),
            draw(st.sampled_from(list(WsaVersion))),
        )
    text = None
    if draw(st.booleans()):
        body = XElem(QName(draw(_namespaces), draw(_locals)))
        if draw(st.booleans()):
            text = draw(st.text(max_size=10))
            body.append(text_element(QName("", "child"), _SLOT))
        envelope.add_body(body)
    wire = serialize_envelope(envelope)
    if text is not None:
        # any text reaches the door, characters XML 1.0 forbids included: the
        # writer refuses those, so the text is escaped into the slot here
        wire = wire.replace(_SLOT, escape(text).replace("\r", "&#13;"))
    return build_request("http://fuzz-broker", wire.encode("utf-8"), soap_action=action)


class TestFrontDoorTotality:
    @given(random_requests())
    @settings(max_examples=200, deadline=None)
    def test_every_request_gets_an_http_answer(self, wire):
        raw = _network.send_request("http://fuzz-broker", wire)
        response = parse_response(raw)
        assert response.status in (200, 202, 400, 500)
        if response.status in (400, 500):
            fault_envelope = parse_envelope(response.body)
            assert fault_envelope.is_fault()  # structured rejection, not a crash

    @given(st.binary(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_raw_bytes_never_crash(self, junk):
        wire = build_request("http://fuzz-broker", junk)
        response = parse_response(_network.send_request("http://fuzz-broker", wire))
        assert response.status in (200, 202, 400, 500)


class TestCoverageGaps:
    def test_attribute_wildcard_xpath(self):
        from repro.xmlkit import XPath, parse_xml

        doc = parse_xml('<a x="1" y="2"><b z="3"/></a>')
        assert XPath("count(/*/@*)").evaluate(doc) == 2.0
        assert XPath("count(//@*)").evaluate(doc) == 3.0

    def test_raw_mode_through_broker_wsn(self):
        from repro.wsn import NotificationConsumer, WsnSubscriber
        from repro.xmlkit import parse_xml

        network = SimulatedNetwork(VirtualClock())
        broker = WsMessenger(network, "http://raw-broker")
        consumer = NotificationConsumer(network, "http://raw-consumer")
        WsnSubscriber(network).subscribe(
            broker.epr(), consumer.epr(), topic="t", use_raw=True
        )
        broker.publish(parse_xml('<e xmlns="urn:x">payload</e>'), topic="t")
        assert len(consumer.received) == 1
        assert not consumer.received[0].wrapped
