"""Property-based round-trip tests for SOAP envelopes and WSA structures."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.soap import SoapEnvelope, SoapVersion, parse_envelope, serialize_envelope
from repro.wsa import EndpointReference, MessageHeaders, WsaVersion, apply_headers, extract_headers
from repro.xmlkit import XmlCharacterError
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import QName

_locals = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,8}", fullmatch=True)
_uris = st.from_regex(r"urn:[a-z]{1,8}", fullmatch=True)
_qnames = st.builds(QName, _uris, _locals)
_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="\r"),
    max_size=20,
)
_addresses = st.from_regex(r"http://[a-z]{1,10}(/[a-z]{1,8}){0,2}", fullmatch=True)


def _xml_char(c: str) -> bool:
    """XML 1.0's ``Char`` production, stated apart from the writer's check."""
    return c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"


@st.composite
def envelopes(draw):
    envelope = SoapEnvelope(draw(st.sampled_from(list(SoapVersion))))
    for _ in range(draw(st.integers(0, 3))):
        envelope.add_header(
            text_element(draw(_qnames), draw(_texts)),
            must_understand=draw(st.booleans()),
        )
    for _ in range(draw(st.integers(0, 2))):
        body = XElem(draw(_qnames))
        if draw(st.booleans()):
            body.append(text_element(draw(_qnames), draw(_texts)))
        envelope.add_body(body)
    return envelope


@st.composite
def eprs(draw):
    epr = EndpointReference(draw(_addresses))
    for _ in range(draw(st.integers(0, 3))):
        epr.with_parameter(text_element(draw(_qnames), draw(_texts)))
    return epr


class TestEnvelopeRoundTrip:
    @given(envelopes())
    # the strategy leaves out categories Cs and Cc only, so it can draw U+FFFF
    @example(SoapEnvelope(SoapVersion.V11).add_header(text_element(QName("urn:x", "E"), "\uffff")))
    @settings(max_examples=150, deadline=None)
    def test_codec_roundtrip(self, envelope):
        """The writer writes only what the parser reads back as written: an
        envelope holding a character XML 1.0 forbids is refused, not written."""
        texts = [block.content.full_text() for block in envelope.headers]
        texts += [body.full_text() for body in envelope.body]
        if not all(map(_xml_char, "".join(texts))):
            with pytest.raises(XmlCharacterError):
                serialize_envelope(envelope)
            return
        again = parse_envelope(serialize_envelope(envelope))
        assert again.version is envelope.version
        assert len(again.headers) == len(envelope.headers)
        for left, right in zip(again.headers, envelope.headers):
            assert left.must_understand == right.must_understand
            assert left.content == right.content
        assert again.body == envelope.body

    @given(envelopes())
    @settings(max_examples=80, deadline=None)
    def test_copy_equals_roundtrip(self, envelope):
        dup = envelope.copy()
        assert serialize_envelope(dup) == serialize_envelope(envelope)


class TestEprRoundTrip:
    @given(eprs(), st.sampled_from(list(WsaVersion)))
    @settings(max_examples=150, deadline=None)
    def test_epr_roundtrip(self, epr, version):
        element = epr.to_element(version)
        again = EndpointReference.from_element(element, version)
        assert again.address == epr.address
        carried = again.reference_parameters + again.reference_properties
        original = epr.reference_parameters + epr.reference_properties
        assert len(carried) == len(original)
        for name in {e.name for e in original}:
            assert epr.parameter_text(name) == again.parameter_text(name)


class TestHeaderRoundTrip:
    @given(eprs(), st.sampled_from(list(WsaVersion)), _uris)
    @settings(max_examples=150, deadline=None)
    def test_request_headers_roundtrip(self, target, version, action):
        headers = MessageHeaders.request(target, action)
        envelope = SoapEnvelope(SoapVersion.V11)
        apply_headers(envelope, headers, version)
        recovered = extract_headers(parse_envelope(serialize_envelope(envelope)))
        assert recovered.to == target.address
        assert recovered.action == action
        assert recovered.message_id == headers.message_id
        assert len(recovered.echoed) == len(headers.echoed)
