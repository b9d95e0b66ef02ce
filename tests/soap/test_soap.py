"""Tests for the SOAP envelope model, faults and codec."""

import pytest

from repro.soap import (
    FaultCode,
    SoapEnvelope,
    SoapFault,
    SoapVersion,
    parse_envelope,
    serialize_envelope,
)
from repro.soap.codec import SoapCodecError, envelope_bytes
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import QName

PAYLOAD = QName("urn:app", "Ping")
HEADER = QName("urn:app", "Session")


def make_envelope(version=SoapVersion.V11):
    envelope = SoapEnvelope(version)
    envelope.add_header(text_element(HEADER, "s-1"), must_understand=True)
    envelope.add_body(text_element(PAYLOAD, "hello"))
    return envelope


class TestEnvelopeModel:
    def test_header_lookup(self):
        envelope = make_envelope()
        assert envelope.header_text(HEADER) == "s-1"
        assert envelope.header(QName("urn:app", "Nope")) is None

    def test_body_element_exactly_one(self):
        envelope = make_envelope()
        assert envelope.body_element().name == PAYLOAD
        envelope.add_body(XElem(PAYLOAD))
        with pytest.raises(SoapFault) as malformed:
            envelope.body_element()
        assert malformed.value.code is FaultCode.SENDER

    def test_empty_body_first_body_none(self):
        assert SoapEnvelope().first_body() is None

    def test_copy_independent(self):
        envelope = make_envelope()
        dup = envelope.copy()
        dup.body[0].append("mutation")
        assert envelope.body[0] != dup.body[0]

    def test_version_from_namespace(self):
        assert SoapVersion.from_namespace(SoapVersion.V11.namespace) is SoapVersion.V11
        with pytest.raises(ValueError):
            SoapVersion.from_namespace("urn:not-soap")


class TestCodec:
    @pytest.mark.parametrize("version", list(SoapVersion))
    def test_roundtrip(self, version):
        envelope = make_envelope(version)
        again = parse_envelope(serialize_envelope(envelope))
        assert again.version is version
        assert again.header_text(HEADER) == "s-1"
        assert again.body_element() == envelope.body_element()

    def test_must_understand_roundtrip(self):
        wire = serialize_envelope(make_envelope())
        again = parse_envelope(wire)
        assert again.headers[0].must_understand is True

    def test_actor_roundtrip_soap11(self):
        envelope = SoapEnvelope(SoapVersion.V11)
        envelope.add_header(text_element(HEADER, "x"), actor="urn:next")
        again = parse_envelope(serialize_envelope(envelope))
        assert again.headers[0].actor == "urn:next"

    def test_role_roundtrip_soap12(self):
        envelope = SoapEnvelope(SoapVersion.V12)
        envelope.add_header(text_element(HEADER, "x"), actor="urn:next")
        again = parse_envelope(serialize_envelope(envelope))
        assert again.headers[0].actor == "urn:next"

    def test_rejects_non_envelope(self):
        with pytest.raises(SoapCodecError):
            parse_envelope("<NotAnEnvelope/>")

    def test_rejects_wrong_namespace(self):
        with pytest.raises(SoapCodecError):
            parse_envelope('<Envelope xmlns="urn:fake"><Body/></Envelope>')

    def test_rejects_missing_body(self):
        ns = SoapVersion.V11.namespace
        with pytest.raises(SoapCodecError):
            parse_envelope(f'<e:Envelope xmlns:e="{ns}"><e:Header/></e:Envelope>')

    def test_rejects_garbage(self):
        with pytest.raises(SoapCodecError):
            parse_envelope("this is not xml")

    def test_envelope_bytes_utf8(self):
        assert envelope_bytes(make_envelope()).startswith(b"<?xml")


class TestFaults:
    @pytest.mark.parametrize("version", list(SoapVersion))
    def test_fault_roundtrip(self, version):
        fault = SoapFault(
            FaultCode.SENDER,
            "unable to renew",
            subcode=QName("urn:spec", "UnableToRenew"),
        )
        envelope = fault.to_envelope(version)
        assert envelope.is_fault()
        wire = serialize_envelope(envelope)
        parsed = parse_envelope(wire)
        recovered = SoapFault.from_element(parsed.body_element(), version)
        assert recovered.code is FaultCode.SENDER
        assert recovered.reason == "unable to renew"
        assert recovered.subcode.local == "UnableToRenew"

    def test_soap12_subcode_namespace_preserved(self):
        fault = SoapFault(FaultCode.RECEIVER, "x", subcode=QName("urn:spec", "Oops"))
        parsed = parse_envelope(serialize_envelope(fault.to_envelope(SoapVersion.V12)))
        recovered = SoapFault.from_element(parsed.body_element(), SoapVersion.V12)
        assert recovered.subcode == QName("urn:spec", "Oops")

    def test_fault_detail_preserved(self):
        detail = text_element(QName("urn:spec", "Why"), "lease expired")
        fault = SoapFault(FaultCode.SENDER, "x", subcode=QName("urn:spec", "S"), detail=detail)
        parsed = parse_envelope(serialize_envelope(fault.to_envelope(SoapVersion.V11)))
        recovered = SoapFault.from_element(parsed.body_element(), SoapVersion.V11)
        assert recovered.detail == detail

    def test_fault_is_exception(self):
        with pytest.raises(SoapFault):
            raise SoapFault(FaultCode.RECEIVER, "boom")

    def test_fault_str(self):
        fault = SoapFault(FaultCode.SENDER, "bad", subcode=QName("urn:s", "X"))
        assert "bad" in str(fault) and "X" in str(fault)

    def test_version_specific_code_locals(self):
        assert FaultCode.SENDER.local_for(SoapVersion.V11) == "Client"
        assert FaultCode.SENDER.local_for(SoapVersion.V12) == "Sender"
