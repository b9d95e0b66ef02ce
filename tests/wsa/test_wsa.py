"""Tests for WS-Addressing versions, endpoint references and headers."""

import pytest

from repro.soap import SoapEnvelope, SoapVersion, parse_envelope, serialize_envelope
from repro.wsa import EndpointReference, MessageHeaders, WsaVersion, apply_headers, extract_headers
from repro.wsa.headers import detect_wsa_version, fresh_message_id
from repro.xmlkit.element import text_element
from repro.xmlkit.names import QName

SUB_ID = QName("urn:broker", "SubscriptionId")


class TestVersions:
    def test_three_distinct_namespaces(self):
        assert len({v.namespace for v in WsaVersion}) == 3

    def test_reference_properties_support(self):
        assert WsaVersion.V2003_03.supports_reference_properties
        assert WsaVersion.V2004_08.supports_reference_properties
        assert not WsaVersion.V2005_08.supports_reference_properties

    def test_reference_parameters_support(self):
        assert not WsaVersion.V2003_03.supports_reference_parameters
        assert WsaVersion.V2004_08.supports_reference_parameters
        assert WsaVersion.V2005_08.supports_reference_parameters

    def test_anonymous_uris_distinct_per_version(self):
        assert len({v.anonymous_uri for v in WsaVersion}) == 3

    def test_from_namespace(self):
        assert WsaVersion.from_namespace(WsaVersion.V2005_08.namespace) is WsaVersion.V2005_08
        with pytest.raises(ValueError):
            WsaVersion.from_namespace("urn:none")


class TestEndpointReference:
    def _epr(self):
        epr = EndpointReference("http://broker/subs")
        epr.with_parameter(text_element(SUB_ID, "sub-7"))
        return epr

    @pytest.mark.parametrize("version", list(WsaVersion))
    def test_roundtrip(self, version):
        epr = self._epr()
        again = EndpointReference.from_element(epr.to_element(version), version)
        assert again.address == "http://broker/subs"
        assert again.parameter_text(SUB_ID) == "sub-7"

    def test_2004_08_uses_reference_parameters_element(self):
        text_form = str(self._epr().to_element(WsaVersion.V2004_08).find(
            WsaVersion.V2004_08.qname("ReferenceParameters")
        ))
        assert text_form is not None

    def test_2003_03_folds_parameters_into_properties(self):
        elem = self._epr().to_element(WsaVersion.V2003_03)
        assert elem.find(WsaVersion.V2003_03.qname("ReferenceProperties")) is not None
        assert elem.find(WsaVersion.V2003_03.qname("ReferenceParameters")) is None

    def test_2005_08_folds_properties_into_parameters(self):
        epr = EndpointReference("http://x")
        epr.with_property(text_element(SUB_ID, "p"))
        elem = epr.to_element(WsaVersion.V2005_08)
        assert elem.find(WsaVersion.V2005_08.qname("ReferenceParameters")) is not None
        assert elem.find(WsaVersion.V2005_08.qname("ReferenceProperties")) is None

    def test_parameter_lookup_covers_properties(self):
        epr = EndpointReference("http://x")
        epr.with_property(text_element(SUB_ID, "from-props"))
        assert epr.parameter_text(SUB_ID) == "from-props"

    def test_missing_address_raises(self):
        from repro.xmlkit.element import XElem

        version = WsaVersion.V2005_08
        with pytest.raises(ValueError):
            EndpointReference.from_element(XElem(version.qname("EndpointReference")), version)

    def test_anonymous(self):
        epr = EndpointReference.anonymous(WsaVersion.V2005_08)
        assert epr.address == WsaVersion.V2005_08.anonymous_uri


class TestHeaders:
    def _request_headers(self):
        target = EndpointReference("http://broker/mgr")
        target.with_parameter(text_element(SUB_ID, "sub-9"))
        return MessageHeaders.request(target, "urn:spec:Renew")

    @pytest.mark.parametrize("version", list(WsaVersion))
    def test_apply_extract_roundtrip(self, version):
        headers = self._request_headers()
        envelope = SoapEnvelope(SoapVersion.V11)
        apply_headers(envelope, headers, version)
        wire = serialize_envelope(envelope)
        recovered = extract_headers(parse_envelope(wire))
        assert recovered.to == "http://broker/mgr"
        assert recovered.action == "urn:spec:Renew"
        assert recovered.message_id == headers.message_id

    def test_echoed_reference_parameters_become_headers(self):
        headers = self._request_headers()
        envelope = SoapEnvelope()
        apply_headers(envelope, headers, WsaVersion.V2005_08)
        recovered = extract_headers(parse_envelope(serialize_envelope(envelope)))
        echoed = [e for e in recovered.echoed if e.name == SUB_ID]
        assert echoed and echoed[0].full_text().strip() == "sub-9"

    def test_2005_08_marks_is_reference_parameter(self):
        headers = self._request_headers()
        envelope = SoapEnvelope()
        apply_headers(envelope, headers, WsaVersion.V2005_08)
        block = envelope.header(SUB_ID)
        assert block.attrs.get(WsaVersion.V2005_08.is_reference_parameter_attr) == "true"

    def test_detect_version(self):
        for version in WsaVersion:
            envelope = SoapEnvelope()
            apply_headers(envelope, self._request_headers(), version)
            assert detect_wsa_version(envelope) is version

    def test_detect_version_none(self):
        assert detect_wsa_version(SoapEnvelope()) is None

    def test_extract_without_wsa_raises(self):
        with pytest.raises(ValueError):
            extract_headers(SoapEnvelope())

    def test_reply_relates_to_request(self):
        request = self._request_headers()
        reply = MessageHeaders.reply(request, "urn:spec:RenewResponse", WsaVersion.V2005_08)
        assert reply.relates_to == request.message_id
        assert reply.to == WsaVersion.V2005_08.anonymous_uri

    def test_reply_honours_reply_to(self):
        request = self._request_headers()
        request.reply_to = EndpointReference("http://client/回")
        reply = MessageHeaders.reply(request, "a", WsaVersion.V2005_08)
        assert reply.to == "http://client/回"

    @pytest.mark.parametrize("version", [WsaVersion.V2004_08, WsaVersion.V2005_08])
    def test_reply_echoes_the_reply_to_endpoints_reference_parameters(self, version):
        # WS-Addressing 1.0 Core 3.4 "Formulating a Reply Message" (and the
        # 2004/08 submission, of properties too): addressing the reply to the
        # ReplyTo endpoint means echoing what that EPR carries, not only its
        # address.  The parent copied the address alone.
        correlation = text_element(QName("urn:client", "Correlation"), "c-7 & <8>")
        session = text_element(QName("urn:client", "Session"), "s-1")
        request = self._request_headers()
        request.reply_to = (
            EndpointReference("http://client/replies")
            .with_parameter(correlation)
            .with_property(session)
        )
        reply = MessageHeaders.reply(request, "urn:spec:RenewResponse", version)
        assert reply.echoed == [correlation, session]
        assert reply.echoed[0] is not correlation  # copies: the request's EPR stays its own
        envelope = apply_headers(SoapEnvelope(), reply, version)
        recovered = extract_headers(parse_envelope(serialize_envelope(envelope)))
        assert recovered.to == "http://client/replies"
        assert [block.full_text() for block in recovered.echoed] == ["c-7 & <8>", "s-1"]

    def test_a_reply_without_reply_to_echoes_nothing(self):
        reply = MessageHeaders.reply(self._request_headers(), "a", WsaVersion.V2005_08)
        assert reply.echoed == []

    def test_message_ids_unique(self):
        assert fresh_message_id() != fresh_message_id()

    def test_reply_to_roundtrip(self):
        headers = self._request_headers()
        headers.reply_to = EndpointReference("http://client/sink")
        envelope = SoapEnvelope()
        apply_headers(envelope, headers, WsaVersion.V2005_08)
        recovered = extract_headers(parse_envelope(serialize_envelope(envelope)))
        assert recovered.reply_to.address == "http://client/sink"


def _extract_by_rescanning(envelope, version):
    """The retired ``extract_headers``: one scan of the header list per name."""
    to = envelope.header_text(version.qname("To")) or ""
    action = envelope.header_text(version.qname("Action")) or ""
    headers = MessageHeaders(to=to, action=action)
    headers.message_id = envelope.header_text(version.qname("MessageID"))
    headers.relates_to = envelope.header_text(version.qname("RelatesTo"))
    reply_to = envelope.header(version.qname("ReplyTo"))
    if reply_to is not None:
        headers.reply_to = EndpointReference.from_element(reply_to, version)
    fault_to = envelope.header(version.qname("FaultTo"))
    if fault_to is not None:
        headers.fault_to = EndpointReference.from_element(fault_to, version)
    known = {
        version.qname(local)
        for local in ("To", "Action", "MessageID", "RelatesTo", "ReplyTo", "FaultTo", "From")
    }
    headers.echoed = [block.content for block in envelope.headers if block.name not in known]
    return headers


@pytest.mark.parametrize("version", list(WsaVersion), ids=lambda version: version.name)
class TestExtractHeadersSinglePass:
    FOREIGN = QName("urn:other", "Token")

    def _other(self, version):
        return next(other for other in WsaVersion if other is not version)

    def _envelope(self, version):
        """Every shape at once: a foreign block ahead of the first WSA block,
        duplicates of To/Action/MessageID, another WSA version's To in the
        middle, From, and ReplyTo/FaultTo EPRs carrying reference parameters."""
        reply_to = EndpointReference("http://client/reply")
        reply_to.with_parameter(text_element(SUB_ID, "sub-1"))
        fault_to = EndpointReference("http://client/faults")
        fault_to.with_parameter(text_element(SUB_ID, "sub-2"))
        fault_to.with_parameter(text_element(self.FOREIGN, "t"))
        envelope = SoapEnvelope()
        for content in (
            text_element(self.FOREIGN, "before"),
            text_element(version.qname("To"), " http://first "),
            text_element(version.qname("Action"), "urn:first"),
            text_element(self._other(version).qname("To"), "http://other-version"),
            text_element(version.qname("To"), "http://second"),
            text_element(version.qname("MessageID"), "urn:uuid:1"),
            text_element(SUB_ID, "sub-9"),
            text_element(version.qname("Action"), "urn:second"),
            text_element(version.qname("MessageID"), "urn:uuid:2"),
            text_element(version.qname("RelatesTo"), "urn:uuid:0"),
            text_element(version.qname("From"), "http://ignored"),
            reply_to.to_element(version, version.qname("ReplyTo")),
            fault_to.to_element(version, version.qname("FaultTo")),
            text_element(version.qname("Unknown"), "kept"),
            text_element(self.FOREIGN, "after"),
        ):
            envelope.add_header(content)
        return parse_envelope(serialize_envelope(envelope))

    def test_first_block_of_a_name_wins(self, version):
        headers = extract_headers(self._envelope(version))
        assert headers.to == "http://first"
        assert headers.action == "urn:first"
        assert headers.message_id == "urn:uuid:1"
        assert headers.relates_to == "urn:uuid:0"

    def test_everything_outside_the_vocabulary_is_echoed_in_order(self, version):
        headers = extract_headers(self._envelope(version))
        assert [(block.name, block.text()) for block in headers.echoed] == [
            (self.FOREIGN, "before"),
            (self._other(version).qname("To"), "http://other-version"),
            (SUB_ID, "sub-9"),
            (version.qname("Unknown"), "kept"),
            (self.FOREIGN, "after"),
        ]

    def test_reply_and_fault_eprs_keep_their_reference_parameters(self, version):
        headers = extract_headers(self._envelope(version))
        assert headers.reply_to.address == "http://client/reply"
        assert headers.reply_to.parameter_text(SUB_ID) == "sub-1"
        assert headers.fault_to.address == "http://client/faults"
        assert headers.fault_to.parameter_text(SUB_ID) == "sub-2"
        assert headers.fault_to.parameter_text(self.FOREIGN) == "t"

    def test_same_result_as_the_rescanning_implementation(self, version):
        envelope = self._envelope(version)
        assert extract_headers(envelope) == _extract_by_rescanning(envelope, version)
        assert extract_headers(envelope, version) == _extract_by_rescanning(envelope, version)
        # an explicit version overrides detection: everything is then foreign
        other = self._other(version)
        assert extract_headers(envelope, other) == _extract_by_rescanning(envelope, other)

    def test_detection_skips_leading_foreign_blocks(self, version):
        assert detect_wsa_version(self._envelope(version)) is version

    def test_no_wsa_header_still_raises(self, version):
        envelope = SoapEnvelope()
        envelope.add_header(text_element(self.FOREIGN, "only"))
        with pytest.raises(ValueError, match="no WS-Addressing"):
            extract_headers(envelope)
        headers = extract_headers(envelope, version)
        assert (headers.to, headers.action, headers.message_id) == ("", "", None)
        assert [block.name for block in headers.echoed] == [self.FOREIGN]
