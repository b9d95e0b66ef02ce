"""Unit tests for WS-Eventing message building/parsing, per version."""

import pytest

from repro.soap import SoapFault
from repro.subscriptions import child_text
from repro.wsa import EndpointReference
from repro.wse import messages
from repro.wse.model import DeliveryMode, SubscriptionEndCode
from repro.wse.source import operations
from repro.wse.versions import WseVersion
from repro.xmlkit import parse_xml, serialize_xml
from repro.xmlkit.names import Namespaces, QName


def roundtrip(element):
    """Serialize + reparse, as the wire would."""
    return parse_xml(serialize_xml(element))


@pytest.fixture(params=list(WseVersion), ids=lambda v: v.name)
def version(request):
    return request.param


class TestSubscribeMessage:
    def test_minimal_roundtrip(self, version):
        built = messages.build_subscribe(
            version, notify_to=EndpointReference("http://sink")
        )
        parsed, expires_text = messages.parse_subscribe(roundtrip(built), version)
        assert parsed.mode is DeliveryMode.PUSH
        assert parsed.consumer.address == "http://sink"
        assert parsed.end_to is None and expires_text is None
        assert parsed.filter_parts == {}

    def test_full_roundtrip(self, version):
        built = messages.build_subscribe(
            version,
            notify_to=EndpointReference("http://sink"),
            end_to=EndpointReference("http://end"),
            expires_text="PT10M",
            filter_expression="/ev:E[ev:n > 1]",
            filter_namespaces={"ev": "urn:m"},
        )
        parsed, expires_text = messages.parse_subscribe(roundtrip(built), version)
        assert parsed.end_to.address == "http://end"
        assert expires_text == "PT10M"
        assert parsed.filter_parts == {
            "content": "/ev:E[ev:n > 1]",
            "content_dialect": Namespaces.DIALECT_XPATH10,
            "content_namespaces": {"ev": "urn:m"},
        }

    def test_pull_mode_roundtrip_08(self):
        version = WseVersion.V2004_08
        built = messages.build_subscribe(version, mode=DeliveryMode.PULL)
        parsed, _ = messages.parse_subscribe(roundtrip(built), version)
        assert parsed.mode is DeliveryMode.PULL
        assert parsed.consumer is None

    def test_wrong_body_element_faults(self, version):
        with pytest.raises(SoapFault):
            messages.parse_subscribe(parse_xml("<a/>"), version)

    def test_missing_delivery_faults(self, version):
        from repro.xmlkit.element import XElem

        with pytest.raises(SoapFault):
            messages.parse_subscribe(XElem(version.qname("Subscribe")), version)

    def test_unknown_mode_uri_faults(self, version):
        built = messages.build_subscribe(
            version, notify_to=EndpointReference("http://sink")
        )
        delivery = built.find(version.qname("Delivery"))
        delivery.attrs[QName("", "Mode")] = "urn:not-a-mode"
        with pytest.raises(SoapFault) as excinfo:
            messages.parse_subscribe(built, version)
        assert excinfo.value.subcode.local == "DeliveryModeRequestedUnavailable"

    def test_cross_version_namespaces_differ(self):
        bodies = {
            v: serialize_xml(
                messages.build_subscribe(v, notify_to=EndpointReference("http://s"))
            )
            for v in WseVersion
        }
        assert Namespaces.WSE_2004_01 in bodies[WseVersion.V2004_01]
        assert Namespaces.WSE_2004_08 in bodies[WseVersion.V2004_08]
        assert Namespaces.WSE_2004_08 not in bodies[WseVersion.V2004_01]


class TestSubscribeResponse:
    def test_roundtrip(self, version):
        built = messages.build_subscribe_response(
            version,
            sub_id="sub-7",
            manager_address="http://mgr",
            expires_text="2006-01-01T01:00:00Z",
        )
        result = messages.parse_subscribe_response(
            roundtrip(built), version, source_address="http://src"
        )
        assert result.sub_id == "sub-7"
        assert result.expires_text == "2006-01-01T01:00:00Z"
        if version.subscription_id_in_epr:
            assert result.manager.address == "http://mgr"
        else:
            assert result.manager.address == "http://src"  # source is manager

    def test_01_has_bare_id_element(self):
        built = messages.build_subscribe_response(
            WseVersion.V2004_01, sub_id="s", manager_address="http://m", expires_text="x"
        )
        assert built.find(WseVersion.V2004_01.qname("Id")) is not None
        assert built.find(WseVersion.V2004_01.qname("SubscriptionManager")) is None

    def test_08_has_manager_epr(self):
        built = messages.build_subscribe_response(
            WseVersion.V2004_08, sub_id="s", manager_address="http://m", expires_text="x"
        )
        assert built.find(WseVersion.V2004_08.qname("SubscriptionManager")) is not None
        assert built.find(WseVersion.V2004_08.qname("Id")) is None


class TestSubscriptionIdentityTransport:
    def test_08_identifier_from_echoed_headers(self):
        version = WseVersion.V2004_08
        from repro.xmlkit.element import text_element

        header = text_element(version.qname("Identifier"), "sub-9")
        sub_id = messages.subscription_id_from_request(
            version, parse_xml("<x/>"), [header]
        )
        assert sub_id == "sub-9"

    def test_08_missing_identifier_faults(self):
        with pytest.raises(SoapFault):
            messages.subscription_id_from_request(
                WseVersion.V2004_08, parse_xml("<x/>"), []
            )

    def test_01_id_from_body(self):
        version = WseVersion.V2004_01
        body = messages.verbs(version)["renew"].build(None)
        messages.attach_subscription_id(version, body, "sub-3")
        assert messages.subscription_id_from_request(version, body, []) == "sub-3"

    def test_01_missing_id_faults(self):
        version = WseVersion.V2004_01
        with pytest.raises(SoapFault):
            messages.subscription_id_from_request(
                version, messages.verbs(version)["renew"].build(None), []
            )

    def test_attach_is_noop_on_08(self):
        version = WseVersion.V2004_08
        body = messages.verbs(version)["renew"].build(None)
        messages.attach_subscription_id(version, body, "sub-3")
        assert body.find(version.qname("Id")) is None


class TestManagementMessages:
    def test_renew_roundtrip(self, version):
        built = messages.verbs(version)["renew"].build("PT1H")
        assert child_text(roundtrip(built), "Expires") == "PT1H"

    def test_renew_without_expires(self, version):
        built = messages.verbs(version)["renew"].build(None)
        assert child_text(built, "Expires") is None

    def test_get_status_only_on_08(self):
        # the builder builds; which version *has* GetStatus is its operation table's to say
        assert messages.verbs(WseVersion.V2004_08)["get_status"].build() is not None
        served = {v: {row.name for row in operations(v).rows} for v in WseVersion}
        assert "GetStatus" in served[WseVersion.V2004_08]
        assert "GetStatus" not in served[WseVersion.V2004_01]
        assert messages.verbs(WseVersion.V2004_01)["get_status"].operation == "GetStatus"

    def test_unsubscribe_shapes(self, version):
        assert messages.verbs(version)["unsubscribe"].build().name == version.qname("Unsubscribe")


class TestSubscriptionEndMessage:
    def test_roundtrip(self, version):
        built = messages.build_subscription_end(
            version,
            manager_address="http://mgr",
            sub_id="sub-1",
            code=SubscriptionEndCode.DELIVERY_FAILURE,
            reason="sink vanished",
        )
        parsed = messages.parse_subscription_end(roundtrip(built), version)
        assert parsed.sub_id == "sub-1"
        assert parsed.code is SubscriptionEndCode.DELIVERY_FAILURE
        assert parsed.reason == "sink vanished"

    @pytest.mark.parametrize("code", list(SubscriptionEndCode))
    def test_all_codes(self, version, code):
        built = messages.build_subscription_end(
            version, manager_address="http://m", sub_id="s", code=code
        )
        assert messages.parse_subscription_end(roundtrip(built), version).code is code


class TestPullAndWrapped:
    def test_pull_response_roundtrip(self):
        version = WseVersion.V2004_08
        payloads = [parse_xml(f'<e xmlns="urn:m">{i}</e>') for i in range(3)]
        built = messages.build_pull_response(version, payloads)
        parsed = messages.parse_pull_response(roundtrip(built), version)
        assert parsed == payloads

    def test_wrapped_roundtrip(self):
        version = WseVersion.V2004_08
        payloads = [parse_xml(f'<e xmlns="urn:m">{i}</e>') for i in range(2)]
        built = messages.build_wrapped_notification(version, payloads)
        assert built.name == version.qname("Notifications")
        parsed = messages.parse_wrapped_notification(roundtrip(built), version)
        assert parsed == payloads

    def test_filter_namespace_encoding(self):
        from repro.xmlkit.element import text_element

        filter_elem = text_element(QName("urn:x", "Filter"), "//a:b")
        messages.encode_filter_namespaces(filter_elem, {"a": "urn:a", "b": "urn:b"})
        again = roundtrip(filter_elem)
        assert messages.decode_filter_namespaces(again) == {"a": "urn:a", "b": "urn:b"}
