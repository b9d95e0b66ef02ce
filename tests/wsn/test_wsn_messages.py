"""Unit tests for WS-Notification message building/parsing, per version."""

import pytest

from repro.soap import SoapFault
from repro.wsa import EndpointReference
from repro.wsn import messages
from repro.wsn.messages import NotificationMessage, WsnFilterSpec
from repro.wsn.producer import operations
from repro.subscriptions import child_text
from repro.wsn.versions import WsnVersion
from repro.xmlkit import parse_xml, serialize_xml
from repro.xmlkit.names import Namespaces, QName


def roundtrip(element):
    return parse_xml(serialize_xml(element))


@pytest.fixture(params=list(WsnVersion), ids=lambda v: v.name)
def version(request):
    return request.param


def payload(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:wm"><e:n>{n}</e:n></e:V>')


class TestSubscribeMessage:
    def test_minimal_roundtrip(self, version):
        built = messages.build_subscribe(
            version, consumer=EndpointReference("http://c")
        )
        parsed, _ = messages.parse_subscribe(roundtrip(built), version)
        assert parsed.consumer.address == "http://c"
        assert parsed.filter_parts == {} and parsed.topic_expression is None
        assert not parsed.use_raw

    def test_full_filter_roundtrip(self, version):
        spec = WsnFilterSpec(
            topic_expression="jobs/status",
            producer_properties="/*[cluster='A']",
            message_content="/e:V[e:n > 0]",
            namespaces={"e": "urn:wm"},
        )
        built = messages.build_subscribe(
            version,
            consumer=EndpointReference("http://c"),
            filter=spec,
            initial_termination="2006-01-01T01:00:00Z",
        )
        parsed, termination_text = messages.parse_subscribe(roundtrip(built), version)
        parts = parsed.filter_parts
        assert parsed.topic_expression == parts["topic"] == "jobs/status"
        assert parts["properties"] == "/*[cluster='A']"
        assert parts["content"] == "/e:V[e:n > 0]"
        assert parts["properties_namespaces"] == parts["content_namespaces"] == {"e": "urn:wm"}
        assert termination_text == "2006-01-01T01:00:00Z"

    def test_raw_flag_roundtrip(self, version):
        built = messages.build_subscribe(
            version, consumer=EndpointReference("http://c"), use_raw=True
        )
        assert messages.parse_subscribe(roundtrip(built), version)[0].use_raw

    def test_13_uses_filter_wrapper(self):
        version = WsnVersion.V1_3
        built = messages.build_subscribe(
            version,
            consumer=EndpointReference("http://c"),
            filter=WsnFilterSpec(topic_expression="t"),
        )
        assert built.find(version.qname("Filter")) is not None
        assert built.find(version.qname("TopicExpression")) is None  # nested

    def test_10_carries_parts_directly(self):
        version = WsnVersion.V1_0
        built = messages.build_subscribe(
            version,
            consumer=EndpointReference("http://c"),
            filter=WsnFilterSpec(topic_expression="t", message_content="//x"),
        )
        assert built.find(version.qname("Filter")) is None
        assert built.find(version.qname("TopicExpression")) is not None
        # pre-1.3 the content filter is the "Selector" element
        assert built.find(version.qname("Selector")) is not None
        assert built.find(version.qname("UseNotify")) is not None

    def test_missing_consumer_faults(self, version):
        from repro.xmlkit.element import XElem

        with pytest.raises(SoapFault):
            messages.parse_subscribe(XElem(version.qname("Subscribe")), version)

    def test_wrong_element_faults(self, version):
        with pytest.raises(SoapFault):
            messages.parse_subscribe(parse_xml("<z/>"), version)


class TestSubscribeResponse:
    def test_roundtrip(self, version):
        built = messages.build_subscribe_response(
            version,
            manager_address="http://mgr",
            sub_id="wsn-sub-1",
            termination_time_text="2006-01-01T01:00:00Z",
        )
        result = messages.parse_subscribe_response(roundtrip(built), version)
        assert result.sub_id == "wsn-sub-1"
        assert result.manager.address == "http://mgr"
        assert result.expires_text == "2006-01-01T01:00:00Z"

    def test_id_enclosure_style_per_version(self, version):
        built = messages.build_subscribe_response(
            version, manager_address="http://mgr", sub_id="s"
        )
        wsa = version.wsa_version
        reference = built.require(version.qname("SubscriptionReference"))
        props = reference.find(wsa.qname("ReferenceProperties"))
        params = reference.find(wsa.qname("ReferenceParameters"))
        if version.uses_reference_properties:
            assert props is not None and params is None
        else:
            assert params is not None and props is None

    def test_id_from_headers(self):
        from repro.xmlkit.element import text_element

        header = text_element(messages.SUBSCRIPTION_ID, "s-1")
        assert messages.subscription_id_from_headers([header]) == "s-1"
        with pytest.raises(SoapFault):
            messages.subscription_id_from_headers([])


class TestNotifyMessage:
    def test_roundtrip_full(self, version):
        items = [
            NotificationMessage(
                payload(1),
                topic="jobs/status",
                subscription_reference=EndpointReference("http://mgr"),
                producer_reference=EndpointReference("http://prod"),
            ),
            NotificationMessage(payload(2)),
        ]
        built = messages.build_notify(version, items)
        parsed = messages.parse_notify(roundtrip(built), version)
        assert len(parsed) == 2
        assert parsed[0].topic == "jobs/status"
        assert parsed[0].subscription_reference.address == "http://mgr"
        assert parsed[0].producer_reference.address == "http://prod"
        assert parsed[0].payload == payload(1)
        assert parsed[1].topic is None

    def test_notify_structure_names(self, version):
        built = messages.build_notify(version, [NotificationMessage(payload())])
        message = built.require(version.qname("NotificationMessage"))
        assert message.find(version.qname("Message")) is not None

    def test_empty_message_faults(self, version):
        from repro.xmlkit.element import XElem

        notify = XElem(version.qname("Notify"))
        message = XElem(version.qname("NotificationMessage"))
        message.append(XElem(version.qname("Message")))
        notify.append(message)
        with pytest.raises(SoapFault):
            messages.parse_notify(notify, version)

    def test_wrong_root_faults(self, version):
        with pytest.raises(SoapFault):
            messages.parse_notify(parse_xml("<z/>"), version)


class TestManagementMessages:
    # the builders build; which version *has* the native operations is its
    # operation table's to say (the client answers OperationNotAvailable from it)

    def test_renew_only_13(self):
        assert messages.verbs(WsnVersion.V1_3)["renew"].build("PT1H") is not None
        assert "Renew" in {row.name for row in operations(WsnVersion.V1_3).rows}
        for old in (WsnVersion.V1_0, WsnVersion.V1_2):
            assert "Renew" not in {row.name for row in operations(old).rows}

    def test_unsubscribe_only_13(self):
        assert messages.verbs(WsnVersion.V1_3)["unsubscribe"].build() is not None
        assert "Unsubscribe" in {row.name for row in operations(WsnVersion.V1_3).rows}
        assert "Unsubscribe" not in {row.name for row in operations(WsnVersion.V1_0).rows}

    def test_pause_resume_all_versions(self, version):
        assert messages.verbs(version)["pause"].build().name.local == "PauseSubscription"
        assert messages.verbs(version)["resume"].build().name.local == "ResumeSubscription"

    def test_get_current_message_roundtrip(self, version):
        built = messages.build_get_current_message(
            version, "jobs", Namespaces.DIALECT_CONCRETE
            if hasattr(Namespaces, "DIALECT_CONCRETE")
            else Namespaces.DIALECT_TOPIC_CONCRETE,
        )
        read = roundtrip(built)
        assert child_text(read, "Topic") == "jobs"
        assert read.find(version.qname("Topic")).attrs[QName("", "Dialect")] == (
            Namespaces.DIALECT_TOPIC_CONCRETE
        )

    def test_wsrf_property_request_roundtrip(self):
        from repro.xmlkit.names import QName

        name = QName("urn:props", "Status")
        built = messages.build_get_resource_property(name)
        assert messages.parse_get_resource_property(roundtrip(built)) == name

    def test_set_termination_time_shapes(self):
        from repro.xmlkit.names import QName

        with_time = messages.build_set_termination_time("2006-01-01T01:00:00Z")
        requested = with_time.find(
            QName(Namespaces.WSRF_RL, "RequestedTerminationTime")
        )
        assert requested.full_text() == "2006-01-01T01:00:00Z"
        infinite = messages.build_set_termination_time(None)
        assert infinite.find(
            QName(Namespaces.WSRF_RL, "RequestedLifetimeDuration")
        ) is not None

    def test_termination_notification(self):
        from repro.xmlkit.names import QName

        note = messages.build_termination_notification("expired")
        reason = note.find(QName(Namespaces.WSRF_RL, "TerminationReason"))
        assert reason.full_text() == "expired"

    def test_action_uris(self):
        assert messages.wsrf_action("X").endswith("/X")
        assert Namespaces.WSRF_RP in messages.wsrf_action("X")
        assert Namespaces.WSRF_RL in messages.wsrf_lifetime_action("X")
