"""Unit tests for the mediation translations and format-difference analyzer."""

import pytest

from repro.delivery.task import DeliveryItem
from repro.messenger.mediation import (
    WSE_TOPIC_HEADER,
    compare_message_pair,
    neutral_from_wse_envelope,
    neutral_from_wsn_notify,
    wsn_notify_from_neutral,
)
from repro.render import Entry
from repro.soap import SoapEnvelope, SoapVersion
from repro.wsa.headers import MessageHeaders, apply_headers
from repro.wse.versions import WseVersion
from repro.wsn import messages as wsn_messages
from repro.wsn.messages import NotificationMessage
from repro.wsn.versions import WsnVersion
from repro.xmlkit import parse_xml
from repro.xmlkit.element import text_element

WSE = WseVersion.V2004_08
WSN = WsnVersion.V1_3


def payload(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:mu"><e:n>{n}</e:n></e:V>')


def wse_parts(item):
    """Render for a WSE consumer the way the broker's event sources do: the
    push row of the rendering table, topic in the mediated SOAP header."""
    headers, body = Entry("push", topic_header=WSE_TOPIC_HEADER).build([(None, item)])
    return body, headers


class TestNeutralConversions:
    def test_wsn_notify_to_neutral(self):
        notify = wsn_messages.build_notify(
            WSN,
            [
                NotificationMessage(payload(1), topic="a/b"),
                NotificationMessage(payload(2)),
            ],
        )
        items = neutral_from_wsn_notify(notify, WSN)
        assert [item.topic for item in items] == ["a/b", None]
        assert items[0].payload == payload(1)

    def test_neutral_to_wse_parts(self):
        item = DeliveryItem(payload(), topic="a/b")
        body, headers = wse_parts(item)
        assert body == payload()
        assert headers[0].name == WSE_TOPIC_HEADER
        assert headers[0].full_text() == "a/b"

    def test_neutral_to_wse_without_topic(self):
        body, headers = wse_parts(DeliveryItem(payload()))
        assert headers == []

    def test_wse_envelope_to_neutral(self):
        envelope = SoapEnvelope(SoapVersion.V11)
        envelope.add_header(text_element(WSE_TOPIC_HEADER, "x/y"))
        envelope.add_body(payload())
        item = neutral_from_wse_envelope(envelope)
        assert item.topic == "x/y"
        assert item.payload == payload()

    def test_neutral_to_wsn_notify(self):
        items = [DeliveryItem(payload(i), topic="t") for i in range(2)]
        notify = wsn_notify_from_neutral(items, WSN)
        parsed = wsn_messages.parse_notify(notify, WSN)
        assert len(parsed) == 2
        assert all(item.topic == "t" for item in parsed)

    def test_full_wsn_to_wse_to_wsn_roundtrip(self):
        """Topic and payload survive a full mediation cycle unchanged."""
        original = wsn_messages.build_notify(
            WSN, [NotificationMessage(payload(7), topic="jobs/x")]
        )
        neutral = neutral_from_wsn_notify(original, WSN)
        body, headers = wse_parts(neutral[0])
        envelope = SoapEnvelope()
        for header in headers:
            envelope.add_header(header)
        envelope.add_body(body)
        back = neutral_from_wse_envelope(envelope)
        again = wsn_notify_from_neutral([back], WSN)
        reparsed = wsn_messages.parse_notify(again, WSN)
        assert reparsed[0].topic == "jobs/x"
        assert reparsed[0].payload == payload(7)


def _envelope(body, wsa_version, action, headers=()):
    envelope = SoapEnvelope(SoapVersion.V11)
    apply_headers(envelope, MessageHeaders(to="http://x", action=action), wsa_version)
    for header in headers:
        envelope.add_header(header)
    envelope.add_body(body)
    return envelope


class TestFormatDifferenceAnalyzer:
    def test_identical_messages_no_differences(self):
        left = _envelope(payload(), WSE.wsa_version, "urn:same")
        right = _envelope(payload(), WSE.wsa_version, "urn:same")
        report = compare_message_pair(left, right)
        assert report.categories_present() == []

    def test_namespace_difference_detected(self):
        left = _envelope(payload(), WSE.wsa_version, "urn:same")
        right = _envelope(
            parse_xml('<o:V xmlns:o="urn:other"/>'), WSE.wsa_version, "urn:same"
        )
        report = compare_message_pair(left, right)
        assert 2 in report.categories_present()

    def test_wsa_version_difference_detected(self):
        left = _envelope(payload(), WSE.wsa_version, "urn:same")
        right = _envelope(payload(), WSN.wsa_version, "urn:same")
        report = compare_message_pair(left, right)
        assert report.wsa_version_difference is not None

    def test_action_difference_detected(self):
        left = _envelope(payload(), WSE.wsa_version, "urn:a")
        right = _envelope(payload(), WSE.wsa_version, "urn:b")
        assert compare_message_pair(left, right).action_difference == "urn:a vs urn:b"

    def test_structure_difference_detected(self):
        wrapped = wsn_messages.build_notify(WSN, [NotificationMessage(payload())])
        left = _envelope(payload(), WSE.wsa_version, "urn:x")
        right = _envelope(wrapped, WSN.wsa_version, "urn:x")
        report = compare_message_pair(left, right)
        assert 5 in report.categories_present()

    def test_content_location_difference_detected(self):
        wrapped = wsn_messages.build_notify(
            WSN, [NotificationMessage(payload(), topic="t")]
        )
        left = _envelope(
            payload(),
            WSE.wsa_version,
            "urn:x",
            headers=[text_element(WSE_TOPIC_HEADER, "t")],
        )
        right = _envelope(wrapped, WSN.wsa_version, "urn:x")
        report = compare_message_pair(left, right)
        assert 6 in report.categories_present()
        assert "Topic" in report.content_location_difference
