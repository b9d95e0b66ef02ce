"""Edge cases: endpoint robustness, detection fallbacks, restricted brokers,
WSRF-disabled producers."""

import pytest

from repro.messenger import WsMessenger, detect_spec
from repro.messenger.detection import SpecFamily
from repro.soap import FaultCode, SoapEnvelope, SoapFault, SoapVersion, parse_envelope, serialize_envelope
from repro.transport import SimulatedNetwork, VirtualClock
from repro.transport.http import build_request, parse_response
from repro.wsa import EndpointReference
from repro.wsa.headers import MessageHeaders, apply_headers
from repro.wse import EventSink, WseSubscriber, WseVersion
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber, WsnVersion
from repro.wsn.pullpoint import PullPointClient
from repro.xmlkit import parse_xml
from repro.xmlkit.element import text_element


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:be"><e:n>{n}</e:n></e:V>')


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


class TestEndpointRobustness:
    def test_garbage_body_yields_400_fault(self, network):
        broker = WsMessenger(network, "http://broker")
        wire = build_request("http://broker", b"this is not xml", soap_action="urn:x")
        response = parse_response(network.send_request("http://broker", wire))
        assert response.status == 400
        envelope = parse_envelope(response.body)
        assert envelope.is_fault()

    def test_envelope_without_wsa_headers_still_detected(self, network):
        """Detection works from the body namespace even without addressing."""
        broker = WsMessenger(network, "http://broker")
        version = WsnVersion.V1_3
        from repro.wsn import messages as wsn_messages
        from repro.wsn.messages import NotificationMessage

        envelope = SoapEnvelope(SoapVersion.V11)
        envelope.add_body(
            wsn_messages.build_notify(version, [NotificationMessage(event())])
        )
        consumer = NotificationConsumer(network, "http://consumer")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="t")
        wire = build_request(
            "http://broker",
            serialize_envelope(envelope).encode(),
            soap_action=version.action("Notify"),
        )
        network.send_request("http://broker", wire)
        # topicless publication matches the topicless 1.3 path only; the
        # subscription above is topic-filtered, so nothing is delivered —
        # but detection and acceptance must not fault
        assert broker.stats.detected.get("WS-Notification/V1_3") == 2  # Subscribe + Notify


class TestDetectionFallback:
    def test_raw_body_with_spec_header_detected(self):
        """A raw notification (foreign-namespace body) is attributed through
        its spec-versioned SOAP headers."""
        version = WseVersion.V2004_08
        envelope = SoapEnvelope(SoapVersion.V11)
        apply_headers(
            envelope,
            MessageHeaders(to="http://x", action="urn:any"),
            version.wsa_version,
        )
        envelope.add_header(text_element(version.qname("Identifier"), "sub-1"))
        envelope.add_body(event())
        spec = detect_spec(parse_envelope(serialize_envelope(envelope)))
        assert spec.family is SpecFamily.WS_EVENTING
        assert spec.version is version
        assert spec.operation == "V"  # the raw payload's local name


class TestRestrictedBroker:
    def test_disabled_version_faults(self, network):
        broker = WsMessenger(
            network,
            "http://broker",
            wse_versions=[WseVersion.V2004_08],
            wsn_versions=[WsnVersion.V1_3],
        )
        sink = EventSink(network, "http://sink", version=WseVersion.V2004_01)
        subscriber = WseSubscriber(network, version=WseVersion.V2004_01)
        with pytest.raises(SoapFault) as excinfo:
            subscriber.subscribe(broker.epr(), notify_to=sink.epr())
        assert "not enabled" in excinfo.value.reason

    def test_enabled_versions_still_work(self, network):
        broker = WsMessenger(
            network, "http://broker", wse_versions=[WseVersion.V2004_08], wsn_versions=[]
        )
        sink = EventSink(network, "http://sink")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        broker.publish(event())
        assert len(sink.received) == 1

    def test_no_wsn_13_no_pullpoints(self, network):
        broker = WsMessenger(network, "http://broker", wsn_versions=[WsnVersion.V1_0])
        assert broker.pullpoint_factory is None

    @pytest.mark.parametrize("version", list(WsnVersion), ids=lambda v: v.name)
    def test_create_pull_point_at_the_front_door_is_wsn_13_only(self, network, version):
        """Table 1 gives the PullPoint interface to WSN 1.3 alone, and a reply
        speaks the request's dialect: an earlier CreatePullPoint sent to the
        front door is a Sender fault and creates nothing."""
        broker = WsMessenger(network, "http://broker")
        client = PullPointClient(network, version=version)
        if version is WsnVersion.V1_3:
            pull_point = client.create(EndpointReference(broker.address))
            assert list(broker.pullpoint_factory.pull_points) == [pull_point.address]
            return
        with pytest.raises(SoapFault) as excinfo:
            client.create(EndpointReference(broker.address))
        assert excinfo.value.code is FaultCode.SENDER
        assert version.name in excinfo.value.reason
        assert broker.pullpoint_factory.pull_points == {}


class TestWsrfDisabledProducer:
    def test_13_without_wsrf_port(self, network):
        producer = NotificationProducer(
            network, "http://producer", version=WsnVersion.V1_3, enable_wsrf=False
        )
        consumer = NotificationConsumer(network, "http://consumer")
        subscriber = WsnSubscriber(network)
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="t")
        # native 1.3 operations still work
        subscriber.renew(handle, "PT1H")
        # but the WSRF port is simply absent
        with pytest.raises(SoapFault):
            subscriber.get_status(handle)
        with pytest.raises(SoapFault):
            subscriber.destroy(handle)
        # and no TerminationNotification is emitted on expiry
        handle2 = subscriber.subscribe(
            producer.epr(), consumer.epr(), topic="t", initial_termination="PT5S"
        )
        network.clock.advance(10.0)
        producer.sweep()
        assert consumer.termination_notices == []
        del handle2

    def test_pre_13_cannot_disable_wsrf(self, network):
        """WSRF is mandatory below 1.3: asking to disable it is overridden."""
        producer = NotificationProducer(
            network, "http://producer10", version=WsnVersion.V1_0, enable_wsrf=False
        )
        assert producer.wsrf_enabled


class TestFixedTopicNamespace:
    def test_fixed_namespace_rejects_unknown_publication(self, network):
        from repro.filters.topics import TopicNamespace

        topics = TopicNamespace(fixed=True)
        topics.add("known/topic")
        producer = NotificationProducer(
            network, "http://producer", topic_namespace=topics
        )
        consumer = NotificationConsumer(network, "http://consumer")
        WsnSubscriber(network).subscribe(producer.epr(), consumer.epr(), topic="known/topic")
        assert producer.publish(event(), topic="known/topic") == 1
        with pytest.raises(SoapFault):
            producer.publish(event(), topic="surprise/topic")
