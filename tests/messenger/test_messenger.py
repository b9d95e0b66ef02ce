"""End-to-end tests for the WS-Messenger broker: detection, mediation,
cross-spec delivery and backbone adapters."""

import pytest

from repro.messenger import (
    CorbaBackbone,
    InMemoryBackbone,
    JmsBackbone,
    SpecFamily,
    WsMessenger,
    detect_spec,
)
from repro.messenger.detection import SpecDetectionError
from repro.messenger.mediation import WSE_TOPIC_HEADER
from repro.soap import SoapEnvelope, SoapFault, SoapVersion, parse_envelope, serialize_envelope
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wsa.headers import MessageHeaders, apply_headers
from repro.wse import EventSink, EventSource, WseSubscriber, WseVersion
from repro.wse import messages as wse_messages
from repro.wsn import (
    NotificationConsumer,
    NotificationProducer,
    PullPointClient,
    WsnSubscriber,
    WsnVersion,
)
from repro.wsn import messages as wsn_messages
from repro.wsa import EndpointReference
from repro.xmlkit import parse_xml

NS = {"ev": "urn:grid:events"}


def event(progress=50):
    return parse_xml(
        f'<ev:Status xmlns:ev="urn:grid:events"><ev:progress>{progress}</ev:progress></ev:Status>'
    )


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


@pytest.fixture
def broker(network):
    return WsMessenger(network, "http://broker")


class TestSpecDetection:
    def _subscribe_envelope(self, body, wsa_version, action):
        envelope = SoapEnvelope(SoapVersion.V11)
        headers = MessageHeaders(to="http://broker", action=action)
        apply_headers(envelope, headers, wsa_version)
        envelope.add_body(body)
        return parse_envelope(serialize_envelope(envelope))  # wire round-trip

    @pytest.mark.parametrize("version", list(WseVersion), ids=lambda v: v.name)
    def test_detects_wse_versions(self, version):
        body = wse_messages.build_subscribe(
            version, notify_to=EndpointReference("http://sink")
        )
        envelope = self._subscribe_envelope(
            body, version.wsa_version, version.action("Subscribe")
        )
        spec = detect_spec(envelope)
        assert spec.family is SpecFamily.WS_EVENTING
        assert spec.version is version
        assert spec.operation == "Subscribe"
        assert not spec.wsa_mismatch

    @pytest.mark.parametrize("version", list(WsnVersion), ids=lambda v: v.name)
    def test_detects_wsn_versions(self, version):
        body = wsn_messages.build_subscribe(
            version,
            consumer=EndpointReference("http://consumer"),
        )
        envelope = self._subscribe_envelope(
            body, version.wsa_version, version.action("Subscribe")
        )
        spec = detect_spec(envelope)
        assert spec.family is SpecFamily.WS_NOTIFICATION
        assert spec.version is version

    def test_wsa_mismatch_flagged(self):
        from repro.wsa.versions import WsaVersion

        body = wse_messages.build_subscribe(
            WseVersion.V2004_08, notify_to=EndpointReference("http://sink")
        )
        envelope = self._subscribe_envelope(
            body, WsaVersion.V2003_03, WseVersion.V2004_08.action("Subscribe")
        )
        assert detect_spec(envelope).wsa_mismatch

    def test_unknown_spec_rejected(self):
        envelope = SoapEnvelope()
        envelope.add_body(event())
        with pytest.raises(SpecDetectionError):
            detect_spec(envelope)

    def test_empty_body_rejected(self):
        with pytest.raises(SpecDetectionError):
            detect_spec(SoapEnvelope())


class TestSingleSpecThroughBroker:
    def test_wse_subscriber_at_broker_front_door(self, network, broker):
        sink = EventSink(network, "http://sink")
        subscriber = WseSubscriber(network)
        subscriber.subscribe(broker.epr(), notify_to=sink.epr())
        broker.publish(event())
        assert len(sink.received) == 1
        assert broker.stats.detected == {"WS-Eventing/V2004_08": 1}

    def test_wsn_subscriber_at_broker_front_door(self, network, broker):
        consumer = NotificationConsumer(network, "http://consumer")
        subscriber = WsnSubscriber(network)
        subscriber.subscribe(broker.epr(), consumer.epr(), topic="jobs")
        broker.publish(event(), topic="jobs")
        assert len(consumer.received) == 1

    def test_response_follows_request_spec(self, network, broker):
        """A WSE 01/2004 client gets an 01/2004-shaped reply (bare wse:Id)."""
        sink = EventSink(network, "http://sink", version=WseVersion.V2004_01)
        subscriber = WseSubscriber(network, version=WseVersion.V2004_01)
        handle = subscriber.subscribe(broker.epr(), notify_to=sink.epr())
        # 01/2004: the source IS the manager, so the handle points at the
        # front door, which mediates Renew/Unsubscribe for this version too
        assert handle.manager.address == broker.address
        assert not handle.manager.reference_parameters  # 01/2004 style
        subscriber.renew(handle, "PT1H")
        subscriber.unsubscribe(handle)
        broker.publish(event())
        assert sink.received == []

    def test_management_ops_work_through_minted_manager(self, network, broker):
        sink = EventSink(network, "http://sink")
        subscriber = WseSubscriber(network)
        handle = subscriber.subscribe(broker.epr(), notify_to=sink.epr())
        subscriber.renew(handle, "PT2H")
        assert subscriber.get_status(handle)
        subscriber.unsubscribe(handle)
        broker.publish(event())
        assert sink.received == []

    def test_unsupported_operation_faults(self, network, broker):
        from repro.transport.endpoint import SoapClient

        client = SoapClient(network)
        body = wse_messages.verbs(WseVersion.V2004_08)["renew"].build("PT1H")
        with pytest.raises(SoapFault):
            client.call(broker.epr(), WseVersion.V2004_08.action("Renew"), [body])


class TestCrossSpecMediation:
    def test_wsn_publisher_to_wse_consumer(self, network, broker):
        """The headline mediation: publish with wsnt:Notify, consume via WSE."""
        sink = EventSink(network, "http://sink")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        # external publisher pushes a wrapped WSN Notify at the broker
        from repro.soap.envelope import SoapVersion
        from repro.transport.endpoint import SoapClient
        from repro.wsn.messages import NotificationMessage

        version = WsnVersion.V1_3
        notify = wsn_messages.build_notify(
            version, [NotificationMessage(event(77), topic="jobs/status")]
        )
        client = SoapClient(network, wsa_version=version.wsa_version)
        client.call(broker.epr(), version.action("Notify"), [notify], expect_reply=False)
        assert len(sink.received) == 1
        # the WSE sink got the *raw* payload (category 5: structures differ)
        assert sink.received[0].payload.name.local == "Status"
        assert "77" in sink.received[0].payload.full_text()

    def test_wse_source_to_wsn_consumer(self, network, broker):
        """Reverse direction: bridge an external WSE source into the broker;
        WSN consumers receive wrapped Notify messages."""
        external = EventSource(network, "http://external-source")
        consumer = NotificationConsumer(network, "http://consumer")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr())
        broker.bridge_from_wse_source(external.epr())
        external.publish(event(88))
        assert len(consumer.received) == 1
        assert consumer.received[0].wrapped  # WSN consumer sees Notify
        assert "88" in consumer.received[0].payload.full_text()

    def test_wsn_producer_bridged_to_both_families(self, network, broker):
        external = NotificationProducer(network, "http://external-producer")
        wse_sink = EventSink(network, "http://wse-sink")
        wsn_consumer = NotificationConsumer(network, "http://wsn-consumer")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=wse_sink.epr())
        WsnSubscriber(network).subscribe(broker.epr(), wsn_consumer.epr(), topic="jobs")
        broker.bridge_from_wsn_producer(external.epr(), topic="jobs")
        external.publish(event(5), topic="jobs")
        assert len(wse_sink.received) == 1
        assert len(wsn_consumer.received) == 1
        assert wsn_consumer.received[0].topic == "jobs"

    def test_topic_rides_as_header_for_wse_sinks(self, network, broker):
        """Category 6: the topic moves from the WSN body to a SOAP header."""
        captured = []

        from repro.transport.endpoint import SoapEndpoint

        endpoint = SoapEndpoint(network, "http://raw-sink")
        endpoint.on_any(
            lambda envelope, headers: captured.append(
                envelope.header_text(WSE_TOPIC_HEADER)
            )
        )
        WseSubscriber(network).subscribe(
            broker.epr(), notify_to=EndpointReference("http://raw-sink")
        )
        broker.publish(event(), topic="jobs/status")
        assert captured == ["jobs/status"]

    def test_same_event_all_five_versions(self, network, broker):
        """One publication reaches subscribers of every spec version."""
        sinks = {}
        for version in WseVersion:
            sink = EventSink(network, f"http://sink-{version.name}", version=version)
            WseSubscriber(network, version=version).subscribe(
                broker.epr(), notify_to=sink.epr()
            )
            sinks[version.name] = sink
        consumers = {}
        for version in WsnVersion:
            consumer = NotificationConsumer(
                network, f"http://consumer-{version.name}", version=version
            )
            WsnSubscriber(network, version=version).subscribe(
                broker.epr(), consumer.epr(), topic="jobs"
            )
            consumers[version.name] = consumer
        broker.publish(event(), topic="jobs")
        for name, sink in sinks.items():
            assert len(sink.received) == 1, f"WSE {name} missed the event"
        for name, consumer in consumers.items():
            assert len(consumer.received) == 1, f"WSN {name} missed the event"
        assert broker.subscription_count() == 5

    def test_pull_point_via_broker(self, network, broker):
        client = PullPointClient(network)
        subscriber = WsnSubscriber(network)
        factory_epr = EndpointReference(broker.address + "/pullpoints")
        pull_point = client.create(factory_epr)
        subscriber.subscribe(broker.epr(), pull_point, topic="jobs")
        broker.publish(event(), topic="jobs")
        assert len(client.get_messages(pull_point)) == 1


class TestBackbones:
    def _roundtrip(self, network, backbone):
        broker = WsMessenger(network, "http://broker-bb", backbone=backbone)
        sink = EventSink(network, "http://sink-bb")
        consumer = NotificationConsumer(network, "http://consumer-bb")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="jobs")
        broker.publish(event(31), topic="jobs")
        assert len(sink.received) == 1
        assert len(consumer.received) == 1
        assert consumer.received[0].topic == "jobs"

    def test_in_memory(self, network):
        self._roundtrip(network, InMemoryBackbone())

    def test_jms_backbone(self, network):
        from repro.baselines.jms import JmsProvider

        backbone = JmsBackbone(JmsProvider(network.clock))
        self._roundtrip(network, backbone)
        assert backbone.messages_carried == 1  # really went through JMS

    def test_corba_backbone(self, network):
        backbone = CorbaBackbone()
        self._roundtrip(network, backbone)
        assert backbone.messages_carried == 1  # really went through the ORB

    def test_backbone_describe(self):
        assert InMemoryBackbone().describe() == "in-memory"
        assert "corba" in CorbaBackbone().describe()


class TestBrokerStats:
    def test_detection_counters(self, network, broker):
        sink = EventSink(network, "http://sink")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        consumer = NotificationConsumer(network, "http://consumer")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="t")
        assert broker.stats.detected["WS-Eventing/V2004_08"] == 1
        assert broker.stats.detected["WS-Notification/V1_3"] == 1

    def test_detection_failure_counted(self, network, broker):
        from repro.transport.endpoint import SoapClient

        client = SoapClient(network)
        with pytest.raises(SoapFault):
            client.call(broker.epr(), "urn:mystery:Op", [event()])
        assert broker.stats.detection_failures == 1

    def test_detection_failure_counted_by_obs_too(self, network, broker):
        """One front-door body: with obs on the same failure path counts
        ``broker.detection_failures`` beside the stats field."""
        from repro.obs import Instrumentation
        from repro.transport.endpoint import SoapClient

        instrumentation = Instrumentation.attach(network)
        with pytest.raises(SoapFault, match="specification detection failed"):
            SoapClient(network).call(broker.epr(), "urn:mystery:Op", [event()])
        assert broker.stats.detection_failures == 1
        counters = instrumentation.metrics.counter_values
        assert counters("broker.detection_failures") == {"broker.detection_failures": 1}
        assert not counters("broker.requests")  # nothing was detected

    def test_publication_counter(self, network, broker):
        broker.publish(event(), topic="jobs")
        broker.publish(event())
        assert broker.stats.publications == 2
