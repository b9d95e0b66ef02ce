"""End-to-end: an instrumented mediated publish produces a connected trace.

The acceptance scenario: an external WS-Eventing source bridged into the
WS-Messenger broker, delivering to a WS-Notification consumer.  One
publish must come out as a single connected span tree nesting at least
``deliver -> dispatch -> mediate -> ... -> wsn.publish -> deliver``, with the
per-spec-family counters filled in.
"""

import pytest

from repro.messenger import WsMessenger, mediation
from repro.obs import Instrumentation, NULL_INSTRUMENTATION
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import EventSource
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.xmlkit import parse_xml

TOPIC = "flow/demo"


@pytest.fixture
def stack():
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    source = EventSource(
        network, "http://flow-source", topic_header=mediation.WSE_TOPIC_HEADER
    )
    broker = WsMessenger(network, "http://flow-broker")
    broker.bridge_from_wse_source(source.epr())
    consumer = NotificationConsumer(network, "http://flow-consumer")
    WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic=TOPIC)
    instrumentation.reset()  # setup traffic is not part of the scenario
    return network, instrumentation, source, consumer


def publish_once(source):
    event = parse_xml('<f:Hit xmlns:f="urn:flow"><f:n>1</f:n></f:Hit>')
    source.publish(event, topic=TOPIC)


class TestSpanTree:
    def test_single_publish_yields_connected_nested_tree(self, stack):
        network, instrumentation, source, consumer = stack
        publish_once(source)
        assert consumer.received, "the mediated notification must arrive"
        tracer = instrumentation.tracer
        assert len(tracer.roots()) == 1, "one publish => one connected tree"
        max_depth = max(tracer.depth_of(span) for span in tracer.spans)
        assert max_depth >= 3
        names = {span.name for span in tracer.spans}
        assert {
            "deliver",
            "dispatch",
            "mediate",
            "broker.publish",
            "broker.fan_out",
            "wsn.publish",
        } <= names
        counters = instrumentation.metrics.counter_values("notifications.delivered")
        assert counters["notifications.delivered{family=wsn,version=v1_3}"] == 1
        # every span closed, on the virtual clock, in id order
        assert all(span.end is not None for span in tracer.spans)
        assert all(span.status == "ok" for span in tracer.spans)

    def test_mediate_nests_under_the_brokers_dispatch(self, stack):
        network, instrumentation, source, consumer = stack
        publish_once(source)
        tracer = instrumentation.tracer
        by_id = {span.span_id: span for span in tracer.spans}
        mediate = next(s for s in tracer.spans if s.name == "mediate")
        ancestors = []
        cursor = mediate
        while cursor.parent_id is not None:
            cursor = by_id[cursor.parent_id]
            ancestors.append(cursor.name)
        assert "dispatch" in ancestors
        assert "deliver" in ancestors


class TestCountersAndWire:
    def test_per_spec_family_counters(self, stack):
        network, instrumentation, source, consumer = stack
        publish_once(source)
        counters = instrumentation.metrics.snapshot()["counters"]
        # the broker front door never saw this publish (it entered through
        # the bridge ingest endpoint), but the fan-out and delivery did:
        assert counters["notifications.matched{family=wsn,version=v1_3}"] == 1
        assert counters["notifications.delivered{family=wsn,version=v1_3}"] == 1
        assert counters["mediation.messages{direction=wse-to-neutral}"] == 1
        assert counters["net.requests{outcome=ok}"] == 2  # source->ingest, broker->consumer

    def test_front_door_traffic_counts_by_family(self, stack):
        network, instrumentation, source, consumer = stack
        # a second subscription arrives *after* the reset, so this WSN
        # Subscribe is front-door traffic the detection layer must count
        from repro.wsa import EndpointReference

        other = NotificationConsumer(network, "http://flow-consumer-2")
        WsnSubscriber(network).subscribe(
            EndpointReference("http://flow-broker"), other.epr(), topic=TOPIC
        )
        counters = instrumentation.metrics.counter_values("broker.requests")
        assert counters == {"broker.requests{family=wsn,version=v1_3}": 1}
        detect = [s for s in instrumentation.tracer.spans if s.name == "detect_spec"]
        assert len(detect) == 1
        assert detect[0].attrs["family"] == "wsn"
        assert detect[0].attrs["operation"] == "Subscribe"

    def test_wire_frames_cover_the_publish_hops(self, stack):
        network, instrumentation, source, consumer = stack
        publish_once(source)
        frames = instrumentation.capture.frames
        addresses = [frame.address for frame in frames]
        assert any("ingest" in address for address in addresses)
        assert "http://flow-consumer" in addresses
        assert all(frame.ok for frame in frames)
        assert instrumentation.capture.total_request_bytes() > 0

    def test_uninstall_restores_the_null_object(self, stack):
        network, instrumentation, source, consumer = stack
        instrumentation.uninstall(network)
        assert network.instrumentation is NULL_INSTRUMENTATION
        assert network.wire_observers == []
        publish_once(source)
        assert consumer.received  # behaviour unchanged
        assert instrumentation.tracer.spans == []  # nothing new recorded


def test_a_never_instrumented_broker_stays_inert():
    network = SimulatedNetwork(VirtualClock())
    broker = WsMessenger(network, "http://flow-broker")
    consumer = NotificationConsumer(network, "http://flow-consumer")
    WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic=TOPIC)
    broker.publish(parse_xml("<f:Hit xmlns:f='urn:flow'/>"), topic=TOPIC)
    assert consumer.received
    assert network.instrumentation is NULL_INSTRUMENTATION
    assert network.instrumentation.enabled is False
    assert network.wire_observers == []
