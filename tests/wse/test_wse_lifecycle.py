"""End-to-end WS-Eventing tests: full SOAP lifecycles over the simulated wire."""

import pytest

from repro.delivery import BatchingPolicy
from repro.soap import SoapFault
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import (
    DeliveryMode,
    EventSink,
    EventSource,
    SubscriptionEndCode,
    WseSubscriber,
    WseVersion,
)
from repro.xmlkit import parse_xml

NS = {"ev": "urn:grid:events"}


def event(progress=50, level="info"):
    return parse_xml(
        f'<ev:Status xmlns:ev="urn:grid:events" level="{level}">'
        f"<ev:progress>{progress}</ev:progress></ev:Status>"
    )


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


@pytest.fixture(params=list(WseVersion), ids=lambda v: v.name)
def version(request):
    return request.param


@pytest.fixture
def stack(network, version):
    source = EventSource(network, "http://source", version=version)
    sink = EventSink(network, "http://sink", version=version)
    subscriber = WseSubscriber(network, version=version)
    return source, sink, subscriber


class TestSubscribeAndNotify:
    def test_push_delivery(self, stack):
        source, sink, subscriber = stack
        subscriber.subscribe(source.epr(), notify_to=sink.epr())
        assert source.publish(event()) == 1
        assert len(sink.received) == 1
        assert sink.received[0].payload.name.local == "Status"

    def test_filtered_subscription(self, stack):
        source, sink, subscriber = stack
        subscriber.subscribe(
            source.epr(),
            notify_to=sink.epr(),
            filter="/ev:Status[ev:progress > 60]",
            filter_namespaces=NS,
        )
        assert source.publish(event(progress=50)) == 0
        assert source.publish(event(progress=80)) == 1
        assert len(sink.received) == 1

    def test_multiple_sinks(self, network, version):
        source = EventSource(network, "http://source", version=version)
        sinks = [EventSink(network, f"http://sink{i}", version=version) for i in range(3)]
        subscriber = WseSubscriber(network, version=version)
        for sink in sinks:
            subscriber.subscribe(source.epr(), notify_to=sink.epr())
        assert source.publish(event()) == 3
        assert all(len(sink.received) == 1 for sink in sinks)

    def test_bad_filter_faults(self, stack):
        source, sink, subscriber = stack
        with pytest.raises(SoapFault) as excinfo:
            subscriber.subscribe(source.epr(), notify_to=sink.epr(), filter="///bad")
        assert "Filtering" in excinfo.value.subcode.local

    def test_unknown_dialect_faults(self, stack):
        source, sink, subscriber = stack
        with pytest.raises(SoapFault):
            subscriber.subscribe(
                source.epr(),
                notify_to=sink.epr(),
                filter="x",
                filter_dialect="urn:not-a-dialect",
            )

    def test_push_requires_notify_to(self, stack):
        source, _, subscriber = stack
        with pytest.raises(SoapFault):
            subscriber.subscribe(source.epr())


class TestSubscriptionIdentity:
    def test_08_id_travels_in_manager_epr(self, network):
        source = EventSource(network, "http://source", version=WseVersion.V2004_08)
        sink = EventSink(network, "http://sink", version=WseVersion.V2004_08)
        subscriber = WseSubscriber(network, version=WseVersion.V2004_08)
        handle = subscriber.subscribe(source.epr(), notify_to=sink.epr())
        # separate manager endpoint, id as reference parameter
        assert handle.manager.address == "http://source/subscriptions"
        assert handle.manager.parameter_text(
            WseVersion.V2004_08.qname("Identifier")
        ) == handle.sub_id

    def test_01_id_is_bare_element_manager_is_source(self, network):
        source = EventSource(network, "http://source", version=WseVersion.V2004_01)
        sink = EventSink(network, "http://sink", version=WseVersion.V2004_01)
        subscriber = WseSubscriber(network, version=WseVersion.V2004_01)
        handle = subscriber.subscribe(source.epr(), notify_to=sink.epr())
        assert handle.manager.address == "http://source"
        assert not handle.manager.reference_parameters


class TestManagement:
    def test_renew_extends_expiry(self, stack, network):
        source, sink, subscriber = stack
        handle = subscriber.subscribe(source.epr(), notify_to=sink.epr(), expires="PT60S")
        network.clock.advance(30.0)
        new_expires = subscriber.renew(handle, "PT120S")
        assert new_expires  # granted
        network.clock.advance(100.0)  # inside the renewed lease
        assert source.publish(event()) == 1

    def test_expiry_without_renew(self, stack, network):
        source, sink, subscriber = stack
        subscriber.subscribe(source.epr(), notify_to=sink.epr(), expires="PT60S")
        network.clock.advance(61.0)
        assert source.publish(event()) == 0
        assert len(sink.received) == 0

    def test_unsubscribe_stops_delivery(self, stack):
        source, sink, subscriber = stack
        handle = subscriber.subscribe(source.epr(), notify_to=sink.epr())
        subscriber.unsubscribe(handle)
        assert source.publish(event()) == 0

    def test_unsubscribe_twice_faults(self, stack):
        source, sink, subscriber = stack
        handle = subscriber.subscribe(source.epr(), notify_to=sink.epr())
        subscriber.unsubscribe(handle)
        with pytest.raises(SoapFault):
            subscriber.unsubscribe(handle)

    def test_get_status_08(self, network):
        source = EventSource(network, "http://source", version=WseVersion.V2004_08)
        sink = EventSink(network, "http://sink", version=WseVersion.V2004_08)
        subscriber = WseSubscriber(network, version=WseVersion.V2004_08)
        handle = subscriber.subscribe(source.epr(), notify_to=sink.epr(), expires="PT90S")
        status = subscriber.get_status(handle)
        assert status.startswith("2006-")  # absolute dateTime of the lease

    def test_get_status_01_not_defined(self, network):
        source = EventSource(network, "http://source", version=WseVersion.V2004_01)
        sink = EventSink(network, "http://sink", version=WseVersion.V2004_01)
        subscriber = WseSubscriber(network, version=WseVersion.V2004_01)
        handle = subscriber.subscribe(source.epr(), notify_to=sink.epr())
        with pytest.raises(SoapFault):
            subscriber.get_status(handle)

    def test_absolute_datetime_expiry(self, stack, network):
        source, sink, subscriber = stack
        subscriber.subscribe(
            source.epr(), notify_to=sink.epr(), expires="2006-01-01T00:02:00Z"
        )
        network.clock.advance(60.0)
        assert source.publish(event()) == 1
        network.clock.advance(61.0)
        assert source.publish(event()) == 0

    def test_past_expiry_faults(self, stack, network):
        source, sink, subscriber = stack
        network.clock.advance(3600.0)
        with pytest.raises(SoapFault) as excinfo:
            subscriber.subscribe(
                source.epr(), notify_to=sink.epr(), expires="2006-01-01T00:00:30Z"
            )
        assert "InvalidExpirationTime" == excinfo.value.subcode.local

    def test_max_lifetime_caps_grant(self, network, version):
        source = EventSource(network, "http://source", version=version, max_lifetime=60.0)
        sink = EventSink(network, "http://sink", version=version)
        subscriber = WseSubscriber(network, version=version)
        subscriber.subscribe(source.epr(), notify_to=sink.epr(), expires="PT2H")
        network.clock.advance(61.0)
        assert source.publish(event()) == 0


class TestSubscriptionEnd:
    def test_delivery_failure_sends_end(self, stack, network, version):
        source, sink, subscriber = stack
        end_sink = EventSink(network, "http://end-sink", version=version)
        subscriber.subscribe(source.epr(), notify_to=sink.epr(), end_to=end_sink.epr())
        sink.close()  # sink dies
        assert source.publish(event()) == 1  # matched, but delivery fails
        assert len(end_sink.subscription_ends) == 1
        assert end_sink.subscription_ends[0].code is SubscriptionEndCode.DELIVERY_FAILURE
        # subscription is gone afterwards
        assert source.publish(event()) == 0

    def test_shutdown_sends_source_shutting_down(self, stack, network, version):
        source, sink, subscriber = stack
        end_sink = EventSink(network, "http://end-sink", version=version)
        subscriber.subscribe(source.epr(), notify_to=sink.epr(), end_to=end_sink.epr())
        source.shutdown()
        assert end_sink.subscription_ends[0].code is SubscriptionEndCode.SOURCE_SHUTTING_DOWN

    def test_no_end_to_no_message(self, stack, network):
        source, sink, subscriber = stack
        subscriber.subscribe(source.epr(), notify_to=sink.epr())
        sink.close()
        source.publish(event())  # fails, ends silently
        assert source.ended_subscriptions  # recorded internally, nothing sent
        assert network.stats.refused >= 1


class TestPullDelivery:
    def test_pull_08(self, network):
        source = EventSource(network, "http://source", version=WseVersion.V2004_08)
        subscriber = WseSubscriber(network, version=WseVersion.V2004_08)
        handle = subscriber.subscribe(source.epr(), mode=DeliveryMode.PULL)
        source.publish(event(10))
        source.publish(event(20))
        messages = subscriber.pull(handle)
        assert len(messages) == 2
        assert subscriber.pull(handle) == []  # queue drained

    def test_pull_max_messages(self, network):
        source = EventSource(network, "http://source", version=WseVersion.V2004_08)
        subscriber = WseSubscriber(network, version=WseVersion.V2004_08)
        handle = subscriber.subscribe(source.epr(), mode=DeliveryMode.PULL)
        for i in range(5):
            source.publish(event(i))
        assert len(subscriber.pull(handle, max_messages=2)) == 2
        assert len(subscriber.pull(handle)) == 3

    def test_pull_rejected_on_01(self, network):
        source = EventSource(network, "http://source", version=WseVersion.V2004_01)
        subscriber = WseSubscriber(network, version=WseVersion.V2004_01)
        with pytest.raises(SoapFault) as excinfo:
            subscriber.subscribe(source.epr(), mode=DeliveryMode.PULL)
        assert excinfo.value.subcode.local == "DeliveryModeRequestedUnavailable"

    def test_pull_through_firewall(self, network):
        """The paper's motivating scenario: consumer behind a firewall."""
        network.add_zone("lan", blocks_inbound=True)
        source = EventSource(network, "http://source", version=WseVersion.V2004_08)
        subscriber = WseSubscriber(network, version=WseVersion.V2004_08, zone="lan")
        handle = subscriber.subscribe(source.epr(), mode=DeliveryMode.PULL)
        source.publish(event())
        assert len(subscriber.pull(handle)) == 1


class TestWrappedDelivery:
    def test_wrapped_batches(self, network):
        source = EventSource(
            network, "http://source", version=WseVersion.V2004_08,
            batching=BatchingPolicy(max_batch=3),
        )
        sink = EventSink(network, "http://sink", version=WseVersion.V2004_08)
        subscriber = WseSubscriber(network, version=WseVersion.V2004_08)
        subscriber.subscribe(source.epr(), notify_to=sink.epr(), mode=DeliveryMode.WRAPPED)
        source.publish(event(1))
        source.publish(event(2))
        assert len(sink.received) == 0  # below batch size
        source.publish(event(3))
        assert len(sink.received) == 3
        assert all(item.wrapped for item in sink.received)

    def test_flush_delivers_partial_batch(self, network):
        source = EventSource(network, "http://source", version=WseVersion.V2004_08)
        sink = EventSink(network, "http://sink", version=WseVersion.V2004_08)
        subscriber = WseSubscriber(network, version=WseVersion.V2004_08)
        subscriber.subscribe(source.epr(), notify_to=sink.epr(), mode=DeliveryMode.WRAPPED)
        source.publish(event())
        source.flush()
        assert len(sink.received) == 1

    def test_wrapped_rejected_on_01(self, network):
        source = EventSource(network, "http://source", version=WseVersion.V2004_01)
        sink = EventSink(network, "http://sink", version=WseVersion.V2004_01)
        subscriber = WseSubscriber(network, version=WseVersion.V2004_01)
        with pytest.raises(SoapFault):
            subscriber.subscribe(
                source.epr(), notify_to=sink.epr(), mode=DeliveryMode.WRAPPED
            )
