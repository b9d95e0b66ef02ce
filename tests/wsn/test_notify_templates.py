"""Cache-invalidation tests for the envelope byte-templates, both families.

Templates are keyed by shape, so every plain-address consumer of one dialect
renders through one shared entry, which no single subscription's end may take
away.  Only a consumer EPR that carries reference parameters has entries of
its own (the parameters are baked into the envelope); the byte-template cache
must never serve a stale one of those: they are dropped when the last
subscription that rendered through them goes away — unsubscribe, lease-expiry
sweep — and everything is wiped after a crash-recovery replay.  A changed EPR
keys a different entry by construction, which the resubscribe test verifies on
the wire.

The cases are written once, against a small per-family ``Stack``; the
``TestEviction`` / ``TestEprChange`` / ``TestRecoveryReplay`` classes run them
over WS-Notification, their ``...Wse`` subclasses over WS-Eventing.
"""

import pytest

from repro.messenger import WsMessenger
from repro.store import BrokerStore, MemoryEventLog, recover_broker
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import EventSink, EventSource, WseSubscriber
from repro.wsn import (
    NotificationConsumer,
    NotificationProducer,
    WsnSubscriber,
)
from repro.xmlkit import parse_xml
from repro.xmlkit.element import text_element
from repro.xmlkit.names import QName

TAG = QName("urn:x-test", "Tag")


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:tmpl"><e:n>{n}</e:n></e:V>')


def tagged(epr, value="identity"):
    """``epr`` with a reference parameter: its templates are its own."""
    return epr.with_parameter(text_element(TAG, value))


class WsnStack:
    """A bare producer, one consumer and a subscriber client."""

    notify_marker = b"Notify"

    def __init__(self, network):
        self.service = NotificationProducer(network, "http://tmpl-producer")
        self.consumer = NotificationConsumer(network, "http://tmpl-consumer")
        self.client = WsnSubscriber(network)

    def subscribe(self, consumer_epr, lease=None):
        return self.client.subscribe(
            self.service.epr(), consumer_epr, topic="t", initial_termination=lease
        )

    def publish(self, payload):
        return self.service.publish(payload, topic="t")


class WseStack:
    """A bare event source, one sink and a subscriber client."""

    notify_marker = b"urn:tmpl"

    def __init__(self, network):
        self.service = EventSource(network, "http://tmpl-source")
        self.consumer = EventSink(network, "http://tmpl-sink")
        self.client = WseSubscriber(network)

    def subscribe(self, consumer_epr, lease=None):
        return self.client.subscribe(self.service.epr(), notify_to=consumer_epr, expires=lease)

    def publish(self, payload):
        return self.service.publish(payload)


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


class TestEviction:
    stack_class = WsnStack

    @pytest.fixture
    def stack(self, network):
        return self.stack_class(network)

    def test_publish_compiles_then_reuses_one_template(self, stack):
        templates = stack.service.renderer.templates
        stack.subscribe(stack.consumer.epr())
        assert len(templates) == 0
        stack.publish(event(1))
        stack.publish(event(2))
        assert len(templates) == 1
        assert len(stack.consumer.received) == 2

    def test_unsubscribe_drops_the_sink_templates(self, stack):
        templates = stack.service.renderer.templates
        plain = stack.subscribe(stack.consumer.epr())
        own = stack.subscribe(tagged(stack.consumer.epr()))
        stack.publish(event())
        assert len(templates) == 2  # the shared shape + the tagged sink's own
        stack.client.unsubscribe(own)
        assert len(templates) == 1
        # the shape entry is not any one subscription's to take away
        stack.client.unsubscribe(plain)
        assert len(templates) == 1

    def test_shared_sink_survives_until_last_reference(self, stack):
        templates = stack.service.renderer.templates
        first = stack.subscribe(tagged(stack.consumer.epr()))
        second = stack.subscribe(tagged(stack.consumer.epr()))
        stack.publish(event())
        assert len(templates) == 1
        stack.client.unsubscribe(first)
        # the other subscription still renders through this sink's entry
        assert len(templates) == 1
        stack.client.unsubscribe(second)
        assert len(templates) == 0

    def test_lease_expiry_sweep_drops_the_sink_templates(self, network, stack):
        templates = stack.service.renderer.templates
        stack.subscribe(tagged(stack.consumer.epr()), lease="PT1H")
        stack.publish(event(1))
        assert len(templates) == 1
        network.clock.advance(3601.0)
        # the next publish sweeps due leases before matching
        assert stack.publish(event(2)) == 0
        assert len(templates) == 0
        assert len(stack.consumer.received) == 1

    def test_many_plain_sinks_share_one_template(self, network, stack):
        sinks = [
            type(stack.consumer)(network, f"http://tmpl-consumer-{i}") for i in range(20)
        ]
        for sink in sinks:
            stack.subscribe(sink.epr())
        stack.publish(event())
        assert len(stack.service.renderer.templates) == 1
        assert all(len(sink.received) == 1 for sink in sinks)


class TestEvictionWse(TestEviction):
    stack_class = WseStack


class TestEprChange:
    stack_class = WsnStack

    def test_resubscribed_epr_renders_through_a_fresh_template(self, network):
        stack = self.stack_class(network)
        frames = []
        network.wire_observers.append(
            lambda obs: frames.append(bytes(obs.request))
        )
        handle = stack.subscribe(tagged(stack.consumer.epr(), "old-identity"))
        stack.publish(event(1))
        assert any(b"old-identity" in frame for frame in frames)
        stack.client.unsubscribe(handle)
        del frames[:]
        stack.subscribe(tagged(stack.consumer.epr(), "new-identity"))
        stack.publish(event(2))
        notify_frames = [f for f in frames if stack.notify_marker in f]
        assert notify_frames, "second publish reached the wire"
        # the stale sink's template cannot leak into the new EPR's envelopes
        assert all(b"old-identity" not in frame for frame in notify_frames)
        assert any(b"new-identity" in frame for frame in notify_frames)
        assert len(stack.consumer.received) == 2


class TestEprChangeWse(TestEprChange):
    stack_class = WseStack


class TestRecoveryReplay:
    family = "wsn"

    def test_replay_leaves_the_template_caches_empty(self, network):
        log = MemoryEventLog()
        broker = WsMessenger(network, "http://tmpl-broker", store=BrokerStore(log))
        if self.family == "wsn":
            consumer = NotificationConsumer(network, "http://tmpl-consumer")
            WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="t")
        else:
            consumer = EventSink(network, "http://tmpl-consumer")
            WseSubscriber(network).subscribe(broker.epr(), notify_to=consumer.epr())

        def caches(a_broker):
            services = a_broker.wsn_producers if self.family == "wsn" else a_broker.wse_sources
            return [len(service.renderer.templates) for service in services.values()]

        broker.publish(event(1), topic="t")
        broker.run_deliveries_until_idle()
        assert any(caches(broker))
        broker.close()

        recovered = recover_broker(network, "http://tmpl-broker", log)
        recovered.run_deliveries_until_idle()
        # whatever replayed publishes compiled mid-replay is dropped, so
        # post-recovery traffic recompiles against the converged stores
        assert not any(caches(recovered))
        received_before = len(consumer.received)
        recovered.publish(event(2), topic="t")
        recovered.run_deliveries_until_idle()
        assert len(consumer.received) == received_before + 1


class TestRecoveryReplayWse(TestRecoveryReplay):
    family = "wse"
