"""Store-and-forward for firewalled consumers, end to end through the broker.

The paper's pull-delivery motivation ("delivering messages to consumers
behind firewalls") meets the reliability pipeline: a push into a
blocks-inbound zone raises FirewallBlocked, the message parks in a
broker-side message box, and the consumer drains it from inside the zone —
via WSN 1.3 ``GetMessages`` (the stock PullPointClient) or the WSE ``Pull``
equivalent.
"""

import pytest

from repro.delivery import DeliveryPolicy, drain_message_box_wse
from repro.messenger import WsMessenger
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wsa.epr import EndpointReference
from repro.wse import EventSink, WseSubscriber
from repro.wse.model import DeliveryMode
from repro.wsn import NotificationConsumer, PullPointClient, WsnSubscriber
from repro.xmlkit import parse_xml

ZONE = "corp-lan"


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:fwf"><e:n>{n}</e:n></e:V>')


@pytest.fixture
def network():
    network = SimulatedNetwork(VirtualClock())
    network.add_zone(ZONE, blocks_inbound=True)
    return network


@pytest.fixture
def broker(network):
    return WsMessenger(
        network,
        "http://broker.public",
        delivery=DeliveryPolicy(
            max_attempts=4, base_backoff=1.0, jitter=0.0, breaker_failure_threshold=1
        ),
    )


class TestWsnDrain:
    def test_blocked_push_parks_and_pullpoint_client_drains(self, network, broker):
        consumer = NotificationConsumer(network, "http://inside-c", zone=ZONE)
        WsnSubscriber(network, zone=ZONE).subscribe(
            broker.epr(), consumer.epr(), topic="fw"
        )
        broker.publish(event(1), topic="fw")
        broker.publish(event(2), topic="fw")
        # nothing crossed the firewall; content is parked at the broker
        assert consumer.received == []
        box = broker.message_boxes.get("http://inside-c")
        assert box is not None and len(box) == 2
        # the subscription survives (no delivery-failure destruction)
        assert broker.subscription_count() == 1
        # drain from inside the zone with the stock WSN pull client
        messages = PullPointClient(network, zone=ZONE).get_messages(box.epr())
        assert [m.payload.full_text() for m in messages] == ["1", "2"]
        assert {m.topic for m in messages} == {"fw"}
        assert len(box) == 0

    def test_maximum_number_bounds_the_drain(self, network, broker):
        consumer = NotificationConsumer(network, "http://inside-c", zone=ZONE)
        WsnSubscriber(network, zone=ZONE).subscribe(
            broker.epr(), consumer.epr(), topic="fw"
        )
        for n in range(5):
            broker.publish(event(n), topic="fw")
        box = broker.message_boxes.get("http://inside-c")
        client = PullPointClient(network, zone=ZONE)
        assert len(client.get_messages(box.epr(), maximum=2)) == 2
        assert len(box) == 3
        assert len(client.get_messages(box.epr())) == 3

    def test_breaker_stops_wire_attempts_after_first_block(self, network, broker):
        consumer = NotificationConsumer(network, "http://inside-c", zone=ZONE)
        WsnSubscriber(network, zone=ZONE).subscribe(
            broker.epr(), consumer.epr(), topic="fw"
        )
        network.stats.reset()
        for n in range(10):
            broker.publish(event(n), topic="fw")
        # one refused attempt tripped the breaker; the other nine messages
        # parked locally without touching the firewall again
        assert network.stats.refused == 1
        assert len(broker.message_boxes.get("http://inside-c")) == 10


class TestWseDrain:
    def test_blocked_push_parks_and_wse_pull_drains(self, network, broker):
        sink = EventSink(network, "http://inside-sink", zone=ZONE)
        WseSubscriber(network, zone=ZONE).subscribe(
            broker.epr(), notify_to=sink.epr()
        )
        broker.publish(event(7))
        assert sink.received == []
        box = broker.message_boxes.get("http://inside-sink")
        assert box is not None and len(box) == 1
        payloads = drain_message_box_wse(network, box.epr(), zone=ZONE)
        assert [p.full_text() for p in payloads] == ["7"]
        assert len(box) == 0

    def test_a_wrapped_batch_keeps_its_topics_in_the_box_and_the_dlq(self, network, broker):
        """WSE's wrapper has no place for a topic, but what parks or dead-letters
        is the notification, not the wrapper: a GetMessages drain and the DLQ
        listing still see each item's topic."""
        sink = EventSink(network, "http://inside-sink", zone=ZONE)
        client = WseSubscriber(network, zone=ZONE)
        client.subscribe(broker.epr(), notify_to=sink.epr(), mode=DeliveryMode.WRAPPED)
        client.subscribe(
            broker.epr(), notify_to=EndpointReference("http://gone"), mode=DeliveryMode.WRAPPED
        )
        broker.publish(event(1), topic="fw")
        broker.publish(event(2), topic="fw/x")
        broker.flush()
        broker.run_deliveries_until_idle()
        box = broker.message_boxes.get("http://inside-sink")
        messages = PullPointClient(network, zone=ZONE).get_messages(box.epr())
        assert [(m.payload.full_text(), m.topic) for m in messages] == [("1", "fw"), ("2", "fw/x")]
        [letter] = broker.delivery_manager.dlq.entries
        assert letter.task.sink == "http://gone"
        assert [item.topic for item in letter.task.items] == ["fw", "fw/x"]

    def test_wse_subscription_survives_the_block(self, network, broker):
        sink = EventSink(network, "http://inside-sink", zone=ZONE)
        WseSubscriber(network, zone=ZONE).subscribe(
            broker.epr(), notify_to=sink.epr()
        )
        broker.publish(event(1))
        # with the reliability pipeline, a firewalled push no longer ends the
        # subscription with DeliveryFailure (contrast the best-effort broker)
        assert broker.subscription_count() == 1
        for source in broker.wse_sources.values():
            assert not source.ended_subscriptions


class TestRecovery:
    def test_half_open_probe_resumes_push_when_consumer_surfaces(self, network, broker):
        # the consumer moves out of the firewalled zone (same address now
        # registered publicly) after the breaker tripped
        consumer = NotificationConsumer(network, "http://moving-c", zone=ZONE)
        WsnSubscriber(network, zone=ZONE).subscribe(
            broker.epr(), consumer.epr(), topic="fw"
        )
        broker.publish(event(1), topic="fw")
        box = broker.message_boxes.get("http://moving-c")
        assert len(box) == 1
        consumer.close()
        reachable = NotificationConsumer(network, "http://moving-c")
        # while the breaker is open, traffic still parks (box exists)
        broker.publish(event(2), topic="fw")
        assert len(box) == 2
        # past the cool-down the half-open probe goes out and succeeds
        network.clock.advance(broker.delivery_manager.policy.breaker_reset_after)
        broker.publish(event(3), topic="fw")
        broker.pump_deliveries()
        assert len(reachable.received) == 1
        assert broker.delivery_manager.breaker_state("http://moving-c") == "closed"
        # the backlog stays in the box for the consumer to drain
        messages = PullPointClient(network).get_messages(box.epr())
        assert len(messages) == 2
