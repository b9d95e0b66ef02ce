"""Demand-based publishing as a backpressure valve.

Section V.5's demand mechanism pauses upstream publishers when no consumer
wants their topic.  WS-Messenger with an adaptive-QoS policy extends the same
wire mechanism to *load*: when its delivery pipeline's backlog crosses the
policy's high-water mark, the broker advertises zero demand (pausing every
upstream subscription) until the backlog drains below the low-water mark —
and the reconciliation must stay correct while subscribers churn mid-pause.
"""

import pytest

from repro.delivery import DeliveryPolicy
from repro.messenger import WsMessenger
from repro.qos import AdaptiveQosPolicy
from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
from repro.xmlkit import parse_xml


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:lag"><e:n>{n}</e:n></e:V>')


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


@pytest.fixture
def broker(network):
    return WsMessenger(
        network,
        "http://broker",
        delivery=DeliveryPolicy(
            max_attempts=8,
            base_backoff=5.0,
            jitter=0.0,
            breaker_failure_threshold=100,
        ),
        qos=AdaptiveQosPolicy(pause_pending_above=3, resume_pending_below=1),
    )


@pytest.fixture
def manager(broker):
    return broker.delivery_manager


@pytest.fixture
def publisher(network, broker):
    publisher = NotificationProducer(network, "http://publisher")
    broker.publishers.register(publisher.epr(), topic="jobs", demand=True)
    return publisher


def upstream_of(broker):
    (registration,) = broker.publishers
    return registration


class TestLagDrivenPauseResume:
    def test_backlog_pauses_and_drain_resumes_the_publisher(
        self, network, manager, broker, publisher
    ):
        consumer = NotificationConsumer(network, "http://consumer")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="jobs")
        assert not upstream_of(broker).paused_upstream  # demand exists

        drops = {"on": True}

        def drop(address, request):
            if drops["on"] and address == consumer.address:
                raise MessageLost(address)

        network.observers.append(drop)
        for n in range(3):
            broker.publish(event(n), topic="jobs")
        # backlog hit the high-water mark: the broker advertises zero demand
        assert manager.pending() == 3
        assert broker.publishers.lag_paused
        assert broker.publishers.pauses == 1
        assert upstream_of(broker).paused_upstream

        # a paused upstream adds nothing to the backlog: the publisher's
        # event waits in its paused-subscription buffer instead
        publisher.publish(event(99), topic="jobs")
        assert manager.pending() == 3

        drops["on"] = False
        manager.run_until_idle()
        assert manager.pending() == 0
        assert not broker.publishers.lag_paused
        assert broker.publishers.resumes == 1
        assert not upstream_of(broker).paused_upstream
        # the deferred event flushed on resume — leveled, not lost
        assert len(consumer.received) == 4

    def test_hysteresis_does_not_flap_between_the_marks(
        self, network, manager, broker, publisher
    ):
        consumer = NotificationConsumer(network, "http://consumer")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="jobs")
        network.observers.append(
            lambda address, request: (_ for _ in ()).throw(MessageLost(address))
            if address == consumer.address
            else None
        )
        for n in range(4):
            broker.publish(event(n), topic="jobs")
        assert broker.publishers.pauses == 1
        # retries fire, fail, and re-notify with pending still at 4: the
        # broker must not count a fresh pause for every backlog report
        manager.run_until_idle(deadline=network.clock.now() + 20.0)
        assert broker.publishers.pauses == 1
        assert broker.publishers.lag_paused

    def test_subscriber_churn_while_lag_paused_stays_paused(
        self, network, manager, broker, publisher
    ):
        consumer = NotificationConsumer(network, "http://consumer")
        subscriber = WsnSubscriber(network)
        first = subscriber.subscribe(broker.epr(), consumer.epr(), topic="jobs")
        drops = {"on": True}

        def drop(address, request):
            if drops["on"] and address == consumer.address:
                raise MessageLost(address)

        network.observers.append(drop)
        for n in range(3):
            broker.publish(event(n), topic="jobs")
        assert broker.publishers.lag_paused

        # churn during the pause: every subscription event reconciles demand,
        # but lag overrides it — the upstream must not flap open
        other = NotificationConsumer(network, "http://other")
        second = subscriber.subscribe(broker.epr(), other.epr(), topic="jobs")
        assert upstream_of(broker).paused_upstream
        subscriber.unsubscribe(first)
        assert upstream_of(broker).paused_upstream

        drops["on"] = False
        manager.run_until_idle()
        # lag cleared with one live subscriber left: demand wins again
        assert not broker.publishers.lag_paused
        assert not upstream_of(broker).paused_upstream

        # ...and ordinary demand reconciliation still works after the episode
        subscriber.unsubscribe(second)
        assert upstream_of(broker).paused_upstream

    def test_resume_with_no_subscribers_left_stays_paused(
        self, network, manager, broker, publisher
    ):
        consumer = NotificationConsumer(network, "http://consumer")
        subscriber = WsnSubscriber(network)
        handle = subscriber.subscribe(broker.epr(), consumer.epr(), topic="jobs")
        drops = {"on": True}

        def drop(address, request):
            if drops["on"] and address == consumer.address:
                raise MessageLost(address)

        network.observers.append(drop)
        for n in range(3):
            broker.publish(event(n), topic="jobs")
        assert broker.publishers.lag_paused
        subscriber.unsubscribe(handle)

        drops["on"] = False
        manager.run_until_idle()
        # the lag pause ended, but with zero demand the upstream stays paused
        assert not broker.publishers.lag_paused
        assert upstream_of(broker).paused_upstream
