"""Failure injection: lossy networks, dead endpoints, retry policies."""

import pytest

from repro.delivery import DeliveryManager, DeliveryPolicy
from repro.messenger import WsMessenger
from repro.soap import SoapFault
from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
from repro.wse import EventSink, EventSource, SubscriptionEndCode, WseSubscriber
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
from repro.xmlkit import parse_xml


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:fi"><e:n>{n}</e:n></e:V>')


class LossSchedule:
    """Deterministic loss: drop exactly the requests whose index is listed."""

    def __init__(self, network: SimulatedNetwork, drop_indices: set[int]) -> None:
        self.count = 0
        self.drop = drop_indices
        network.observers.append(self._observe)
        self._network = network

    def _observe(self, target, payload):
        self.count += 1
        if self.count in self.drop:
            self._network.stats.lost += 1
            raise MessageLost(target)


def _retrying_source(network, attempts: int) -> EventSource:
    """Retrying is the delivery policy's job: a source given a manager whose
    budget is ``attempts`` tries, the first included, with no backoff."""
    policy = DeliveryPolicy(max_attempts=attempts, base_backoff=0.0, jitter=0.0)
    return EventSource(
        network, "http://src", delivery_manager=DeliveryManager(network, policy=policy)
    )


class TestLossyDelivery:
    def test_no_retries_loss_kills_subscription(self):
        network = SimulatedNetwork(VirtualClock())
        source = EventSource(network, "http://src")  # best effort: one attempt
        sink = EventSink(network, "http://snk")
        WseSubscriber(network).subscribe(source.epr(), notify_to=sink.epr())
        LossSchedule(network, {1})  # drop the next wire request
        source.publish(event())
        assert sink.received == []
        assert source.ended_subscriptions
        assert source.ended_subscriptions[0][1] is SubscriptionEndCode.DELIVERY_FAILURE

    def test_retry_recovers_from_transient_loss(self):
        network = SimulatedNetwork(VirtualClock())
        source = _retrying_source(network, attempts=3)
        sink = EventSink(network, "http://snk")
        WseSubscriber(network).subscribe(source.epr(), notify_to=sink.epr())
        LossSchedule(network, {1})  # first attempt lost, retry succeeds
        source.publish(event())
        source.delivery_manager.run_until_idle()
        assert len(sink.received) == 1
        assert not source.ended_subscriptions

    def test_retries_exhausted_dead_letters(self):
        network = SimulatedNetwork(VirtualClock())
        source = _retrying_source(network, attempts=3)
        sink = EventSink(network, "http://snk")
        WseSubscriber(network).subscribe(source.epr(), notify_to=sink.epr())
        LossSchedule(network, {1, 2, 3})  # initial + both retries lost
        source.publish(event())
        source.delivery_manager.run_until_idle()
        assert sink.received == []
        # the pipeline owns the failure: dead-lettered and replayable, and
        # the subscription is not ended over it
        assert len(source.delivery_manager.dlq) == 1
        assert not source.ended_subscriptions
        source.publish(event(2))
        assert len(sink.received) == 1

    def test_hard_failure_not_retried(self):
        network = SimulatedNetwork(VirtualClock())
        source = EventSource(network, "http://src")
        sink = EventSink(network, "http://snk")
        WseSubscriber(network).subscribe(source.epr(), notify_to=sink.epr())
        sink.close()  # address gone: AddressUnreachable is permanent
        network.stats.reset()
        source.publish(event())
        assert source.ended_subscriptions
        # exactly one attempt: no retry storm against a dead address
        assert network.stats.refused == 1

    def test_hard_failure_attempts_are_bounded_by_the_policy(self):
        network = SimulatedNetwork(VirtualClock())
        source = _retrying_source(network, attempts=3)
        sink = EventSink(network, "http://snk")
        WseSubscriber(network).subscribe(source.epr(), notify_to=sink.epr())
        sink.close()
        network.stats.reset()
        source.publish(event())
        source.delivery_manager.run_until_idle()
        assert network.stats.refused == 3
        assert len(source.delivery_manager.dlq) == 1

    def test_seeded_loss_rate_is_reproducible(self):
        outcomes = []
        for _ in range(2):
            network = SimulatedNetwork(VirtualClock(), loss_rate=0.5, seed=7)
            network.register("http://svc", lambda req: b"ok")
            results = []
            for _ in range(20):
                try:
                    network.send_request("http://svc", b"x")
                    results.append(True)
                except MessageLost:
                    results.append(False)
            outcomes.append(results)
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])

    @staticmethod
    def _ten_percent_loss(policy):
        """40 publishes to 3 WSN consumers and 2 WSE sinks over a wire losing 10 %."""
        network = SimulatedNetwork(VirtualClock(), seed=20060813)
        broker = WsMessenger(network, "http://lossy-broker", delivery=policy, delivery_seed=20060813)
        receivers = [NotificationConsumer(network, f"http://lossy-c/{n}") for n in range(3)]
        for consumer in receivers:
            WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="fi")
        for n in range(2):
            sink = EventSink(network, f"http://lossy-s/{n}")
            WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
            receivers.append(sink)
        network.loss_rate = 0.10  # subscriptions were made on a clean wire
        for n in range(40):
            broker.publish(event(n), topic="fi")
        broker.run_deliveries_until_idle()
        delivered = sum(len(receiver.received) for receiver in receivers)
        return delivered / (40 * len(receivers)), broker.subscription_count(), broker

    def test_a_retry_policy_turns_ten_percent_loss_into_full_delivery(self):
        share, surviving, _ = self._ten_percent_loss(None)
        # best effort: the first lost push ends its subscription
        assert share < 0.9 and surviving < 5
        share, surviving, broker = self._ten_percent_loss(
            DeliveryPolicy(max_attempts=8, base_backoff=0.25, backoff_multiplier=2.0, jitter=0.2)
        )
        assert share >= 0.99 and surviving == 5
        assert broker.delivery_manager.stats.retries > 0


class TestWsnFailureHandling:
    def test_dead_consumer_removes_subscription_without_poisoning_others(self):
        network = SimulatedNetwork(VirtualClock())
        producer = NotificationProducer(network, "http://prod")
        dead = NotificationConsumer(network, "http://dead")
        alive = NotificationConsumer(network, "http://alive")
        subscriber = WsnSubscriber(network)
        subscriber.subscribe(producer.epr(), dead.epr(), topic="t")
        subscriber.subscribe(producer.epr(), alive.epr(), topic="t")
        dead.close()
        producer.publish(event(), topic="t")
        assert len(alive.received) == 1
        # second publication: only the live subscription remains
        assert producer.publish(event(), topic="t") == 1

    def test_fault_from_handler_crosses_the_wire_intact(self):
        network = SimulatedNetwork(VirtualClock())
        producer = NotificationProducer(network, "http://prod")
        consumer = NotificationConsumer(network, "http://cons")
        subscriber = WsnSubscriber(network)
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="t")
        subscriber.unsubscribe(handle)
        with pytest.raises(SoapFault) as excinfo:
            subscriber.renew(handle, "PT1H")
        assert excinfo.value.subcode.local == "ResourceUnknownFault"

    def test_expired_subscription_management_faults(self):
        network = SimulatedNetwork(VirtualClock())
        producer = NotificationProducer(network, "http://prod")
        consumer = NotificationConsumer(network, "http://cons")
        subscriber = WsnSubscriber(network)
        handle = subscriber.subscribe(
            producer.epr(), consumer.epr(), topic="t", initial_termination="PT10S"
        )
        network.clock.advance(20.0)
        with pytest.raises(SoapFault):
            subscriber.pause(handle)
