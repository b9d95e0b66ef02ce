"""Broker crash recovery: the event log is the subscription journal.

These are the behaviours the retired ``SubscriptionJournal`` was tested for
(every accepted Subscribe is journalled — as the grant it made, not its
bytes — and replayed at a fresh broker, ids / manager EPRs / granted
expiries survive), ported to what
subsumed it: ``WsMessenger(store=BrokerStore(log))`` + ``recover_broker``.
A store implies the delivery manager, so a consumer that vanished with the
broker dead-letters instead of being reaped on first failure.
"""

import pytest

from repro.delivery import DeliveryPolicy
from repro.messenger import WsMessenger
from repro.soap import SoapFault
from repro.store import BrokerStore, MemoryEventLog, recover_broker
from repro.store.records import SubscribeRecorded
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import EventSink, WseSubscriber, WseVersion
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.xmlkit import parse_xml

ADDRESS = "http://jr-broker"


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:jr"><e:n>{n}</e:n></e:V>')


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


def _broker(network, **kwargs):
    return WsMessenger(network, ADDRESS, store=BrokerStore(MemoryEventLog()), **kwargs)


def _crash_and_recover(network, broker, **kwargs):
    broker.close()  # the broker and all its internal endpoints vanish
    return recover_broker(network, ADDRESS, broker.store.log, **kwargs)


def _journalled(broker):
    return [r for r in broker.store.log.records() if isinstance(r, SubscribeRecorded)]


def _populate(network, broker):
    sink = EventSink(network, "http://jr-sink")
    WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
    consumer = NotificationConsumer(network, "http://jr-consumer")
    WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="jr")
    return sink, consumer


class TestJournal:
    def test_journal_records_subscribes_only(self, network):
        broker = _broker(network)
        _populate(network, broker)
        broker.publish(event(), topic="jr")  # logged, but not as a Subscribe
        # each as the grant it made: who is notified, of what, until when
        journalled = _journalled(broker)
        assert [r.consumer for r in journalled] == ["http://jr-sink", "http://jr-consumer"]
        assert journalled[1].topic == journalled[1].filter["topic"] == "jr"
        assert all(r.expires is not None and r.consumer_epr is None for r in journalled)

    def test_failed_subscribe_not_journalled(self, network):
        broker = _broker(network)
        with pytest.raises(SoapFault):
            WseSubscriber(network).subscribe(broker.epr())  # push without NotifyTo faults
        assert _journalled(broker) == []

    def test_crash_and_recover(self, network):
        broker = _broker(network)
        sink, consumer = _populate(network, broker)
        broker.publish(event(1), topic="jr")
        recovered = _crash_and_recover(network, broker)
        assert recovered.store.stats.recovered_subscriptions == 2
        assert recovered.subscription_count() == 2
        recovered.publish(event(2), topic="jr")
        # consumers kept receiving across the crash, nothing twice
        assert len(sink.received) == 2
        assert len(consumer.received) == 2

    def test_replay_skips_vanished_consumers(self, network):
        policy = DeliveryPolicy(max_attempts=2, base_backoff=0.0, jitter=0.0)
        broker = _broker(network, delivery=policy)
        sink, consumer = _populate(network, broker)
        sink.close()  # one consumer died along with the broker
        recovered = _crash_and_recover(network, broker, delivery=policy)
        # subscriptions are re-created regardless (consumer liveness is only
        # probed at delivery time, as with any live subscription)
        assert recovered.store.stats.recovered_subscriptions == 2
        recovered.publish(event(), topic="jr")
        recovered.run_deliveries_until_idle()
        assert len(consumer.received) == 1
        # the dead sink's copy is dead-lettered; the DLQ owns it from here
        assert len(recovered.delivery_manager.dlq) == 1
        assert recovered.subscription_count() == 2

    def test_replay_preserves_ids_and_manager_eprs(self, network):
        broker = _broker(network)
        sink = EventSink(network, "http://jr-sink")
        consumer = NotificationConsumer(network, "http://jr-consumer")
        wse_subscriber = WseSubscriber(network)
        wsn_subscriber = WsnSubscriber(network)
        wse_handle = wse_subscriber.subscribe(broker.epr(), notify_to=sink.epr())
        wsn_handle = wsn_subscriber.subscribe(broker.epr(), consumer.epr(), topic="jr")
        recovered = _crash_and_recover(network, broker)
        # the manager EPRs minted before the crash still address these
        # subscriptions: Renew and Unsubscribe work without re-subscribing
        wse_subscriber.renew(wse_handle, "PT2H")
        wsn_subscriber.renew(wsn_handle, "PT2H")
        wse_subscriber.unsubscribe(wse_handle)
        wsn_subscriber.unsubscribe(wsn_handle)
        assert recovered.subscription_count() == 0

    def test_replay_restores_granted_expiry(self, network):
        broker = _broker(network)
        sink = EventSink(network, "http://jr-sink")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr(), expires="PT1H")
        network.clock.advance(1200.0)
        recovered = _crash_and_recover(network, broker)
        # absolute expiry survives: the remaining lifetime shrank by the
        # 20 minutes that elapsed, instead of being re-granted in full
        source = recovered.wse_sources[WseVersion.V2004_08]
        [subscription] = source.subscriptions.live_resources()
        assert subscription.termination_time == pytest.approx(3600.0, abs=1.0)


class TestJournalWithReliableDelivery:
    def test_restart_replays_journal_and_dlq_exactly_once(self, network):
        policy = DeliveryPolicy(max_attempts=2, base_backoff=1.0, jitter=0.0)
        broker = _broker(network, delivery=policy)
        sink, consumer = _populate(network, broker)
        # the WSN consumer goes dark: its copy exhausts the retry budget and
        # dead-letters (the subscription itself survives — the DLQ owns it)
        consumer.close()
        broker.publish(event(1), topic="jr")
        broker.run_deliveries_until_idle()
        assert len(sink.received) == 1
        assert len(broker.delivery_manager.dlq) == 1
        # --- crash, recover: subscriptions and the dead letter come back ----
        recovered = _crash_and_recover(network, broker, delivery=policy)
        recovered.run_deliveries_until_idle()
        assert recovered.subscription_count() == 2
        assert len(sink.received) == 1  # the settled copy is not re-sent
        dlq = recovered.delivery_manager.dlq
        assert len(dlq) == 1
        revived = NotificationConsumer(network, "http://jr-consumer")
        assert dlq.replay(recovered.delivery_manager) == 1
        recovered.run_deliveries_until_idle()
        assert len(dlq) == 0
        # the replayed message arrived exactly once
        assert len(revived.received) == 1
        # and live traffic flows exactly once to every consumer
        recovered.publish(event(2), topic="jr")
        recovered.run_deliveries_until_idle()
        assert len(revived.received) == 2
        assert len(sink.received) == 2
