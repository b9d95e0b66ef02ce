"""A restart of the whole degraded stack rebuilds the whole projection.

Loss on the wire, firewalled sinks parked and drained by pull, a dead sink
in retry and then in the dead-letter queue, a QoS queue bound shedding
behind it, and a consumer whose subscriptions the push batcher coalesces:
after two back-to-back recoveries from the log, the full store projection
(subscriptions, box addresses and pending counts, dead-letter count) equals
the live one.  It does so with leases that outlive the run and with
one-hour leases that the dead sink's backoff carries past their end before
the crash: replay judges each publish at the time it was logged.  The
rebuilt dead-letter queue also holds each letter with the time it died.
"""

import pytest

from repro.delivery import BatchingPolicy, DeliveryPolicy, drain_message_box_wse
from repro.messenger import WsMessenger
from repro.qos import AdaptiveQosPolicy
from repro.store import BrokerStore, MemoryEventLog, recover_broker
from repro.store.records import OutcomeRecorded
from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
from repro.transport.network import PUBLIC_ZONE
from repro.wse import EventSink, WseSubscriber
from repro.wsn import NotificationConsumer, PullPointClient, WsnSubscriber
from repro.xmlkit import parse_xml

BROKER = "http://rc-degraded"
ZONE = "rc-lan"
#: the first outlives the run; the dead sink's backoff fast-forwards the
#: clock by hours, so the second lapses before the crash
LEASES = ("P2D", "PT1H")
CONFIG = dict(
    delivery=DeliveryPolicy(),
    qos=AdaptiveQosPolicy(max_sink_queue=4),
    batching=BatchingPolicy(window=0.0, max_batch=100),
)


def retry_lost(call):
    """A client on a lossy network re-sends a request the wire dropped (the
    loss model drops before the handler runs, so a re-send is safe)."""
    while True:
        try:
            return call()
        except MessageLost:
            continue


def _run_degraded(network: SimulatedNetwork, lease: str) -> WsMessenger:
    """Three blocks of eight paced publishes, each followed by a full drain
    and the pulls of all firewalled sinks but the first."""
    network.add_zone(ZONE, blocks_inbound=True)
    broker = WsMessenger(network, BROKER, store=BrokerStore(MemoryEventLog()), **CONFIG)

    def wse(n, zone=PUBLIC_ZONE):
        sink = EventSink(network, f"http://rc-deg-sink-{n}", zone=zone)
        client = WseSubscriber(network, zone=zone)
        retry_lost(lambda: client.subscribe(broker.epr(), notify_to=sink.epr(), expires=lease))
        return sink

    def wsn(n, zone=PUBLIC_ZONE, copies=1):
        consumer = NotificationConsumer(network, f"http://rc-deg-consumer-{n}", zone=zone)
        client = WsnSubscriber(network, zone=zone)
        for _ in range(copies):
            retry_lost(
                lambda: client.subscribe(
                    broker.epr(), consumer.epr(), topic="deg", initial_termination=lease
                )
            )
        return consumer

    for n in range(3):
        wse(n)
        wsn(n)
    wsn(3, ZONE)  # firewalled, never pulls: its box holds everything
    pull_wsn = PullPointClient(network, zone=ZONE)
    pulls = {
        wse(4, ZONE).address: lambda box: drain_message_box_wse(network, box, zone=ZONE),
        wsn(4, ZONE).address: pull_wsn.get_messages,
        wse(5, ZONE).address: lambda box: drain_message_box_wse(network, box, zone=ZONE),
        wsn(5, ZONE).address: pull_wsn.get_messages,
    }
    wsn(6, copies=4)  # coalesced by the push batcher
    wsn(7).close()  # subscribed, then gone: retries, a breaker, dead letters, shedding
    for block in range(3):
        for n in range(8):
            payload = parse_xml(f'<d:R xmlns:d="urn:deg"><d:n>{block}.{n}</d:n></d:R>')
            broker.publish(payload, topic="deg")
            network.clock.advance(0.25)
            broker.pump_deliveries()
        broker.run_deliveries_until_idle()
        for address, pull in pulls.items():
            box = broker.message_boxes.get(address).epr()
            retry_lost(lambda: pull(box))
    return broker


@pytest.mark.parametrize("lease", LEASES)
@pytest.mark.parametrize("seed", [5, 2006])
def test_two_back_to_back_recoveries_rebuild_the_live_projection(seed, lease):
    network = SimulatedNetwork(VirtualClock(), loss_rate=0.1, seed=seed)
    broker = _run_degraded(network, lease)
    manager, store = broker.delivery_manager, broker.store
    outcomes = {r.outcome for r in store.log.records() if isinstance(r, OutcomeRecorded)}
    assert {"delivered", "parked", "drained", "dead"} <= outcomes
    reasons = {r.reason for r in store.log.records() if isinstance(r, OutcomeRecorded)}
    assert "shed:queue_full" in reasons and "max_attempts" in reasons
    assert manager.pending() == 0 and manager.stats.shed > 0 and len(manager.dlq) > 0
    live = store.projection(broker)
    died_at = [letter.dead_at for letter in manager.dlq.entries]
    # first-park order: WSE sinks mint at the route, WSN ones at the batcher's flush
    boxes = {
        sink: (box["address"].rsplit("/", 1)[1], box["pending"])
        for sink, box in live["boxes"].items()
    }
    assert boxes == {
        "http://rc-deg-sink-4": ("box-1", 0), "http://rc-deg-sink-5": ("box-2", 0),
        "http://rc-deg-consumer-3": ("box-3", 24), "http://rc-deg-consumer-4": ("box-4", 0),
        "http://rc-deg-consumer-5": ("box-5", 0),
    }
    records = len(store.log)
    broker.close()
    for _ in range(2):
        recovered = recover_broker(network, BROKER, store.log, **CONFIG)
        assert recovered.store.projection(recovered) == live
        # a restored dead letter keeps the time it died, not the restart's
        assert [letter.dead_at for letter in recovered.delivery_manager.dlq.entries] == died_at
        assert len(store.log) == records  # nothing was in flight: replay appends nothing
        recovered.close()
