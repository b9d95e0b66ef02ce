"""The work one delivery costs, counted in calls, from publish to the sink.

The receive budget (``test_receive_budget.py``) holds what a consumer pays
for one envelope; this holds the whole road one notification travels: a
broker publish (route, render, settle, the delivery manager's attempt, the
store's outcome record) plus the consumer's receive, which the simulated
network runs inside the send.  The consumers are the ``fanout_push``
benchmark's four dialects in its proportions (WSN 1.3, WSN 1.0, WSE 08/2004
and WSE 01/2004 at 8 : 2 : 8 : 2), with every cache warm.  "Composed" is
delivery, adaptive QoS, batching and a memory event log all on; "bare" is a
broker with none of them.

On CPython 3.10 and 3.11 one delivery costs 180.25 calls composed and
130.85 bare (3.12, which inlines comprehensions, 174.25 and 123.85); the
3.11 counts are the budgets.  Calls are counted by
:func:`repro.comparison.python_calls` (``call`` events under
``sys.setprofile``, with the collector off: Python frames, generator
resumptions and, on interpreters that give them one, comprehensions).
"""

import pytest

from repro.comparison import python_calls
from repro.delivery import BatchingPolicy, DeliveryPolicy
from repro.messenger import WsMessenger
from repro.qos import AdaptiveQosPolicy
from repro.store import BrokerStore
from repro.store.log import MemoryEventLog
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import EventSink, WseSubscriber
from repro.wse.versions import WseVersion
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit import parse_xml

TOPIC = "fan"
#: (consumer class, subscriber class, version, how many): fanout_push's mix
POPULATION = (
    (NotificationConsumer, WsnSubscriber, WsnVersion.V1_3, 8),
    (NotificationConsumer, WsnSubscriber, WsnVersion.V1_0, 2),
    (EventSink, WseSubscriber, WseVersion.V2004_08, 8),
    (EventSink, WseSubscriber, WseVersion.V2004_01, 2),
)
#: calls per delivery on CPython 3.11, measured before the families'
#: data-plane rows moved into the subscription frame
BUDGETS = {"composed": 180.25, "bare": 130.85}


def reading(seq: int):
    return parse_xml(
        f'<ev:Reading xmlns:ev="urn:grid:events"><ev:seq>{seq:07d}</ev:seq>'
        "<ev:host>h072</ev:host><ev:site>s09</ev:site><ev:value>8791</ev:value></ev:Reading>"
    )


def build(composed: bool):
    network = SimulatedNetwork(VirtualClock())
    kwargs = {}
    if composed:
        kwargs = {
            "delivery": DeliveryPolicy(),
            "qos": AdaptiveQosPolicy(max_sink_queue=16),
            "batching": BatchingPolicy(window=0.0, max_batch=100),
            "store": BrokerStore(MemoryEventLog()),
        }
    broker = WsMessenger(network, "http://send-budget-broker", **kwargs)
    consumers = []
    for consumer_cls, subscriber_cls, version, count in POPULATION:
        subscriber = subscriber_cls(network, version=version)
        for _ in range(count):
            consumer = consumer_cls(
                network, f"http://send-budget-sink/{len(consumers):02d}", version=version
            )
            if subscriber_cls is WsnSubscriber:
                subscriber.subscribe(broker.epr(), consumer.epr(), topic=TOPIC)
            else:
                subscriber.subscribe(broker.epr(), notify_to=consumer.epr())
            consumers.append(consumer)
    return broker, consumers


def publish_and_drain(broker, payload) -> None:
    broker.publish(payload, topic=TOPIC)
    broker.run_deliveries_until_idle()


@pytest.mark.parametrize("stack", list(BUDGETS))
def test_a_delivery_stays_within_its_call_budget(stack):
    broker, consumers = build(stack == "composed")
    publish_and_drain(broker, reading(1))  # first sight: templates, heads, name tables
    calls, _ = python_calls(publish_and_drain, broker, reading(2))
    assert [len(consumer.received) for consumer in consumers] == [2] * len(consumers)
    per_delivery = calls / len(consumers)
    assert per_delivery <= BUDGETS[stack], f"{per_delivery:.1f} calls per delivery"
