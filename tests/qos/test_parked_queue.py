"""The parked-queue bound: a subscription that holds what it cannot push (a
paused WSN push subscription, a WSE pull subscription) keeps at most its
profile's ``MaxEventsPerConsumer`` items, and its ``DiscardPolicy`` says
which ones go."""

import pytest

from repro.obs import Instrumentation
from repro.qos import DiscardPolicy, QosProfile
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import DeliveryMode, EventSource, WseSubscriber, WseVersion
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber, WsnVersion
from repro.xmlkit import parse_xml


def event(n):
    return parse_xml(f'<e:V xmlns:e="urn:parked"><e:n>{n}</e:n></e:V>')


def paused_wsn_push(network, profile):
    producer = NotificationProducer(network, "http://producer", version=WsnVersion.V1_3)
    consumer = NotificationConsumer(network, "http://consumer")
    subscriber = WsnSubscriber(network)
    handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="t", qos=profile)
    subscriber.pause(handle)

    def take():
        subscriber.resume(handle)
        return [item.payload.full_text() for item in consumer.received]

    return (lambda n: producer.publish(event(n), topic="t")), take


def wse_pull(network, profile):
    source = EventSource(network, "http://source", version=WseVersion.V2004_08)
    subscriber = WseSubscriber(network, version=WseVersion.V2004_08)
    handle = subscriber.subscribe(source.epr(), mode=DeliveryMode.PULL, qos=profile)

    def take():
        return [payload.full_text() for payload in subscriber.pull(handle)]

    return (lambda n: source.publish(event(n))), take


@pytest.mark.parametrize(
    "policy, kept",
    [(DiscardPolicy.FIFO_ORDER, ["3", "4"]), (DiscardPolicy.LIFO_ORDER, ["0", "1"])],
    ids=["fifo", "lifo"],
)
@pytest.mark.parametrize(
    "family, holder",
    [("wsn", paused_wsn_push), ("wse", wse_pull)],
    ids=["wsn13-paused", "wse0804-pull"],
)
def test_a_full_parked_queue_sheds_by_discard_policy(family, holder, policy, kept):
    """LIFO refuses the incoming item, FIFO drops the oldest; each drop is
    counted, and the resume or pull delivers exactly what was kept."""
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    profile = QosProfile({"MaxEventsPerConsumer": 2, "DiscardPolicy": policy})
    publish, take = holder(network, profile)
    for n in range(5):
        publish(n)
    assert take() == kept
    assert instrumentation.metrics.counter_values("qos.shed_total") == {
        f"qos.shed_total{{family={family},reason=sub_queue_full}}": 3
    }
