"""Two spans per delivery, and a retry never loses its lineage header.

On the healthy path a delivery records only the spans that carry lineage
across the wire: the client's ``deliver`` and the endpoint's ``dispatch``.
A first attempt sends under the publish span, whose context is the
``X-Lineage`` header.  An attempt the stack has lost — a scheduler-fired
retry, a timer-flushed batch — opens ``delivery.attempt`` with the task's
lineage as ``remote=``, so its header still names the publish's lineage at
the first attempt's hop and its spans still hang off the publish tree.
"""

from collections import Counter

from repro.delivery import BatchingPolicy, DeliveryManager, DeliveryPolicy
from repro.messenger import WsMessenger
from repro.obs import Instrumentation
from repro.obs.propagation import LineageContext
from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
from repro.transport.http import LINEAGE_HTTP_HEADER, parse_request
from repro.wsa.headers import reset_message_counter
from repro.wse import EventSink, WseSubscriber
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
from repro.xmlkit import parse_xml

TOPIC = "spans/topic"


def event():
    return parse_xml('<s:E xmlns:s="urn:spans"><s:n>1</s:n></s:E>')


def traced_network():
    reset_message_counter()
    network = SimulatedNetwork(VirtualClock())
    return network, Instrumentation.attach(network)


def headers_to(network, address: str, *, drop: int = 0) -> list[LineageContext]:
    """Every request's lineage header sent to ``address``, in order; the
    first ``drop`` of them are lost on the wire."""
    seen: list[LineageContext] = []

    def observe(target, payload):
        if target != address:
            return
        text = parse_request(payload).headers[LINEAGE_HTTP_HEADER]
        seen.append(LineageContext.decode(text))
        if len(seen) <= drop:
            raise MessageLost(target)

    network.observers.append(observe)
    return seen


def ancestors(tracer, span) -> list[str]:
    by_id = {s.span_id: s for s in tracer.spans}
    names = []
    while span.parent_id is not None:
        span = by_id[span.parent_id]
        names.append(span.name)
    return names


class TestRetriesKeepTheirLineage:
    def test_scheduler_fired_retries_carry_the_first_attempts_header(self):
        """Two lost pushes, then success: attempts 2 and 3 name the publish's
        lineage at the first attempt's hop, each under its own attempt span,
        and the delivered copy's dispatch joins the publish tree."""
        network, instr = traced_network()
        broker = WsMessenger(
            network, "http://spans-broker",
            delivery=DeliveryPolicy(max_attempts=3, breaker_failure_threshold=3),
        )
        consumer = NotificationConsumer(network, "http://spans-flaky")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic=TOPIC)
        sent = headers_to(network, consumer.address, drop=2)
        broker.publish(event(), topic=TOPIC)
        broker.run_deliveries_until_idle()
        assert len(consumer.received) == 1

        tracer = instr.tracer
        (lineage_id,) = instr.ledger.lineages()
        assert instr.ledger.account_of(lineage_id).attempts == 3
        first, *retries = sent
        assert len(retries) == 2
        assert all(
            (c.lineage_id, c.hop) == (lineage_id, first.hop) for c in retries
        ), "a retry that loses its span loses its X-Lineage header"

        (publish,) = [s for s in tracer.spans if s.name == "wsn.publish"]
        assert first.parent_span == publish.span_id
        attempts = [s for s in tracer.spans if s.name == "delivery.attempt"]
        assert [s.attrs["attempt"] for s in attempts] == ["2", "3"]
        for span, context in zip(attempts, retries):
            assert span.parent_id == publish.span_id
            assert context.parent_span == span.span_id
        (dispatch,) = [
            s for s in tracer.spans
            if s.name == "dispatch" and s.attrs["address"] == consumer.address
        ]
        assert ancestors(tracer, dispatch)[:3] == ["deliver", "delivery.attempt", "wsn.publish"]
        assert dispatch.lineage == lineage_id

    def test_a_timer_flushed_batch_carries_its_header(self):
        """A window batch flushed by the scheduler, outside any span, still
        sends the publish's lineage at the publish's hop."""
        network, instr = traced_network()
        manager = DeliveryManager(network)
        producer = NotificationProducer(
            network, "http://spans-producer", delivery_manager=manager,
            batching=BatchingPolicy(window=0.5, max_batch=10),
        )
        consumer = NotificationConsumer(network, "http://spans-batched")
        client = WsnSubscriber(network)
        for _ in range(2):
            client.subscribe(producer.epr(), consumer.epr(), topic=TOPIC)
        sent = headers_to(network, consumer.address)
        producer.publish(event(), topic=TOPIC)
        assert sent == [] and producer.batcher.pending() == 2
        manager.run_until_idle()
        assert len(consumer.received) == 2

        (lineage_id,) = instr.ledger.lineages()
        (publish,) = [s for s in instr.tracer.spans if s.name == "wsn.publish"]
        (attempt,) = [s for s in instr.tracer.spans if s.name == "delivery.attempt"]
        (context,) = sent
        assert (context.lineage_id, context.hop) == (lineage_id, publish.hop + 1)
        assert attempt.parent_id == publish.span_id
        assert context.parent_span == attempt.span_id


def test_a_healthy_publish_records_two_spans_per_delivery():
    """N sinks in two families: 2N delivery spans plus the publish-level
    ones (the broker's publish and fan-out, one publish per family)."""
    network, instr = traced_network()
    broker = WsMessenger(network, "http://spans-broker", delivery=DeliveryPolicy())
    for n in range(3):
        consumer = NotificationConsumer(network, f"http://spans-wsn-{n}")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic=TOPIC)
    for n in range(2):
        sink = EventSink(network, f"http://spans-wse-{n}")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
    instr.reset()
    broker.publish(event(), topic=TOPIC)

    sinks = 5
    publish_level = {"broker.publish": 1, "broker.fan_out": 1, "wsn.publish": 1, "wse.publish": 1}
    names = Counter(span.name for span in instr.tracer.spans)
    assert names == Counter(deliver=sinks, dispatch=sinks, **publish_level)
    assert len(instr.tracer.spans) == 2 * sinks + len(publish_level)
    assert "notify" not in names and "delivery.attempt" not in names
    assert all(span.status == "ok" for span in instr.tracer.spans)
