"""Wire fidelity of batched (multi-message) Notify envelopes.

A coalesced Notify is rendered through the envelope byte-template — it never
passes through the tree serializer — so this suite holds it to the same
standard the conformance codec engine holds generated documents to:

* the rendered wire text must be a serialize→parse→serialize **fixpoint**
  (byte-identical roundtrip through the ordinary codec);
* parsing must split it back into exactly the coalesced
  ``NotificationMessage`` entries, each with its own subscription identity;
* every coalesced notification ledgers its own per-message lineage entries,
  and the conservation audit balances (opened == delivered).
"""

import pytest

from repro.delivery.policy import BatchingPolicy
from repro.obs import Instrumentation
from repro.obs.audit import audit
from repro.soap.codec import parse_envelope, serialize_envelope
from repro.transport import SimulatedNetwork, VirtualClock
from repro.transport.http import parse_request
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
from repro.xmlkit import parse_xml
from repro.xmlkit.writer import serialize_xml

N_SUBSCRIPTIONS = 5


def event(n=1):
    return parse_xml(
        f'<e:Reading xmlns:e="urn:batch"><e:n>{n}</e:n>'
        f"<e:text>a &amp; b &lt; c</e:text></e:Reading>"
    )


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


def _batched_stack(network, *, instrument: bool):
    if instrument:
        Instrumentation.attach(network)
    producer = NotificationProducer(
        network,
        "http://batch-producer",
        batching=BatchingPolicy(window=0.0, max_batch=100),
    )
    consumer = NotificationConsumer(network, "http://batch-consumer")
    subscriber = WsnSubscriber(network)
    handles = [
        subscriber.subscribe(producer.epr(), consumer.epr(), topic="t")
        for _ in range(N_SUBSCRIPTIONS)
    ]
    return producer, consumer, handles


def _notify_bodies(frames):
    texts = []
    for frame in frames:
        body = parse_request(bytes(frame)).body
        if b"Notify" in body:
            texts.append(body.decode("utf-8"))
    return texts


class TestBatchedRoundtrip:
    def test_batched_envelope_is_a_codec_fixpoint(self, network):
        frames = []
        network.wire_observers.append(lambda obs: frames.append(obs.request))
        producer, consumer, _ = _batched_stack(network, instrument=False)
        assert producer.publish(event(), topic="t") == N_SUBSCRIPTIONS
        [wire_text] = _notify_bodies(frames)
        # serialize(parse(x)) == x: the template-rendered text is exactly
        # what the tree codec would emit for the parsed document
        reparsed = parse_xml(wire_text)
        assert serialize_xml(reparsed, xml_declaration=True) == wire_text
        # and again through the SOAP envelope layer
        envelope = parse_envelope(wire_text)
        assert serialize_envelope(envelope) == wire_text

    def test_batched_envelope_splits_into_the_coalesced_messages(self, network):
        frames = []
        network.wire_observers.append(lambda obs: frames.append(obs.request))
        producer, consumer, handles = _batched_stack(network, instrument=False)
        producer.publish(event(7), topic="t")
        [wire_text] = _notify_bodies(frames)
        body = parse_envelope(wire_text).body_element()
        messages = [
            child
            for child in body.elements()
            if child.name.local == "NotificationMessage"
        ]
        assert len(messages) == N_SUBSCRIPTIONS
        # one consumer-side record per coalesced message, payloads intact
        assert len(consumer.received) == N_SUBSCRIPTIONS
        assert {
            item.subscription_address for item in consumer.received
        } == {handle.manager.address for handle in handles}
        for item in consumer.received:
            assert item.payload.full_text() == "7a & b < c"

    def test_lineage_books_balance_per_coalesced_message(self, network):
        producer, consumer, _ = _batched_stack(network, instrument=True)
        instr = network.instrumentation
        producer.publish(event(1), topic="t")
        producer.publish(event(2), topic="t")
        assert len(consumer.received) == 2 * N_SUBSCRIPTIONS
        # one lineage per publish; each carries an obligation per coalesced
        # message, every one individually enqueued and delivered
        lineages = list(instr.ledger.lineages())
        assert len(lineages) == 2
        for lineage_id in lineages:
            account = instr.ledger.account_of(lineage_id)
            assert account.opened == N_SUBSCRIPTIONS
            assert account.delivered == N_SUBSCRIPTIONS
        result = audit(instr, scenario="batched-notify")
        assert result.passed, result.render()
