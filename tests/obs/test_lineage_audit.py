"""The lineage ledger and the conservation auditor.

Unit level: obligation accounting (opened/closed/pending/parked) derived
from event streams, and each auditor invariant firing on a hand-built
violation.  Integration level: a lossy retried delivery and a firewalled
pull fallback must both leave balanced books and a connected trace.
"""

import pytest

from repro.obs.audit import audit
from repro.obs.instrument import Instrumentation
from repro.obs.lineage import KNOWN_STATES, LineageLedger
from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
from repro.wsa.headers import reset_message_counter
from repro.xmlkit import parse_xml


def make_ledger():
    return LineageLedger(VirtualClock())


class TestLedgerAccounting:
    def test_push_delivery_balances(self):
        ledger = make_ledger()
        ledger.record("lin-1", "published")
        ledger.record("lin-1", "enqueued", sink="http://a")
        ledger.record("lin-1", "attempted", n=1)
        ledger.record("lin-1", "delivered", sink="http://a")
        account = ledger.account_of("lin-1")
        assert (account.opened, account.delivered, account.pending) == (1, 1, 0)
        assert account.attempts == 1

    def test_parked_obligation_stays_pending_until_pulled(self):
        ledger = make_ledger()
        ledger.record("lin-1", "published")
        ledger.record("lin-1", "enqueued", sink="http://fw")
        ledger.record("lin-1", "attempted", n=1)
        ledger.record("lin-1", "pending_pull", box="http://box")
        account = ledger.account_of("lin-1")
        assert account.pending == 1
        assert account.parked_outstanding == 1
        ledger.record("lin-1", "delivered", sink="http://fw", via="pull")
        account = ledger.account_of("lin-1")
        assert account.pending == 0
        assert account.parked_outstanding == 0

    def test_dead_letter_and_replay_reopen_the_obligation(self):
        ledger = make_ledger()
        ledger.record("lin-1", "published")
        ledger.record("lin-1", "enqueued", sink="http://a")
        ledger.record("lin-1", "dead_lettered", reason="max_attempts")
        assert ledger.account_of("lin-1").pending == 0
        ledger.record("lin-1", "replayed", sink="http://a")
        assert ledger.account_of("lin-1").pending == 1
        ledger.record("lin-1", "delivered", sink="http://a")
        account = ledger.account_of("lin-1")
        assert (account.opened, account.closed, account.pending) == (2, 2, 0)

    def test_unknown_state_is_rejected(self):
        with pytest.raises(ValueError, match="unknown lineage state"):
            make_ledger().record("lin-1", "teleported")

    def test_known_states_cover_the_documented_lifecycle(self):
        assert {
            "published", "mediated", "queued", "enqueued", "replayed",
            "attempted", "pending_pull", "delivered", "dead_lettered",
            "failed", "shed", "filter_error",
        } == set(KNOWN_STATES)


class TestAuditorInvariants:
    def setup_method(self):
        network = SimulatedNetwork(VirtualClock())
        self.instrumentation = Instrumentation.attach(network)

    def record_minimal_lineage(self, lineage_id="lin-00000001"):
        with self.instrumentation.span("publish", mint=True):
            pass
        ledger = self.instrumentation.ledger
        ledger.record(lineage_id, "published")
        return ledger

    def test_balanced_books_pass(self):
        ledger = self.record_minimal_lineage()
        ledger.record("lin-00000001", "enqueued", sink="http://a")
        ledger.record("lin-00000001", "delivered", sink="http://a")
        result = audit(self.instrumentation)
        assert result.passed, [f.render() for f in result.findings]
        assert (result.opened, result.delivered) == (1, 1)

    def test_pending_without_parking_fails_conservation(self):
        ledger = self.record_minimal_lineage()
        ledger.record("lin-00000001", "enqueued", sink="http://a")
        result = audit(self.instrumentation)
        assert not result.passed
        assert any(f.invariant == "conservation" for f in result.findings)

    def test_over_closing_fails_conservation(self):
        ledger = self.record_minimal_lineage()
        ledger.record("lin-00000001", "delivered", sink="http://a")
        result = audit(self.instrumentation)
        assert any(
            f.invariant == "conservation" and "closed 1" in f.message
            for f in result.findings
        )

    def test_missing_published_event_is_flagged(self):
        with self.instrumentation.span("publish", mint=True):
            pass
        self.instrumentation.ledger.record(
            "lin-00000001", "enqueued", sink="http://a"
        )
        self.instrumentation.ledger.record(
            "lin-00000001", "delivered", sink="http://a"
        )
        result = audit(self.instrumentation)
        assert any(
            f.invariant == "first-event-published" for f in result.findings
        )

    def test_ledger_entry_without_spans_is_dangling(self):
        self.instrumentation.ledger.record("lin-unseen", "published")
        result = audit(self.instrumentation)
        assert any(
            f.invariant == "no-dangling-lineage" and f.lineage_id == "lin-unseen"
            for f in result.findings
        )

    def test_span_without_ledger_entry_is_orphaned(self):
        with self.instrumentation.span("publish", mint=True):
            pass
        result = audit(self.instrumentation)
        assert any(
            f.invariant == "no-orphan-spans" for f in result.findings
        )


@pytest.fixture
def broker_stack():
    from repro.delivery import DeliveryPolicy
    from repro.messenger import WsMessenger

    reset_message_counter()
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    broker = WsMessenger(
        network,
        "http://audit-broker",
        delivery=DeliveryPolicy(max_attempts=3, breaker_failure_threshold=3),
    )
    return network, instrumentation, broker


def publish(broker, topic="audit/topic"):
    broker.publish(
        parse_xml('<a:E xmlns:a="urn:audit"><a:n>1</a:n></a:E>'), topic=topic
    )


class TestEndToEnd:
    def test_retried_delivery_keeps_one_connected_lineage(self, broker_stack):
        """Two lost pushes then success: the first attempt sends under the
        publish span, each scheduler-fired retry opens an attempt span that
        hangs off the publish, and the ledger closes exactly the obligations
        it opened (three attempts)."""
        from repro.wsn import NotificationConsumer, WsnSubscriber

        network, instrumentation, broker = broker_stack
        consumer = NotificationConsumer(network, "http://audit-flaky")
        WsnSubscriber(network).subscribe(
            broker.epr(), consumer.epr(), topic="audit/topic"
        )
        drops = {"remaining": 2}

        def drop(address, request):
            if address == consumer.address and drops["remaining"] > 0:
                drops["remaining"] -= 1
                raise MessageLost(address)

        network.observers.append(drop)
        publish(broker)
        broker.run_deliveries_until_idle()
        assert len(consumer.received) == 1

        result = audit(instrumentation)
        assert result.passed, [f.render() for f in result.findings]
        tracer = instrumentation.tracer
        (lineage_id,) = instrumentation.ledger.lineages()
        account = instrumentation.ledger.account_of(lineage_id)
        assert account.attempts == 3
        assert (account.opened, account.delivered) == (1, 1)
        attempts = [
            s
            for s in tracer.spans_of_lineage(lineage_id)
            if s.name == "delivery.attempt"
        ]
        assert [s.attrs["attempt"] for s in attempts] == ["2", "3"]
        assert all(tracer.depth_of(span) >= 1 for span in attempts), (
            "scheduler-fired retries must re-join the publish trace"
        )

    def test_firewalled_delivery_is_pending_until_pulled(self, broker_stack):
        """Park → audit shows the imbalance is parked (passes), pull drain
        closes it as delivered via=pull."""
        from repro.wsn import NotificationConsumer, PullPointClient, WsnSubscriber

        network, instrumentation, broker = broker_stack
        network.add_zone("dmz", blocks_inbound=True)
        hidden = NotificationConsumer(network, "http://audit-hidden", zone="dmz")
        WsnSubscriber(network, zone="dmz").subscribe(
            broker.epr(), hidden.epr(), topic="audit/topic"
        )
        publish(broker)
        broker.run_deliveries_until_idle()

        (lineage_id,) = instrumentation.ledger.lineages()
        parked = audit(instrumentation)
        assert parked.passed, [f.render() for f in parked.findings]
        assert parked.pending == 1
        assert parked.parked_outstanding == 1

        box = broker.message_boxes.get(hidden.address)
        PullPointClient(network, zone="dmz").get_messages(box.epr())
        drained = audit(instrumentation)
        assert drained.passed
        assert (drained.pending, drained.parked_outstanding) == (0, 0)
        events = instrumentation.ledger.events_of(lineage_id)
        assert events[-1].state == "delivered"
        assert events[-1].detail["via"] == "pull"
