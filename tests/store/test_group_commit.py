"""Group commit: one write per publish, and what a crash then finds on disk.

The file log buffers appends and the store decides when to commit: every
record at once, except the outcomes of the publish in flight, which leave
with one write when the publish closes.  These tests pin the write count,
the bytes, and the crash windows the rule opens and does not open.
"""

import json
import shutil

import pytest

from repro.delivery import DeliveryPolicy, drain_message_box_wse
from repro.messenger import WsMessenger
from repro.obs import Instrumentation
from repro.obs.audit import audit
from repro.store import (
    BrokerStore,
    FileEventLog,
    OutcomeRecorded,
    PublishRecorded,
    recover_broker,
)
from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
from repro.wse import EventSink, WseSubscriber
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.xmlkit import parse_xml

BROKER = "http://gc-broker"


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:gc"><e:n>{n}</e:n></e:V>')


def reference_bytes(log) -> bytes:
    """The file the retired writer — one ``json.dumps`` + flush per record —
    left behind for these records."""
    return "".join(
        json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        for r in log.records()
    ).encode("ascii")


class CountingHandle:
    """Stands in for the log's file handle and counts what reaches it."""

    def __init__(self, handle):
        self.handle = handle
        self.writes = 0
        self.flushes = 0

    def write(self, text):
        self.writes += 1
        return self.handle.write(text)

    def flush(self):
        self.flushes += 1
        self.handle.flush()

    def close(self):
        self.handle.close()

    def take(self):
        """(writes, flushes) since the last take."""
        counts = (self.writes, self.flushes)
        self.writes = self.flushes = 0
        return counts


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


@pytest.fixture
def log(tmp_path):
    log = FileEventLog(tmp_path / "broker.log")
    log._handle = CountingHandle(log.path.open("a", encoding="ascii"))
    yield log
    log.close()


def subscribe_population(network, broker, count):
    """``count`` healthy consumers, alternating families."""
    consumers = []
    for index in range(count):
        if index % 2:
            consumer = EventSink(network, f"http://gc-sink-{index}")
            WseSubscriber(network).subscribe(broker.epr(), notify_to=consumer.epr())
        else:
            consumer = NotificationConsumer(network, f"http://gc-consumer-{index}")
            WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="gc")
        consumers.append(consumer)
    return consumers


class TestWriteCount:
    """Exact counts, independent of population (the CI guard runs these)."""

    @pytest.mark.parametrize("population", [1, 7, 50])
    def test_a_publish_is_two_writes_whatever_it_matches(self, network, log, population):
        broker = WsMessenger(network, BROKER, store=BrokerStore(log))
        consumers = subscribe_population(network, broker, population)
        # one write per Subscribe: an acknowledged subscription is on disk
        assert log._handle.take() == (population, population)
        for n in range(3):
            broker.publish(event(n), topic="gc")
            # the publish record before the first attempt + every outcome after
            assert log._handle.take() == (2, 2)
        assert all(len(consumer.received) == 3 for consumer in consumers)
        assert len(log) == population + 3 * (1 + population)
        stats = broker.store.stats
        assert (stats.appends, stats.commits) == (len(log), population + 3 * 2)
        assert log.path.read_bytes() == reference_bytes(log)

    def test_a_publish_matching_nobody_is_one_write(self, network, log):
        broker = WsMessenger(network, BROKER, store=BrokerStore(log))
        broker.publish(event(), topic="gc")
        assert log._handle.take() == (1, 1)

    def test_each_control_operation_is_one_write(self, network, log):
        broker = WsMessenger(network, BROKER, store=BrokerStore(log))
        sink = EventSink(network, "http://gc-sink")
        consumer = NotificationConsumer(network, "http://gc-consumer")
        wse, wsn = WseSubscriber(network), WsnSubscriber(network)
        wse_handle = wse.subscribe(broker.epr(), notify_to=sink.epr())
        assert log._handle.take() == (1, 1)
        wsn_handle = wsn.subscribe(broker.epr(), consumer.epr(), topic="gc")
        assert log._handle.take() == (1, 1)
        for operation in (
            lambda: wse.renew(wse_handle, "PT2H"),
            lambda: wsn.renew(wsn_handle, "PT2H"),
            lambda: wsn.pause(wsn_handle),
            lambda: wsn.resume(wsn_handle),
            lambda: wse.unsubscribe(wse_handle),
            lambda: wsn.unsubscribe(wsn_handle),
        ):
            operation()
            assert log._handle.take() == (1, 1)
            # acknowledged on the wire means on disk, not in a buffer
            assert log.path.read_bytes() == reference_bytes(log)
        assert [r.kind for r in log.records()] == [
            "subscribe", "subscribe", "renew", "renew",
            "pause", "pause", "remove", "remove",
        ]

    def test_a_retry_tick_commits_per_record(self, network, log):
        policy = DeliveryPolicy(max_attempts=5, base_backoff=1.0, jitter=0.0)
        broker = WsMessenger(network, BROKER, store=BrokerStore(log), delivery=policy)
        consumers = subscribe_population(network, broker, 3)
        log._handle.take()

        def dark(address, payload):
            if address != BROKER:
                raise MessageLost(address)

        network.observers.append(dark)
        broker.publish(event(), topic="gc")
        # no sink answered: the publish record is all there is to write
        assert log._handle.take() == (1, 1)
        network.observers.remove(dark)
        broker.run_deliveries_until_idle()
        assert all(len(consumer.received) == 1 for consumer in consumers)
        # settled outside any publish: each outcome is its own commit
        assert log._handle.take() == (3, 3)
        assert log.path.read_bytes() == reference_bytes(log)


class TestWholeFileOracle:
    def test_file_equals_per_record_json_dumps_of_the_records(self, network, log):
        """Control churn, publishes, a firewalled and a dead sink, a pull
        drain: the bytes on disk are the bytes the per-record writer wrote."""
        network.add_zone("gc-dmz", blocks_inbound=True)
        policy = DeliveryPolicy(max_attempts=2, base_backoff=1.0, jitter=0.0)
        broker = WsMessenger(network, BROKER, store=BrokerStore(log), delivery=policy)
        consumers = subscribe_population(network, broker, 4)
        wse, wsn = WseSubscriber(network), WsnSubscriber(network)
        inside = EventSink(network, "http://gc-inside", zone="gc-dmz")
        WseSubscriber(network, zone="gc-dmz").subscribe(
            broker.epr(), notify_to=inside.epr()
        )
        dead = NotificationConsumer(network, "http://gc-dead")
        wsn.subscribe(broker.epr(), dead.epr(), topic="gc")
        dead.close()
        churned = wse.subscribe(broker.epr(), notify_to=consumers[1].epr())
        paused = wsn.subscribe(broker.epr(), consumers[0].epr(), topic="gc")
        for n in range(6):
            broker.publish(event(n), topic="gc")
            if n == 1:
                wse.renew(churned, "PT3H")
                wsn.pause(paused)
            if n == 3:
                wse.unsubscribe(churned)
                wsn.resume(paused)
            # between operations nothing sits in a buffer
            assert log.path.read_bytes() == reference_bytes(log)
        broker.run_deliveries_until_idle()
        box = broker.message_boxes.get("http://gc-inside")
        assert len(drain_message_box_wse(network, box.epr(), zone="gc-dmz")) == 6
        assert log.path.read_bytes() == reference_bytes(log)
        outcomes = {r.outcome for r in log.records() if isinstance(r, OutcomeRecorded)}
        assert outcomes == {"delivered", "parked", "dead", "drained"}
        kinds = {r.kind for r in log.records()}
        assert kinds == {"subscribe", "renew", "pause", "remove", "publish", "outcome"}
        stats = broker.store.snapshot()
        assert stats["torn_records"] == 0
        assert stats["stats"]["commits"] < stats["stats"]["appends"] == len(log)


class Killed(BaseException):
    """The process dies: nothing below the test may catch this."""


class KillSwitch(NotificationConsumer):
    """A consumer whose Notify handler first runs the test's hook."""

    hook = staticmethod(lambda: None)

    def _handle_notify(self, envelope, headers):
        self.hook()
        return super()._handle_notify(envelope, headers)


class TestKillInsideAPublish:
    """The price of group commit, stated: a process killed inside a publish
    re-attempts on replay the sinks of that one publish whose outcome was
    still buffered.  Nothing is lost; nothing else is duplicated."""

    POPULATION = 5
    KILL_AT = 3  # the consumer (1-based, fan-out order) whose handler kills
    KILL_IN = 2  # ... during this publish (payload number)

    def test_disk_has_the_publish_and_none_of_its_outcomes(self, network, tmp_path):
        instrumentation = Instrumentation.attach(network)
        path = tmp_path / "broker.log"
        on_disk = tmp_path / "as-killed.log"
        broker = WsMessenger(network, BROKER, store=BrokerStore(FileEventLog(path)))
        consumers = [
            KillSwitch(network, f"http://gc-consumer-{index}")
            for index in range(self.POPULATION)
        ]
        for consumer in consumers:
            WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="gc")

        def received(consumer):
            return [item.payload.full_text() for item in consumer.received]

        in_flight = str(self.KILL_IN)

        def kill():
            if sum(in_flight in received(c) for c in consumers) != self.KILL_AT - 1:
                return
            # what a second process opening the file sees at this instant
            seen = FileEventLog(path).records()
            publish = seen[-1]
            assert isinstance(publish, PublishRecorded)
            assert in_flight in publish.payload
            assert not [
                r for r in seen
                if isinstance(r, OutcomeRecorded) and r.message_id == publish.message_id
            ]
            # ... while every earlier publish is settled on disk
            settled = [r for r in seen if isinstance(r, OutcomeRecorded)]
            assert len(settled) == (self.KILL_IN - 1) * self.POPULATION
            shutil.copy(path, on_disk)
            raise Killed()

        broker.publish(event(1), topic="gc")
        consumers[self.KILL_AT - 1].hook = staticmethod(kill)
        with pytest.raises(Killed):
            broker.publish(event(self.KILL_IN), topic="gc")
        assert [in_flight in received(c) for c in consumers] == [
            index < self.KILL_AT - 1 for index in range(self.POPULATION)
        ]
        consumers[self.KILL_AT - 1].hook = staticmethod(lambda: None)
        broker.close()
        broker.store.log.close()

        recovered = recover_broker(network, BROKER, FileEventLog(on_disk))
        recovered.run_deliveries_until_idle()
        recovered.publish(event(3), topic="gc")
        recovered.run_deliveries_until_idle()
        result = audit(instrumentation, scenario="killed-inside-a-publish")
        assert result.passed, result.render()
        for index, consumer in enumerate(consumers):
            got = received(consumer)
            # nothing lost ...
            assert set(got) == {"1", in_flight, "3"}
            # ... and the only duplicates are of the message in flight, at
            # the sinks the dying process had already reached
            assert got.count("1") == got.count("3") == 1
            assert got.count(in_flight) == (2 if index < self.KILL_AT - 1 else 1)
        recovered.store.log.close()


class TestTornTail:
    def test_every_cut_point_of_a_two_publish_log_opens(self, network, tmp_path):
        """Whatever prefix of the file a crash leaves, open never raises and
        yields a prefix of the records; the next append lands on a clean
        line boundary."""
        path = tmp_path / "whole.log"
        broker = WsMessenger(network, BROKER, store=BrokerStore(FileEventLog(path)))
        subscribe_population(network, broker, 2)
        broker.publish(event(1), topic="gc")
        broker.publish(event(2), topic="gc")
        broker.store.log.close()
        data = path.read_bytes()
        records = broker.store.log.records()
        assert [r.kind for r in records] == (
            ["subscribe"] * 2 + ["publish", "outcome", "outcome"] * 2
        )
        extra = OutcomeRecorded(at=9.0, message_id="msg-9", sink="s", outcome="dead")
        cut_path = tmp_path / "cut.log"
        for cut in range(len(data) + 1):
            cut_path.write_bytes(data[:cut])
            log = FileEventLog(cut_path)
            whole_lines = data[:cut].count(b"\n")
            assert log.records() == records[:whole_lines], cut
            clean = cut == 0 or data[cut - 1 : cut] == b"\n"
            assert log.torn_records == (0 if clean else 1), cut
            assert BrokerStore(log).snapshot()["torn_records"] == log.torn_records
            log.append(extra)
            log.close()
            assert FileEventLog(cut_path).records() == records[:whole_lines] + [extra]
