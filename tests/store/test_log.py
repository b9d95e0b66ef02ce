"""The append-only event log: typed records, serialization, file backend."""

import json

import pytest

from repro.store import (
    FileEventLog,
    MemoryEventLog,
    OutcomeRecorded,
    PauseRecorded,
    PublishRecorded,
    PullDrainRecorded,
    RemoveRecorded,
    RenewRecorded,
    SubscribeRecorded,
    record_from_dict,
)
from repro.qos import DiscardPolicy, QosProfile
from repro.store import BrokerStore
from repro.store.core import grant_of
from repro.store.records import encode_line
from repro.subscriptions import Grant
from repro.wsa.epr import EndpointReference
from repro.xmlkit.element import text_element
from repro.xmlkit.names import Namespaces, QName


def reference_line(record):
    """The line format, as the retired per-record ``json.dumps`` wrote it."""
    return json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


#: strings a line-oriented, ASCII-only JSON writer has to get right: the two
#: JSON escapes, every C0 control, the separators ``str.splitlines`` splits
#: on beyond ``\n`` (U+0085, U+2028), and a character outside the BMP
HOSTILE_TEXT = (
    'quote " backslash \\ '
    + "".join(map(chr, range(0x20)))
    + " nel \x85 ls \u2028 ps \u2029 astral \U0001f680 del \x7f"
)
HOSTILE_FLOATS = (1e22, 5e-324, -0.0, 0.1 + 0.2, 1.0, 123456789.125, float("inf"))


def subscribe_record(**fields):
    """A Subscribe record of a plain push subscription, ``fields`` changed."""
    return SubscribeRecorded(**{
        "at": 1.0, "family": "wse", "tag": "v2004_08", "sub_id": "wse-sub-1",
        "expires": 3601.0, "consumer": "http://sink", "consumer_epr": None,
        "end_to": None, "end_to_epr": None, "filter": {}, "qos": None,
        "mode": "Push", "use_raw": False, "topic": None, **fields,
    })


def hostile_records():
    """All seven record types, every field holding something awkward."""
    text = HOSTILE_TEXT
    records = [
        subscribe_record(
            at=0.1 + 0.2, family=text, tag="v1_3", sub_id=text, expires=None,
            consumer=text, consumer_epr=text * 3, end_to=text, end_to_epr=text,
            filter={text: text, "content_namespaces": {text: text, "": ""}, "z": {}},
            qos={text: text, "Priority": "7"}, mode=text, use_raw=True, topic=text,
        ),
        RemoveRecorded(at=3, family="wsn", tag=text, sub_id=text),
        RemoveRecorded(at=3.5, family="wsn", tag="t", sub_id="s", reason=text),
        PauseRecorded(at=1.0, tag=text, sub_id=text, paused=True),
        PauseRecorded(at=1.0, tag="t", sub_id="s", paused=False),
        PullDrainRecorded(at=2.0, tag=text, sub_id=text, count=0),
        PullDrainRecorded(at=2.0, tag="t", sub_id="s", count=10**20),
        PublishRecorded(at=4.0, message_id=text, topic=None, payload=text, lineage=None),
        PublishRecorded(at=4.0, message_id="m", topic=text, payload="", lineage=text),
        OutcomeRecorded(at=5.0, message_id=text, sink=text, outcome="dead", reason=text),
    ]
    for value in HOSTILE_FLOATS:
        records.append(
            RenewRecorded(at=value, family="wse", tag="t", sub_id="s", expires=-value)
        )
        records.append(OutcomeRecorded(at=value, message_id="m", sink="s", outcome="parked"))
    return records


class TestRecords:
    def test_roundtrip_every_record_type(self):
        records = [
            subscribe_record(filter={"content": "/e", "content_namespaces": {"e": "urn:e"}}),
            RenewRecorded(at=2.0, family="wse", tag="v2004_08", sub_id="wse-sub-1", expires=7201.0),
            RemoveRecorded(at=3.0, family="wsn", tag="v1_3", sub_id="wsn-sub-1", reason="unsubscribed"),
            PublishRecorded(at=4.0, message_id="msg-1", topic="t", payload="<e/>", lineage=None),
            OutcomeRecorded(at=5.0, message_id="msg-1", sink="http://sink", outcome="delivered"),
        ]
        for record in records:
            doc = record.to_dict()
            json.dumps(doc)  # every field must be JSON-serializable
            assert record_from_dict(doc) == record

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            record_from_dict({"kind": "nonsense", "at": 0.0})


class TestMemoryEventLog:
    def test_append_returns_offset_and_preserves_order(self):
        log = MemoryEventLog()
        a = PublishRecorded(at=1.0, message_id="msg-1", topic=None, payload="<a/>", lineage=None)
        b = OutcomeRecorded(at=2.0, message_id="msg-1", sink="s", outcome="delivered")
        assert log.append(a) == 0
        assert log.append(b) == 1
        assert len(log) == 2
        assert log.records() == [a, b]

    def test_segment_for_handoff(self):
        log = MemoryEventLog()
        for n in range(4):
            log.append(OutcomeRecorded(at=float(n), message_id=f"msg-{n}", sink="s", outcome="delivered"))
        segment = log.segment(2)
        assert [entry["message_id"] for entry in segment] == ["msg-2", "msg-3"]
        # a fresh log extended with a full segment replays identically
        other = MemoryEventLog()
        other.extend(log.segment(0))
        assert other.records() == log.records()


class TestFileEventLog:
    def test_reload_from_disk(self, tmp_path):
        path = tmp_path / "broker.log"
        log = FileEventLog(str(path))
        log.append(
            subscribe_record(
                family="wsn", tag="v1_3", sub_id="wsn-sub-1", expires=None,
                filter={"topic": "t"}, topic="t",
            )
        )
        log.append(PublishRecorded(at=2.0, message_id="msg-1", topic="t", payload="<e/>", lineage=None))
        log.close()
        reloaded = FileEventLog(str(path))
        assert reloaded.records() == log.records()
        reloaded.close()

    def test_lines_are_one_json_document_each(self, tmp_path):
        path = tmp_path / "broker.log"
        log = FileEventLog(str(path))
        log.append(OutcomeRecorded(at=1.0, message_id="msg-1", sink="s", outcome="parked"))
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "outcome"

    def test_append_after_reload_extends(self, tmp_path):
        path = tmp_path / "broker.log"
        log = FileEventLog(str(path))
        log.append(PublishRecorded(at=1.0, message_id="msg-1", topic=None, payload="<a/>", lineage=None))
        log.close()
        resumed = FileEventLog(str(path))
        resumed.append(PublishRecorded(at=2.0, message_id="msg-2", topic=None, payload="<b/>", lineage=None))
        resumed.close()
        final = FileEventLog(str(path))
        assert [r.message_id for r in final.records()] == ["msg-1", "msg-2"]
        final.close()


class TestLineEncoder:
    """The hand-framed line against the ``json.dumps`` it replaced."""

    def test_covers_every_record_type(self):
        from repro.store.records import _RECORD_TYPES

        assert {type(r) for r in hostile_records()} == set(_RECORD_TYPES.values())
        assert len(_RECORD_TYPES) == 7

    @pytest.mark.parametrize("record", hostile_records(), ids=lambda r: r.kind)
    def test_byte_identical_to_json_dumps(self, record):
        line = encode_line(record)
        assert line == reference_line(record)
        assert line.isascii() and line.endswith("\n")
        assert len(line.splitlines()) == 1  # the reader splits on lines
        assert record_from_dict(json.loads(line)) == record

    def test_a_granted_subscribe_is_one_json_dumps_line_and_comes_back_the_grant(self):
        """Filter namespaces, a consumer EPR with a reference parameter and a
        QoS profile: the nested fields too are written as ``json.dumps``
        writes them, and the line reads back as the grant that was made."""
        consumer = EndpointReference("http://sink/c").with_parameter(
            text_element(QName("urn:app", "Tenant"), 'a & <b> "c" \u00e9 \u2603 \U0001f680')
        )
        consumer.with_property(text_element(QName("urn:app", "Shard"), "7"))
        namespaces = {"e": "urn:e", "q": 'urn:"q"'}
        grant = Grant(
            consumer,
            {"topic": "rc//*", "topic_dialect": Namespaces.DIALECT_TOPIC_FULL,
             "content": "/e:V[e:n > 0]", "content_namespaces": namespaces},
            expires=5400.25,
            qos=QosProfile({"Priority": 7, "DiscardPolicy": DiscardPolicy.LIFO_ORDER}),
            end_to=EndpointReference("http://sink/end"),
            use_raw=True,
            topic_expression="rc//*",
            sub_id="wsn-sub-9",
        )
        store = BrokerStore(MemoryEventLog())
        store.record_subscribe("wsn", "v1_3", grant)
        [record] = store.log.records()
        line = encode_line(record)
        assert line == reference_line(record)
        assert record.consumer_epr is not None and record.end_to_epr is None
        assert record.qos == {"DiscardPolicy": "LifoOrder", "Priority": "7"}
        assert grant_of(record_from_dict(json.loads(line))) == grant

    def test_non_finite_floats_spelled_as_json_dumps_spells_them(self):
        for value in (float("inf"), float("-inf"), float("nan")):
            record = RenewRecorded(at=value, family="f", tag="t", sub_id="s", expires=value)
            assert encode_line(record) == reference_line(record)

    def test_close_reopen_round_trip(self, tmp_path):
        path = tmp_path / "hostile.log"
        records = hostile_records()
        log = FileEventLog(path)
        for record in records:
            log.append(record)
        log.close()
        assert path.read_bytes() == "".join(map(reference_line, records)).encode("ascii")
        reopened = FileEventLog(path)
        assert reopened.records() == records
        assert reopened.torn_records == 0
        reopened.close()


class TestCommit:
    def test_append_buffers_until_commit(self, tmp_path):
        path = tmp_path / "broker.log"
        log = FileEventLog(path)
        records = [
            OutcomeRecorded(at=float(n), message_id="msg-1", sink=f"s{n}", outcome="delivered")
            for n in range(3)
        ]
        for record in records:
            log.append(record)
        assert len(log) == 3 and log.records() == records  # the log has them
        assert not path.exists()  # the disk does not, yet
        assert log.commit() == 3
        assert path.read_text() == "".join(map(reference_line, records))
        assert log.commit() == 0  # nothing pending: nothing written
        log.close()

    def test_memory_log_counts_commits_the_same_way(self):
        log = MemoryEventLog()
        log.append(OutcomeRecorded(at=1.0, message_id="m", sink="s", outcome="parked"))
        log.append(OutcomeRecorded(at=2.0, message_id="m", sink="s", outcome="drained"))
        assert log.commit() == 2
        assert log.commit() == 0

    def test_extend_and_close_commit(self, tmp_path):
        source = MemoryEventLog()
        source.append(OutcomeRecorded(at=1.0, message_id="m", sink="s", outcome="parked"))
        log = FileEventLog(tmp_path / "handoff.log")
        log.extend(source.segment())
        assert len(log.path.read_text().splitlines()) == 1
        log.append(OutcomeRecorded(at=2.0, message_id="m", sink="s", outcome="drained"))
        log.close()
        assert len(log.path.read_text().splitlines()) == 2


class TestTornTail:
    """A batched write cut short by a crash: open drops the partial line."""

    def test_unparsable_line_before_the_last_names_path_and_line(self, tmp_path):
        path = tmp_path / "corrupt.log"
        good = reference_line(OutcomeRecorded(at=1.0, message_id="m", sink="s", outcome="parked"))
        path.write_text(good + "{not json}\n" + good)
        with pytest.raises(ValueError, match=r"corrupt\.log:2: unparsable log record"):
            FileEventLog(path)
        # ... also when what follows it is itself a torn tail
        path.write_text(good + "{not json}\n" + good[:10])
        with pytest.raises(ValueError, match=r"corrupt\.log:2:"):
            FileEventLog(path)
        # ... and a line that is JSON but no record is as unparsable
        path.write_text('{"kind":"nonsense"}\n' + good)
        with pytest.raises(ValueError, match=r"corrupt\.log:1:.*nonsense"):
            FileEventLog(path)
        assert path.read_text() == '{"kind":"nonsense"}\n' + good  # left as found

    def test_an_old_format_subscribe_is_refused_even_as_the_last_line(self, tmp_path):
        """A Subscribe logged as its request (``action`` + ``wire``) is no
        record of this format: refused where it stands, never dropped as a
        torn tail — that would lose the newest subscription silently."""
        path = tmp_path / "old.log"
        good = reference_line(OutcomeRecorded(at=1.0, message_id="m", sink="s", outcome="parked"))
        old = json.dumps(
            {"kind": "subscribe", "at": 2.0, "family": "wse", "tag": "v2004_08",
             "sub_id": "wse-sub-1", "action": "urn:Subscribe", "wire": "<Envelope/>",
             "expires": None},
            sort_keys=True, separators=(",", ":"),
        ) + "\n"
        for text, number in ((good + old, 2), (old + good, 1)):
            path.write_text(text)
            with pytest.raises(ValueError, match=rf"old\.log:{number}: unparsable log record"):
                FileEventLog(path)
            assert path.read_text() == text  # left as found
        # a record with one of its fields missing is as foreign
        path.write_text(good + reference_line(subscribe_record())[:-1].replace(',"topic":null', "") + "\n")
        with pytest.raises(ValueError, match=r"old\.log:2:.*topic"):
            FileEventLog(path)

    def test_garbled_terminated_last_line_is_dropped_too(self, tmp_path):
        path = tmp_path / "garbled.log"
        good = reference_line(OutcomeRecorded(at=1.0, message_id="m", sink="s", outcome="parked"))
        path.write_text(good + good[:20] + "\n")
        log = FileEventLog(path)
        assert len(log) == 1 and log.torn_records == 1
        assert path.read_text() == good
