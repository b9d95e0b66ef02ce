"""Tests for the CORBA baseline: CDR, ORB, Event Service, Notification Service."""

import pytest

from repro.baselines.corba import (
    CdrDecoder,
    CdrEncoder,
    CdrError,
    CorbaError,
    EventChannel,
    NotificationChannel,
    ObjectReference,
    Orb,
    StructuredEvent,
)
from repro.baselines.corba.notification_service import FilterObject
from repro.qos.properties import DiscardPolicy, OrderPolicy, QosProfile


def _roundtrip(value):
    return CdrDecoder(CdrEncoder().put_any(value).data()).get_any()


class TestCdr:
    def test_primitive_roundtrip(self):
        encoder = CdrEncoder()
        encoder.put_boolean(True).put_ulong(7).put_double(2.5).put_string("hi")
        decoder = CdrDecoder(encoder.data())
        assert decoder.get_boolean() is True
        assert decoder.get_ulong() == 7
        assert decoder.get_double() == 2.5
        assert decoder.get_string() == "hi"

    def test_alignment(self):
        encoder = CdrEncoder()
        encoder.put_octet(1).put_long(42)  # long must align to 4
        data = encoder.data()
        assert len(data) == 8  # 1 octet + 3 pad + 4
        decoder = CdrDecoder(data)
        assert decoder.get_octet() == 1
        assert decoder.get_long() == 42

    @pytest.mark.parametrize(
        "value",
        [None, True, 42, -1, 3.5, "text", ["a", 1, None], {"k": "v", "n": [1, 2]}, {}],
    )
    def test_any_roundtrip(self, value):
        assert _roundtrip(value) == value

    def test_unicode_string(self):
        assert _roundtrip("grüße-グリッド") == "grüße-グリッド"

    def test_truncated_buffer(self):
        with pytest.raises(CdrError):
            CdrDecoder(b"\x04").get_long()

    def test_long_out_of_range(self):
        with pytest.raises(CdrError):
            CdrEncoder().put_long(2**40)

    def test_unmarshallable_type(self):
        with pytest.raises(CdrError):
            CdrEncoder().put_any(object())

    def test_non_string_struct_key(self):
        with pytest.raises(CdrError):
            CdrEncoder().put_any({1: "x"})


class TestOrb:
    def test_invoke_roundtrip(self):
        orb = Orb()

        def servant(operation, args):
            assert operation == "add"
            return args[0] + args[1]

        ref = orb.register(servant)
        assert orb.invoke(ref, "add", [2, 3]) == 5

    def test_unknown_object(self):
        orb = Orb()
        with pytest.raises(CorbaError, match="OBJECT_NOT_EXIST"):
            orb.invoke(ObjectReference(orb.orb_id, "nobody"), "ping", [])

    def test_foreign_reference_rejected(self):
        """CORBA interop is intranet-scale: references don't cross ORBs."""
        orb_a, orb_b = Orb("acme"), Orb("globex")
        ref = orb_b.register(lambda op, args: "hi")
        with pytest.raises(CorbaError) as excinfo:
            orb_a.invoke(ref, "ping", [])
        assert "intranet" in str(excinfo.value)

    def test_servant_exception_propagates(self):
        orb = Orb()

        def failing(operation, args):
            raise CorbaError("BAD_OPERATION")

        ref = orb.register(failing)
        with pytest.raises(CorbaError):
            orb.invoke(ref, "x", [])

    def test_frames_and_bytes_accounted(self):
        orb = Orb()
        ref = orb.register(lambda op, args: None)
        orb.invoke(ref, "ping", [])
        assert orb.frames_routed == 1
        assert orb.bytes_routed > 24  # two GIOP frames


class TestEventService:
    def _consumer(self, orb):
        received = []
        ref = orb.register(lambda op, args: received.append(args[0]))
        return received, ref

    def test_push_fanout_no_filtering(self):
        """Every consumer receives all events on the channel."""
        orb = Orb()
        channel = EventChannel(orb)
        received_a, ref_a = self._consumer(orb)
        received_b, ref_b = self._consumer(orb)
        channel.for_consumers().obtain_push_supplier().connect_push_consumer(ref_a)
        channel.for_consumers().obtain_push_supplier().connect_push_consumer(ref_b)
        supplier = channel.for_suppliers().obtain_push_consumer()
        supplier.push({"kind": "status", "value": 1})
        supplier.push("uninteresting")  # no way to filter it out
        assert len(received_a) == 2 and len(received_b) == 2

    def test_pull_model(self):
        orb = Orb()
        channel = EventChannel(orb)
        pull_supplier = channel.for_consumers().obtain_pull_supplier()
        channel.for_suppliers().obtain_push_consumer().push("e1")
        event, ok = pull_supplier.try_pull()
        assert ok and event == "e1"
        _, ok = pull_supplier.try_pull()
        assert not ok

    def test_channel_pulls_from_supplier(self):
        orb = Orb()
        channel = EventChannel(orb)
        queue = ["a", "b"]

        def supplier_servant(operation, args):
            assert operation == "try_pull"
            if queue:
                return [queue.pop(0), True]
            return [None, False]

        supplier_ref = orb.register(supplier_servant)
        proxy = channel.for_suppliers().obtain_pull_consumer()
        proxy.connect_pull_supplier(supplier_ref)
        received, consumer_ref = self._consumer(orb)
        channel.for_consumers().obtain_push_supplier().connect_push_consumer(consumer_ref)
        assert proxy.poll() == 2
        assert received == ["a", "b"]

    def test_dead_consumer_disconnected(self):
        orb = Orb()
        channel = EventChannel(orb)
        calls = []

        def dying(operation, args):
            calls.append(operation)
            raise CorbaError("COMM_FAILURE")

        channel.for_consumers().obtain_push_supplier().connect_push_consumer(orb.register(dying))
        supplier = channel.for_suppliers().obtain_push_consumer()
        supplier.push("x")
        supplier.push("y")
        assert calls == ["push"]  # dropped off at the first failure

    def test_double_connect_rejected(self):
        orb = Orb()
        channel = EventChannel(orb)
        proxy = channel.for_consumers().obtain_push_supplier()
        ref = orb.register(lambda op, args: None)
        proxy.connect_push_consumer(ref)
        with pytest.raises(CorbaError):
            proxy.connect_push_consumer(ref)


def _status_event(progress, severity="info", priority=0):
    return StructuredEvent(
        domain_name="grid",
        type_name="JobStatus",
        event_name="update",
        variable_header={"Priority": priority},
        filterable_data={"progress": progress, "severity": severity},
        payload={"detail": f"at {progress}%"},
    )


class TestNotificationService:
    def test_filtering_with_tcl(self):
        orb = Orb()
        channel = NotificationChannel(orb)
        received = []
        consumer_ref = orb.register(lambda op, args: received.append(args[0]))
        admin = channel.new_for_consumers()
        proxy = admin.obtain_structured_push_supplier()
        filter_object = FilterObject()
        filter_object.add_constraint("$progress > 50")
        proxy.add_filter(filter_object)
        proxy.connect_structured_push_consumer(consumer_ref)
        supplier = channel.new_for_suppliers().obtain_structured_push_consumer()
        supplier.push_structured_event(_status_event(30))
        supplier.push_structured_event(_status_event(80))
        assert len(received) == 1
        assert received[0]["filterable_data"]["progress"] == 80

    def test_structured_event_wire_roundtrip(self):
        event = _status_event(50)
        again = StructuredEvent.from_wire(_roundtrip(event.to_wire()))
        assert again == event

    def test_admin_filters_apply_to_all_proxies(self):
        orb = Orb()
        channel = NotificationChannel(orb)
        admin = channel.new_for_consumers()
        filter_object = FilterObject()
        filter_object.add_constraint("$severity == 'fatal'")
        admin.add_filter(filter_object)
        pull = admin.obtain_structured_pull_supplier()
        supplier = channel.new_for_suppliers().obtain_structured_push_consumer()
        supplier.push_structured_event(_status_event(10, "info"))
        supplier.push_structured_event(_status_event(20, "fatal"))
        event, _ = pull.try_pull_structured_event()
        assert event.filterable_data["severity"] == "fatal"
        assert pull.try_pull_structured_event() == (None, False)

    def test_filter_disjunction(self):
        filter_object = FilterObject()
        filter_object.add_constraint("$severity == 'fatal'")
        filter_object.add_constraint("$progress >= 99")
        assert filter_object.match_structured(_status_event(99, "info"))
        assert filter_object.match_structured(_status_event(1, "fatal"))
        assert not filter_object.match_structured(_status_event(1, "info"))

    def test_invalid_constraint(self):
        with pytest.raises(CorbaError):
            FilterObject().add_constraint("((")

    @pytest.mark.parametrize("constraint", ["$. == 1", "exist $.", "$.. == 'x'"])
    def test_an_empty_component_path_is_refused_and_the_push_stays_clean(self, constraint):
        # it used to be accepted, and every push on the channel then raised
        # FilterError out of the supplier's push_structured_event
        orb = Orb()
        channel = NotificationChannel(orb)
        received = []
        proxy = channel.new_for_consumers().obtain_structured_push_supplier()
        filter_object = FilterObject()
        with pytest.raises(CorbaError, match="InvalidConstraint"):
            filter_object.add_constraint(constraint)
        filter_object.add_constraint("$progress > 50")
        proxy.add_filter(filter_object)
        proxy.connect_structured_push_consumer(orb.register(lambda op, args: received.append(args[0])))
        supplier = channel.new_for_suppliers().obtain_structured_push_consumer()
        supplier.push_structured_event(_status_event(30))
        supplier.push_structured_event(_status_event(80))
        assert [event["filterable_data"]["progress"] for event in received] == [80]

    def test_priority_order_pull(self):
        orb = Orb()
        channel = NotificationChannel(orb)
        pull = channel.new_for_consumers().obtain_structured_pull_supplier(
            QosProfile({"OrderPolicy": OrderPolicy.PRIORITY_ORDER})
        )
        supplier = channel.new_for_suppliers().obtain_structured_push_consumer()
        supplier.push_structured_event(_status_event(1, priority=1))
        supplier.push_structured_event(_status_event(2, priority=9))
        event, _ = pull.try_pull_structured_event()
        assert event.priority == 9

    def test_bounded_queue_discard_policy(self):
        orb = Orb()
        channel = NotificationChannel(orb)
        pull = channel.new_for_consumers().obtain_structured_pull_supplier(
            QosProfile(
                {"MaxEventsPerConsumer": 2, "DiscardPolicy": DiscardPolicy.FIFO_ORDER}
            )
        )
        supplier = channel.new_for_suppliers().obtain_structured_push_consumer()
        for i in range(4):
            supplier.push_structured_event(_status_event(i))
        assert pull.discarded == 2
        event, _ = pull.try_pull_structured_event()
        assert event.filterable_data["progress"] == 2  # oldest two discarded

    def test_batched_push(self):
        orb = Orb()
        channel = NotificationChannel(orb)
        batches = []
        consumer_ref = orb.register(lambda op, args: batches.append((op, args[0])))
        proxy = channel.new_for_consumers().obtain_structured_push_supplier(
            QosProfile({"MaximumBatchSize": 3})
        )
        proxy.connect_structured_push_consumer(consumer_ref)
        supplier = channel.new_for_suppliers().obtain_structured_push_consumer()
        for i in range(3):
            supplier.push_structured_event(_status_event(i))
        assert len(batches) == 1
        operation, batch = batches[0]
        assert operation == "push_structured_events"
        assert len(batch) == 3

    def test_qos_validation(self):
        from repro.qos.properties import QosError

        channel = NotificationChannel(Orb())
        with pytest.raises(QosError):
            channel.validate_qos({"Priority": "very high"})
        with pytest.raises(QosError):
            channel.validate_qos({"NotAProperty": 1})
        channel.validate_qos({"Priority": 5})  # fine
