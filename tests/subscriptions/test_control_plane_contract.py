"""The control-plane contract: Table 2 as one test table.

Every row is an operation (Subscribe, Renew, GetStatus, Pause, Resume,
Unsubscribe, Pull, lease expiry, pinned-id replay, forget), every column a
dialect — WS-Eventing 01/2004 and 08/2004, WS-BaseNotification 1.0, 1.2 and
1.3, and the converged prototype — and every cell is checked over the wire
against the one :class:`repro.subscriptions.SubscriptionManager` all of them
run on: the granted expiry is exact, the listener hears the same event
sequence, the fault carries the family's subcode for that (operation, error
kind), an operation a version does not define faults as it always did,
nothing is delivered after removal, and a parked queue has one fate on
resume and one on pause -> expire.  Which operations a column *has* is not
declared here: :meth:`Dialect.defines` reads it off the column's
``OperationTable``, and every (dialect, verb) cell holds the same rule — a
row means the verb works over the wire, no row means the client answers
:class:`~repro.subscriptions.OperationNotAvailable` and sends nothing.
"""

from dataclasses import replace

import pytest

from repro.convergence import MODE_PULL, ConvergedConsumer, ConvergedSource, ConvergedSubscriber
from repro.messenger import WsMessenger
from repro.soap import FaultCode, SoapFault
from repro.soap.codec import parse_envelope
from repro.subscriptions import Grant, OperationNotAvailable
from repro.transport import SimulatedNetwork, VirtualClock
from repro.transport.http import parse_request
from repro.util.xstime import format_datetime
from repro.wsa.headers import extract_headers, reset_message_counter
from repro.wse import DeliveryMode, EventSink, EventSource, WseSubscriber, WseVersion
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber, WsnVersion
from repro.wsn.producer import PROP_STATUS, PROP_TOPIC_SET
from repro.xmlkit import parse_xml

TOPIC = "contract"


def event(n: int = 0):
    return parse_xml(f"<evt>{n}</evt>")


class Dialect:
    """One column: a source, a client and a sink speaking one dialect."""

    #: what this dialect calls its faults, per (operation, error kind)
    invalid_subscribe: str
    invalid_renew: str
    unknown: str
    #: removal reason an orderly unsubscribe reports, and whether the
    #: dialect announces an expired lease to the consumer
    unsubscribe_reason = "unsubscribed"
    announces_expiry = False

    def __init__(self) -> None:
        self.network = SimulatedNetwork(VirtualClock())
        self.build()
        self.events: list[tuple] = []
        #: the grant each ``created`` carried, as made
        self.grants: list[Grant] = []
        self.source.subscriptions.listeners.append(self._heard)

    def _heard(self, name: str, subscription, detail: dict) -> None:
        if name == "created":
            self.grants.append(detail["grant"])
        self.events.append(
            (name, subscription.key, *(value for key, value in detail.items() if key != "grant"))
        )

    @property
    def manager(self):
        return self.source.subscriptions

    def defines(self, verb: str) -> bool:
        """Whether this column's operation table has the row ``verb`` names."""
        operation = self.client.verbs[verb].operation
        return any(row.name == operation and not row.one_way for row in self.client.table.rows)

    def not_available(self, call, *args) -> OperationNotAvailable:
        """``call`` is refused by the client: typed, and nothing was sent."""
        sent = self.network.stats.requests
        with pytest.raises(OperationNotAvailable) as excinfo:
            call(*args)
        assert self.network.stats.requests == sent
        return excinfo.value

    def clock_text(self, offset: float) -> str:
        return format_datetime(self.network.clock.now() + offset)

    # the bindings a column supplies -------------------------------------------------
    def build(self) -> None: ...
    def subscribe(self, expires=None, pull=False): ...
    def publish(self, n=0): ...
    def end_notices(self) -> list: ...

    def delivered(self) -> int:
        return len(self.sink.received)

    # the lease verbs: the native ones, or WSRF's where the version has no other
    def renew(self, handle, expires):
        return self.client.renew(handle, expires)

    def unsubscribe(self, handle) -> None:
        self.client.unsubscribe(handle)

    def pull(self, handle, maximum=0) -> int:
        return len(self.client.pull(handle, max_messages=maximum))


class Wse(Dialect):
    version = WseVersion.V2004_08
    invalid_subscribe = invalid_renew = "InvalidExpirationTime"
    unknown = "InvalidMessage"

    def build(self) -> None:
        self.source = EventSource(self.network, "http://c-source", version=self.version)
        self.client = WseSubscriber(self.network, version=self.version)
        self.sink = EventSink(self.network, "http://c-sink", version=self.version)

    def subscribe(self, expires=None, pull=False):
        return self.client.subscribe(
            self.source.epr(),
            notify_to=None if pull else self.sink.epr(),
            end_to=self.sink.epr(),
            expires=expires,
            mode=DeliveryMode.PULL if pull else DeliveryMode.PUSH,
        )

    def publish(self, n=0):
        return self.source.publish(event(n))

    def end_notices(self) -> list:
        return self.sink.subscription_ends


class Wse01(Wse):
    version = WseVersion.V2004_01


class Wsn(Dialect):
    version = WsnVersion.V1_3
    invalid_subscribe = "UnacceptableInitialTerminationTimeFault"
    invalid_renew = "UnacceptableTerminationTimeFault"
    unknown = "ResourceUnknownFault"
    announces_expiry = True  # a WSRF TerminationNotification

    def build(self) -> None:
        # the broker's service: the table a WSN client resolves against (in
        # 1.3 it has WS-BrokeredNotification's rows, a plain producer not)
        broker = WsMessenger(self.network, "http://c-broker", wse_versions=[], wsn_versions=[self.version])
        self.source = broker.wsn_producers[self.version]
        self.client = WsnSubscriber(self.network, version=self.version)
        self.sink = NotificationConsumer(self.network, "http://c-consumer", version=self.version)

    def subscribe(self, expires=None, pull=False):
        return self.client.subscribe(
            self.source.epr(), self.sink.epr(), topic=TOPIC, initial_termination=expires
        )

    def publish(self, n=0):
        return self.source.publish(event(n), topic=TOPIC)

    def end_notices(self) -> list:
        return self.sink.termination_notices


class WsnViaWsrf(Wsn):
    """<= 1.2: no native Renew / Unsubscribe, lifetime is WSRF's."""

    invalid_renew = "UnableToSetTerminationTimeFault"
    unsubscribe_reason = "destroyed"

    def renew(self, handle, expires):
        return self.client.set_termination_time(handle, expires)

    def unsubscribe(self, handle) -> None:
        self.client.destroy(handle)


class Wsn10(WsnViaWsrf):
    version = WsnVersion.V1_0


class Wsn12(WsnViaWsrf):
    version = WsnVersion.V1_2


class Converged(Dialect):
    invalid_subscribe = invalid_renew = "InvalidExpirationTime"
    unknown = "UnknownSubscription"
    announces_expiry = True  # SubscriptionEnd / SubscriptionExpired

    def build(self) -> None:
        self.source = ConvergedSource(self.network, "http://c-converged")
        self.client = ConvergedSubscriber(self.network)
        self.sink = ConvergedConsumer(self.network, "http://c-wsen-consumer")

    def subscribe(self, expires=None, pull=False):
        return self.client.subscribe(
            self.source.epr(),
            consumer=None if pull else self.sink.epr(),
            end_to=self.sink.epr(),
            expires=expires,
            **({"mode": MODE_PULL} if pull else {}),
        )

    def publish(self, n=0):
        return self.source.publish(event(n))

    def end_notices(self) -> list:
        return self.sink.ends


DIALECTS = [Wse01, Wse, Wsn10, Wsn12, Wsn, Converged]


@pytest.fixture(params=DIALECTS, ids=lambda cls: cls.__name__)
def dialect(request):
    return request.param()


def fault_of(call, *args) -> SoapFault:
    with pytest.raises(SoapFault) as excinfo:
        call(*args)
    return excinfo.value


def subcode_of(call, *args) -> str:
    fault = fault_of(call, *args)
    return fault.subcode.local if fault.subcode is not None else ""


class TestSubscribe:
    def test_an_absolute_expiry_is_granted_exactly(self, dialect):
        wanted = dialect.clock_text(500.0)
        handle = dialect.subscribe(expires=wanted)
        assert handle.expires_text == wanted
        record = dialect.manager.lookup(handle.sub_id)
        assert format_datetime(record.termination_time) == wanted
        assert dialect.events == [("created", handle.sub_id)]

    def test_the_default_lifetime_is_anchored_at_the_grant(self, dialect):
        before = dialect.network.clock.now()
        handle = dialect.subscribe()
        record = dialect.manager.lookup(handle.sub_id)
        assert before <= record.termination_time - 3600.0 <= dialect.network.clock.now()
        assert handle.expires_text == format_datetime(record.termination_time)

    @pytest.mark.parametrize("offset", [-5.0, 0.0])
    def test_an_expiry_not_in_the_future_faults_and_leaves_nothing(self, dialect, offset):
        assert subcode_of(dialect.subscribe, dialect.clock_text(offset)) == dialect.invalid_subscribe
        assert len(dialect.manager) == 0 and not dialect.manager.records
        assert dialect.events == []
        assert dialect.publish() == 0


class TestRenew:
    def test_renew_moves_the_lease_and_reports_it(self, dialect):
        handle = dialect.subscribe(expires=dialect.clock_text(10.0))
        wanted = dialect.clock_text(900.0)
        assert dialect.renew(handle, wanted) == wanted
        assert format_datetime(dialect.manager.lookup(handle.sub_id).termination_time) == wanted
        assert dialect.events[-1] == ("renewed", handle.sub_id)
        dialect.network.clock.advance(100.0)  # past the original lease
        assert dialect.publish() == 1 and dialect.delivered() == 1

    def test_an_invalid_renewal_has_the_operations_own_fault_name(self, dialect):
        handle = dialect.subscribe()
        lease = dialect.manager.lookup(handle.sub_id).termination_time
        for text in (dialect.clock_text(-30.0), "not a time"):
            assert subcode_of(dialect.renew, handle, text) == dialect.invalid_renew
        assert dialect.manager.lookup(handle.sub_id).termination_time == lease
        assert [name for name, *_ in dialect.events] == ["created"]

    def test_native_renew_and_unsubscribe_are_13_operations(self, dialect):
        if dialect.defines("renew") and dialect.defines("unsubscribe"):
            pytest.skip("defined in this version")
        assert isinstance(dialect, WsnViaWsrf)  # the only tables without the native rows
        handle = dialect.subscribe()
        assert "not defined" in str(dialect.not_available(dialect.client.renew, handle, None))
        assert "not defined" in str(dialect.not_available(dialect.client.unsubscribe, handle))
        assert dialect.manager.lookup(handle.sub_id)  # untouched


class TestGetStatus:
    def test_status_reports_the_record(self, dialect):
        wanted = dialect.clock_text(300.0)
        handle = dialect.subscribe(expires=wanted)
        if not dialect.defines("get_status"):
            assert isinstance(dialect, Wse01)  # GetStatus arrived in 08/2004
            fault = dialect.not_available(dialect.client.get_status, handle)
            assert str(fault).endswith("GetStatus is not defined in WsEventingV2004_01")
            return
        # WS-Eventing answers with the lease, the others with the pause state
        assert dialect.client.get_status(handle) in (wanted, "Active")
        if dialect.defines("pause"):
            dialect.client.pause(handle)
            assert dialect.client.get_status(handle) == "Paused"


class TestPauseResume:
    def test_pause_parks_and_resume_delivers_once(self, dialect):
        if not dialect.defines("pause"):
            assert isinstance(dialect, Wse)  # no such operation in WS-Eventing
            handle = dialect.subscribe()
            dialect.not_available(dialect.client.pause, handle)
            dialect.not_available(dialect.client.resume, handle)
            assert dialect.publish(1) == 1 and dialect.delivered() == 1  # never paused
            return
        handle = dialect.subscribe()
        dialect.client.pause(handle)
        assert dialect.publish(1) == 1 and dialect.publish(2) == 1
        record = dialect.manager.lookup(handle.sub_id)
        assert dialect.delivered() == 0 and len(record.queue) == 2
        dialect.client.resume(handle)
        assert dialect.delivered() == 2 and record.queue == []
        assert [name for name, *_ in dialect.events] == ["created", "paused", "resumed"]
        dialect.publish(3)
        assert dialect.delivered() == 3

    def test_a_parked_queue_dies_with_its_lease(self, dialect):
        if not dialect.defines("pause"):
            pytest.skip("no Pause in WS-Eventing")
        handle = dialect.subscribe(expires=dialect.clock_text(50.0))
        dialect.client.pause(handle)
        dialect.publish(1)
        record = dialect.manager.lookup(handle.sub_id)
        dialect.network.clock.advance(60.0)
        assert dialect.publish(2) == 0  # the sweep expires it, parked copy and all
        assert record.destroyed and dialect.delivered() == 0
        assert dialect.events[-1] == ("removed", handle.sub_id, "expired")
        assert subcode_of(dialect.client.resume, handle) == dialect.unknown
        assert dialect.delivered() == 0  # the backlog is not resurrected


class TestUnsubscribe:
    def test_nothing_is_delivered_after_removal(self, dialect):
        handle = dialect.subscribe()
        keeper = dialect.subscribe()
        dialect.unsubscribe(handle)
        assert dialect.events[-1] == ("removed", handle.sub_id, dialect.unsubscribe_reason)
        assert dialect.publish() == 1  # the keeper only
        assert [record.key for record in dialect.manager.live_resources()] == [keeper.sub_id]
        assert subcode_of(dialect.unsubscribe, handle) == dialect.unknown
        assert subcode_of(dialect.renew, handle, dialect.clock_text(100.0)) == dialect.unknown


class TestPull:
    def test_pull_honours_the_maximum(self, dialect):
        if not dialect.defines("pull"):
            pytest.skip("covered by test_pull_is_not_in_every_version")
        handle = dialect.subscribe(pull=True)
        for n in range(5):
            assert dialect.publish(n) == 1
        assert dialect.pull(handle, 2) == 2
        assert dialect.events[-1] == ("pulled", handle.sub_id, 2)
        assert subcode_of(dialect.pull, handle, "2x") in ("InvalidMessage", "")  # malformed: Sender
        assert dialect.pull(handle) == 3 and dialect.pull(handle) == 0
        assert [e[0] for e in dialect.events].count("pulled") == 2  # an empty drain is no event
        push = dialect.subscribe()
        assert "not in pull mode" in str(fault_of(dialect.pull, push))

    def test_pull_is_not_in_every_version(self, dialect):
        if dialect.defines("pull"):
            pytest.skip("defined in this version")
        if isinstance(dialect, Wse01):
            fault = fault_of(dialect.subscribe, None, True)
            assert fault.subcode.local == "DeliveryModeRequestedUnavailable"
        else:
            assert isinstance(dialect, Wsn)  # WSN pulls from a pull point
        dialect.not_available(dialect.pull, dialect.subscribe())


class TestLeaseExpiry:
    def test_an_expired_lease_is_swept_once_and_announced_per_family(self, dialect):
        handle = dialect.subscribe(expires=dialect.clock_text(10.0))
        assert dialect.publish(1) == 1
        dialect.network.clock.advance(20.0)
        assert dialect.publish(2) == 0 and dialect.publish(3) == 0
        assert dialect.delivered() == 1
        removed = [e for e in dialect.events if e[0] == "removed"]
        assert removed == [("removed", handle.sub_id, "expired")]
        assert len(dialect.end_notices()) == (1 if dialect.announces_expiry else 0)
        assert subcode_of(dialect.renew, handle, dialect.clock_text(100.0)) == dialect.unknown

    def test_a_lookup_expires_an_overdue_lease_before_any_publish(self, dialect):
        handle = dialect.subscribe(expires=dialect.clock_text(10.0))
        dialect.network.clock.advance(20.0)
        assert subcode_of(dialect.renew, handle, dialect.clock_text(100.0)) == dialect.unknown
        assert dialect.events[-1] == ("removed", handle.sub_id, "expired")
        assert not dialect.manager.records


class TestReplayHooks:
    def test_a_forced_id_is_minted_once_and_advances_the_serial(self, dialect):
        """``created`` carries the grant as made — the id minted, the expiry
        granted.  Handed back with both pinned (a restart), it keeps them,
        a lapsed expiry included, and the serial moves past the id."""
        handle = dialect.subscribe(expires=dialect.clock_text(500.0))
        [grant] = dialect.grants
        assert grant.sub_id == handle.sub_id
        assert format_datetime(grant.expires) == handle.expires_text
        prefix = handle.sub_id.rsplit("-", 1)[0]
        pinned = replace(grant, sub_id=f"{prefix}-41", expires=dialect.network.clock.now() - 1.0)
        restored = dialect.source.grant(pinned)
        assert (restored.key, restored.termination_time) == (pinned.sub_id, pinned.expires)
        assert dialect.grants[-1] is pinned
        assert dialect.subscribe().sub_id == f"{prefix}-42"

    def test_a_faulting_subscribe_does_not_spend_the_forced_id(self, dialect):
        """A pinned grant the manager refuses leaves nothing behind: granted
        again, the id is still free."""
        refused = Grant(dialect.sink.epr(), {"content": "///"}, sub_id="replayed-7")
        fault_of(dialect.source.grant, refused)
        assert not dialect.manager.records and dialect.events == []
        assert dialect.source.grant(replace(refused, filter_parts={})).key == "replayed-7"

    def test_forget_is_silent_on_the_wire_but_not_to_listeners(self, dialect):
        handle = dialect.subscribe()
        dialect.manager.forget(handle.sub_id)
        assert dialect.events[-1] == ("removed", handle.sub_id, "unsubscribed")
        assert dialect.end_notices() == [] and dialect.publish() == 0
        dialect.manager.forget(handle.sub_id)  # already gone: nothing happens
        assert [e[0] for e in dialect.events] == ["created", "removed"]


# --- Subscribe below the wire: read, then grant -----------------------------------------

#: per family, requests that between them reach every check Subscribe makes —
#: the Subscribe fault cases above, and the family's own.  Whether a column
#: grants or refuses one is the column's business (01/2004 has no pull, <= 1.2
#: no durations and no topic-less Subscribe): the seam must agree either way.
REQUESTS = {
    Wse: {
        "default": lambda d: d.subscribe(),
        "absolute": lambda d: d.subscribe(d.clock_text(500.0)),
        "duration": lambda d: d.subscribe("PT10M"),
        "pull": lambda d: d.subscribe(None, True),
        "wrapped": lambda d: d.client.subscribe(
            d.source.epr(), notify_to=d.sink.epr(), mode=DeliveryMode.WRAPPED
        ),
        "past": lambda d: d.subscribe(d.clock_text(-5.0)),
        "now": lambda d: d.subscribe(d.clock_text(0.0)),
        "not a time": lambda d: d.subscribe("not a time"),
        "bad filter": lambda d: d.client.subscribe(
            d.source.epr(), notify_to=d.sink.epr(), filter="///"
        ),
        "no NotifyTo": lambda d: d.client.subscribe(d.source.epr()),
    },
    Wsn: {
        "default": lambda d: d.subscribe(),
        "absolute": lambda d: d.subscribe(d.clock_text(500.0)),
        "duration": lambda d: d.subscribe("PT10M"),
        "raw": lambda d: d.client.subscribe(
            d.source.epr(), d.sink.epr(), topic=TOPIC, use_raw=True
        ),
        "past": lambda d: d.subscribe(d.clock_text(-5.0)),
        "now": lambda d: d.subscribe(d.clock_text(0.0)),
        "not a time": lambda d: d.subscribe("not a time"),
        "bad filter": lambda d: d.client.subscribe(
            d.source.epr(), d.sink.epr(), topic=TOPIC, message_content="///"
        ),
        "bad topic": lambda d: d.client.subscribe(d.source.epr(), d.sink.epr(), topic="a|b"),
        "no topic": lambda d: d.client.subscribe(d.source.epr(), d.sink.epr()),
    },
    Converged: {
        "default": lambda d: d.subscribe(),
        "absolute": lambda d: d.subscribe(d.clock_text(500.0)),
        "pull": lambda d: d.subscribe(None, True),
        "raw on a topic": lambda d: d.client.subscribe(
            d.source.epr(), consumer=d.sink.epr(), topic=TOPIC, use_raw=True
        ),
        "past": lambda d: d.subscribe(d.clock_text(-5.0)),
        "not a time": lambda d: d.subscribe("not a time"),
        "bad filter": lambda d: d.client.subscribe(
            d.source.epr(), consumer=d.sink.epr(), message_content="///"
        ),
        "bad mode": lambda d: d.client.subscribe(
            d.source.epr(), consumer=d.sink.epr(), mode="urn:no-such-mode"
        ),
        "no ConsumerReference": lambda d: d.client.subscribe(d.source.epr()),
    },
}


def subscribe_as_sent(dialect, request) -> bytes:
    """The Subscribe envelope ``request`` puts on this column's wire."""
    seen = []
    dialect.network.wire_observers.append(seen.append)
    try:
        request(dialect)
    except SoapFault:
        pass
    return parse_request(seen[0].request).body


class TestGrantSeam:
    def test_the_handler_is_grant_and_then_the_response(self, dialect, monkeypatch):
        """``read_subscribe`` then ``grant`` is Subscribe above the response:
        for every request, they and the handler refuse alike (code, subcode,
        text, nothing left behind), or the handler's reply is, byte for
        byte, the response half run on what ``grant`` returned."""
        column = type(dialect)
        [requests] = [rows for family, rows in REQUESTS.items() if isinstance(dialect, family)]
        outcomes = set()

        def subscribe(source, envelope):
            return source.grant(*source.read_subscribe(envelope))

        for name, request in requests.items():
            wire = subscribe_as_sent(column(), request)
            whole, halves = column(), column()
            headers = extract_headers(parse_envelope(wire))
            reset_message_counter()
            try:
                reply = whole.source.handler_for("source", headers.action)(
                    parse_envelope(wire), headers
                )
            except SoapFault as fault:
                refused = fault_of(subscribe, halves.source, parse_envelope(wire))
                assert (refused.code, refused.subcode, refused.reason) == (
                    fault.code, fault.subcode, fault.reason,
                ), name
                assert not halves.manager.records and halves.events == [], name
                outcomes.add("refused")
                continue
            granted = subscribe(halves.source, parse_envelope(wire))
            assert halves.events == [("created", granted.key)], name
            # the response half: the handler, with the grant already made
            monkeypatch.setattr(halves.source, "grant", lambda grant, expires_text: granted)
            reset_message_counter()
            assert reply == halves.source.handler_for("source", headers.action)(
                parse_envelope(wire), headers
            ), name
            assert halves.events == [("created", granted.key)], name
            outcomes.add("granted")
        assert outcomes == {"granted", "refused"}


# --- the client reads the table (ISSUE 23) ----------------------------------------------


class TestTableCoverage:
    #: what a verb takes besides the handle
    EXTRA = {"get_resource_property": (PROP_STATUS,), "set_termination_time": (None,)}

    def arguments(self, dialect, verb, handle) -> tuple:
        if verb == "get_current_message":
            return (dialect.source.epr(), TOPIC)
        if verb == "register_publisher":
            return (dialect.source.epr(),)
        return (handle, *self.EXTRA.get(verb, ()))

    def test_the_client_resolves_exactly_the_verbs_its_table_has_rows_for(self, dialect):
        verbs = [verb for verb in dialect.client.verbs if verb != "subscribe"]
        shared = {"renew", "get_status", "unsubscribe", "pause", "resume", "pull"}
        assert shared | {"get_current_message"} <= set(verbs)  # every family names all of them
        for verb in verbs:
            handle = dialect.subscribe()
            sent = dialect.network.stats.requests
            try:
                getattr(dialect.client, verb)(*self.arguments(dialect, verb, handle))
            except OperationNotAvailable:
                resolved = False
            except SoapFault:
                resolved = True  # the service's own answer: it was asked
            else:
                resolved = True
            assert resolved == dialect.defines(verb), verb
            assert (dialect.network.stats.requests > sent) == resolved, verb
            if resolved:  # a verb with a row is one the family can build
                assert dialect.client.verbs[verb].build is not None

    def test_every_served_row_is_reachable_from_some_verb(self, dialect):
        """A row added to an operation table without a client verb fails here."""
        named = {row.operation for row in dialect.client.verbs.values()}
        assert dialect.client.table == dialect.source.operations
        for row in dialect.client.table.rows:
            if not row.one_way:
                assert row.name in named, f"{row.name} ({row.port} port) has no client verb"

    def test_the_source_port_of_a_two_port_operation_is_reached_by_its_address(self):
        """GetResourceProperty is served twice: a handle reads the
        subscription's properties, the producer's own EPR the producer's."""
        dialect = Wsn()
        handle = dialect.subscribe()
        assert dialect.client.get_resource_property(handle, PROP_STATUS)[0].full_text() == "Active"
        topic_set = dialect.client.get_resource_property(dialect.source.epr(), PROP_TOPIC_SET)
        assert topic_set[0].name == PROP_TOPIC_SET


CLIENTS = {
    "wse": lambda network: WseSubscriber(network),
    "wsn": lambda network: WsnSubscriber(network),
    "converged": lambda network: ConvergedSubscriber(network),
}


@pytest.mark.parametrize("family", CLIENTS)
def test_a_client_faults_alike_when_nothing_answers(family):
    """ISSUE 23: the converged client raised AttributeError on a 202."""
    network = SimulatedNetwork(VirtualClock())
    mute = EventSink(network, "http://c-mute")  # accepts anything, answers nothing
    client = CLIENTS[family](network)
    subscribe = {
        "wse": lambda: client.subscribe(mute.epr(), notify_to=mute.epr()),
        "wsn": lambda: client.subscribe(mute.epr(), mute.epr(), topic=TOPIC),
        "converged": lambda: client.subscribe(mute.epr(), consumer=mute.epr()),
    }[family]
    fault = fault_of(subscribe)
    assert fault.code is FaultCode.RECEIVER and fault.reason == "no response to Subscribe"
    if family != "wse":  # WS-Eventing has no GetCurrentMessage to ask with
        fault = fault_of(client.get_current_message, mute.epr(), TOPIC)
        assert fault.code is FaultCode.RECEIVER
        assert fault.reason == "no response to GetCurrentMessage"


# --- the drift the three copies had accumulated (ISSUE 16, defects A-E) ------------


class TestDriftDefects:
    @pytest.mark.parametrize("with_controller", [False, True], ids=["bare", "controller"])
    @pytest.mark.parametrize("family", ["wse", "wsn"])
    def test_a_refused_subscribe_registers_no_qos_profile(self, family, with_controller):
        """A: WSN used to register the profile before validating the request."""
        from repro.delivery.manager import DeliveryManager
        from repro.qos.adaptive import AdaptiveQosController
        from repro.qos.properties import QosProfile

        network = SimulatedNetwork(VirtualClock())
        controller = AdaptiveQosController(network.clock) if with_controller else None
        manager = DeliveryManager(network, qos=controller) if with_controller else None
        profile = QosProfile({"Priority": 7, "MaxEventsPerConsumer": 3})
        if family == "wse":
            source = EventSource(network, "http://a-source", delivery_manager=manager)
            sink = EventSink(network, "http://a-sink")

            def subscribe(**bad):
                WseSubscriber(network).subscribe(
                    source.epr(), notify_to=sink.epr(), qos=profile, **bad
                )

            bad_requests = [{"expires": "PT0S"}, {"filter": "///"}]
        else:
            source = NotificationProducer(network, "http://a-producer", delivery_manager=manager)
            sink = NotificationConsumer(network, "http://a-consumer")

            def subscribe(**bad):
                WsnSubscriber(network).subscribe(
                    source.epr(), sink.epr(), topic="t", qos=profile, **bad
                )

            bad_requests = [{"initial_termination": "PT0S"}, {"message_content": "///"}]
        for bad in bad_requests:
            fault_of(lambda: subscribe(**bad))
            assert len(source.subscriptions) == 0
            if controller is not None:
                assert controller.profile_for(sink.address) is None
        subscribe()  # the same profile on a valid request is accepted
        if controller is not None:
            assert controller.profile_for(sink.address).get("Priority") == 7

    def test_wsrf_set_termination_time_never_raises_past_the_wire(self):
        """C: an unparseable RequestedTerminationTime was a bare ValueError."""
        dialect = Wsn()
        handle = dialect.subscribe()
        for text in ("garbage", "PT5M", "2006-13-45T99:00:00Z"):
            fault = fault_of(dialect.client.set_termination_time, handle, text)
            assert fault.subcode.local == "UnableToSetTerminationTimeFault"
        assert dialect.client.set_termination_time(handle, None) == ""  # empty = infinite
        assert dialect.manager.lookup(handle.sub_id).termination_time is None

    def test_converged_publish_outside_a_fixed_topic_set_is_a_sender_fault(self):
        """D: the prototype raised a raw FilterError."""
        from repro.filters.topics import TopicNamespace
        from repro.soap import FaultCode

        network = SimulatedNetwork(VirtualClock())
        topics = TopicNamespace("urn:fixed", fixed=True)
        topics.add("known")
        source = ConvergedSource(network, "http://d-source", topic_namespace=topics)
        assert source.publish(event(), topic="known") == 0
        fault = fault_of(lambda: source.publish(event(), topic="unknown"))
        assert fault.code is FaultCode.SENDER
        with pytest.raises(SoapFault):
            ConvergedSubscriber(network).get_current_message(source.epr(), "unknown")

    def test_converged_failing_filter_starves_only_itself(self):
        """Found on the way: a filter failing at match time aborted the publish."""
        dialect = Converged()
        dialect.client.subscribe(
            dialect.source.epr(), consumer=dialect.sink.epr(), message_content="1 | 2"
        )
        dialect.subscribe()
        assert dialect.publish() == 1 and dialect.delivered() == 1
