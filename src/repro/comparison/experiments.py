"""Experiments E6-E10: the claims EXPERIMENTS.md makes beyond the tables.

:data:`EXPERIMENTS` lists one row per claim, beside the tables'
:data:`repro.comparison.STUDY`.  A row's measurement returns what it counted
-- requests and bytes on the simulated wire, Python calls, never wall time,
so the study's golden pins it -- and whether the claim held; a claim that
fails, or a measurement that raises, renders ``FAILED: ...`` as a failed
Table 3 probe does.  The stacks are the probes' ``_Harness``, Table 3's
CORBA channel and :func:`_broker`'s WS-Messenger.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass
from typing import Callable

from repro.baselines.corba.events import StructuredEvent
from repro.comparison.probes import _event, _Harness
from repro.comparison.table3 import structured_push
from repro.composition import ReliableChannel, make_reliable, secure_endpoint, sign_envelope
from repro.convergence import ConvergedConsumer, ConvergedSource, ConvergedSubscriber
from repro.filters import FilterContext, MessageContentFilter, TopicDialect, TopicExpression
from repro.filters.selector import MessageSelector
from repro.filters.tcl import TclConstraint
from repro.messenger import WsMessenger
from repro.messenger.mediation import compare_message_pair
from repro.soap.codec import parse_envelope
from repro.transport import SimulatedNetwork, SoapClient, VirtualClock
from repro.transport.http import parse_request, parse_response
from repro.wse import DeliveryMode, EventSink, WseSubscriber, WseVersion
from repro.wse.source import DEFAULT_NOTIFY_ACTION
from repro.wsn import NotificationConsumer, WsnSubscriber, WsnVersion
from repro.xmlkit import parse_xml

WSE = WseVersion.V2004_08
WSN = WsnVersion.V1_3
#: events per delivery-mode round
BATCH = 50

TITLE = "Experiments E6-E10 (measured: requests, bytes and Python calls; no wall time)"


@dataclass(frozen=True)
class Experiment:
    """One claim and the measurement that decides it."""

    id: str
    claim: str
    #: returns (what was counted, whether the claim held)
    measure: Callable[[], tuple[str, bool]]

    def result(self) -> tuple[str, bool]:
        """``(text, held)``, the text ``FAILED: ...`` unless the claim held."""
        try:
            text, held = self.measure()
        except Exception as exc:  # a crashed measurement must surface in the rows
            return f"FAILED: {exc}", False
        return (text, True) if held else (f"FAILED: {text}", False)


#: the frames CPython 3.12 inlines (PEP 709) and earlier versions call
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def python_calls(fn, *args, comprehensions=True):
    """``(Python calls fn(*args) makes, its result)``.

    Counts ``call`` events under ``sys.setprofile``: Python frames and
    generator resumptions.  With ``comprehensions=False`` the comprehension
    frames only CPython < 3.12 makes are not counted, so the count is the
    same on 3.10-3.12.  The garbage collector is off for the counted window,
    so a finalizer that a collection would run there is not counted; its
    previous state is restored afterwards.
    """
    calls = 0
    skipped = () if comprehensions else _COMPREHENSIONS

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name not in skipped:
            calls += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls, result


def _sent(network: SimulatedNetwork, act: Callable[[], object]) -> tuple[int, int]:
    """``(requests, bytes)`` that ``act()`` puts on ``network``."""
    network.stats.reset()
    act()
    return network.stats.requests, network.stats.bytes_sent


def _direct(version=WSE) -> tuple[_Harness, int]:
    """The probes' stack for ``version`` and the bytes of one push delivery."""
    harness = _Harness(version)
    harness.subscribe()
    _, sent = _sent(harness.network, harness.publish)
    return harness, sent


def _broker(versions, network=None, topic="probe"):
    """WS-Messenger with one consumer per version subscribed at its front
    door (a WSN consumer on ``topic``): ``(network, broker, consumers)``."""
    network = network or SimulatedNetwork(VirtualClock())
    broker = WsMessenger(network, "http://broker")
    front, consumers = broker.epr(), []
    for n, version in enumerate(versions):
        if isinstance(version, WseVersion):
            consumer = EventSink(network, f"http://sink-{n}", version=version)
            WseSubscriber(network, version=version).subscribe(front, notify_to=consumer.epr())
        else:
            consumer = NotificationConsumer(network, f"http://consumer-{n}", version=version)
            WsnSubscriber(network, version=version).subscribe(front, consumer.epr(), topic=topic)
        consumers.append(consumer)
    return network, broker, consumers


def _mediated():
    """One publication, broker to a WSE sink and a WSN consumer: ``(bytes, sink, consumer)``."""
    network, broker, (sink, consumer) = _broker([WSE, WSN])
    _, sent = _sent(network, lambda: broker.publish(_event(), topic="probe"))
    return sent, sink, consumer


def _message_formats():
    # section V.4's category-1 example (ReferenceParameters vs
    # ReferenceProperties) is the pre-1.3 WSN the authors implemented against
    network = SimulatedNetwork(VirtualClock())
    wire = []
    network.wire_observers.append(wire.append)
    _, broker, _ = _broker([WSE, WsnVersion.V1_0], network)
    broker.publish(_event(), topic="probe")
    subscribed = compare_message_pair(
        *(parse_envelope(parse_response(w.response).body) for w in wire[:2])
    )
    notified = compare_message_pair(
        *(parse_envelope(parse_request(w.request).body) for w in wire[2:])
    )
    found = set(subscribed.categories_present()) | set(notified.categories_present())
    split = {"ReferenceParameters", "ReferenceProperties"} <= set(
        subscribed.element_name_differences
    )
    return (
        f"{len(found)}/6 categories: {subscribed.categories_present()} in SubscribeResponse,"
        f" {notified.categories_present()} in Notify",
        found == set(range(1, 7)) and split,
    )


def _detection():
    _, broker, _ = _broker([*WseVersion, *WsnVersion])
    detected, failures = broker.stats.detected, broker.stats.detection_failures
    subscriptions = broker.subscription_count()
    return (
        f"{len(detected)} versions detected with {failures} failures,"
        f" {subscriptions} subscriptions",
        len(detected) == 5 == subscriptions and set(detected.values()) == {1} and failures == 0,
    )


def _mediation():
    harness, direct = _direct()
    mediated, sink, consumer = _mediated()
    shapes = [(len(c.received), c.received[0].wrapped) for c in (harness.consumer, sink, consumer)]
    return (
        f"{mediated} bytes to a WSE sink (raw) and a WSN consumer (wrapped):"
        f" {mediated / direct:.2f}x one direct delivery's {direct}",
        shapes == [(1, False), (1, False), (1, True)] and mediated <= 4 * direct,
    )


def _delivery_modes():
    sent, delivered = {}, []
    for mode in (DeliveryMode.PUSH, DeliveryMode.WRAPPED, DeliveryMode.PULL):
        harness = _Harness(WSE)
        pull = mode is DeliveryMode.PULL
        handle = harness.subscribe(mode=mode, **({"notify_to": None} if pull else {}))

        def round_of_events():
            for _ in range(BATCH):
                harness.publish()
            harness.service.flush()
            got = harness.subscriber.pull(handle) if pull else harness.consumer.received
            delivered.append(len(got))

        sent[mode] = _sent(harness.network, round_of_events)
    (push, push_bytes), (wrapped, wrapped_bytes), (pulls, pull_bytes) = sent.values()
    return (
        f"{BATCH} events as push {push}, wrapped {wrapped} and pull {pulls} requests"
        f" ({push_bytes}, {wrapped_bytes} and {pull_bytes} bytes)",
        delivered == [BATCH] * 3 and pulls == 1
        and wrapped < push / 2 and wrapped_bytes < push_bytes,
    )


def _filters():
    status = parse_xml(
        '<ev:Status xmlns:ev="urn:bf"><ev:job>job-42</ev:job>'
        "<ev:progress>75</ev:progress><ev:severity>warning</ev:severity></ev:Status>"
    )
    corba_event = {
        "header": {"fixed_header": {"event_type": {"domain_name": "grid", "type_name": "Status"}}},
        "filterable_data": {"progress": 75, "severity": "warning"},
    }
    matches = {
        "topic": (TopicExpression("jobs/*/status", TopicDialect.FULL), "jobs/job-42/status"),
        "XPath": (
            MessageContentFilter("/ev:Status[ev:progress > 50]", {"ev": "urn:bf"}),
            FilterContext(status, topic="jobs/job-42/status"),
        ),
        "JMS selector": (MessageSelector("progress > 50"), {"progress": 75, "severity": "warning"}),
        "CORBA TCL": (TclConstraint("$progress > 50"), corba_event),
    }
    calls = {}
    for name, (expression, subject) in matches.items():
        expression.matches(subject)  # first use: whatever it caches is built
        calls[name], verdict = python_calls(expression.matches, subject, comprehensions=False)
        if verdict is not True:
            return f"{name} did not match", False
    return (
        "Python calls per match: " + ", ".join(f"{name} {n}" for name, n in calls.items()),
        calls["topic"] < calls["XPath"],
    )


def _wire_cost():
    orb, _, _, supplier, received = structured_push()
    orb.bytes_routed = 0
    supplier.push_structured_event(
        StructuredEvent(type_name="E", filterable_data={"kind": "status"}, payload="<x/>")
    )
    corba = orb.bytes_routed
    _, wse = _direct(WSE)
    _, wsn = _direct(WSN)
    network, broker, (sink,) = _broker([WSE])
    _, brokered = _sent(network, lambda: broker.publish(_event()))
    return (
        f"CORBA {corba} < WSE {wse} < WSN {wsn} bytes per event;"
        f" the broker sends {brokered} to a WSE sink",
        len(received) == len(sink.received) == 1 and corba < wse < wsn and brokered <= 1.2 * wse,
    )


def _fan_out():
    requests = []
    for consumers in (1, 10, 50):
        network, broker, _ = _broker([(WSE, WSN)[n % 2] for n in range(consumers)])
        requests.append(_sent(network, lambda: broker.publish(_event(), topic="probe"))[0])
    network, broker, _ = _broker([WSN] * 20, topic="other")
    idle, _ = _sent(network, lambda: broker.publish(_event(), topic="probe"))
    return (
        f"{requests[0]}, {requests[1]} and {requests[2]} requests for 1, 10 and 50 consumers;"
        f" {idle} for 20 non-matching subscriptions",
        requests == [1, 10, 50] and idle == 0,
    )


def _converged():
    network = SimulatedNetwork(VirtualClock())
    source = ConvergedSource(network, "http://converged")
    subscriber = ConvergedSubscriber(network)
    consumers = [ConvergedConsumer(network, f"http://converged-{n}") for n in range(2)]
    for consumer in consumers:
        subscriber.subscribe(source.epr(), consumer=consumer.epr(), topic="probe")
    _, converged = _sent(network, lambda: source.publish(_event(), topic="probe"))
    mediated, _, _ = _mediated()
    return (
        f"converged {converged} <= mediated {mediated} bytes per event to two consumers",
        [len(c.received) for c in consumers] == [1, 1] and converged <= mediated,
    )


def _composition():
    key = b"experiment-secret"
    _, plain = _direct()
    signed = _Harness(WSE)
    for client in (signed.service._client, signed.subscriber._client):
        client.envelope_filter = lambda envelope: sign_envelope(envelope, key)
    secure_endpoint(signed.consumer.endpoint, key)
    signed.subscribe()
    _, signed_bytes = _sent(signed.network, signed.publish)
    reliable = _Harness(WSE)
    make_reliable(reliable.consumer.endpoint)
    channel = ReliableChannel(SoapClient(reliable.network), reliable.consumer.epr())
    _, reliable_bytes = _sent(
        reliable.network, lambda: channel.send(DEFAULT_NOTIFY_ACTION, _event())
    )
    return (
        f"signed {signed_bytes} ({signed_bytes / plain:.2f}x), reliable {reliable_bytes}"
        f" ({reliable_bytes / plain:.2f}x) against plain {plain} bytes",
        len(signed.consumer.received) == len(reliable.consumer.received) == 1
        and max(signed_bytes, reliable_bytes) < 1.6 * plain,
    )


#: E6-E10 in EXPERIMENTS.md's order
EXPERIMENTS = [
    Experiment(
        "E6",
        "section V.4: a WSE and a WSN message for one exchange differ in six categories",
        _message_formats,
    ),
    Experiment(
        "E7 detection",
        "section VII: one front door detects a Subscribe in all five versions",
        _detection,
    ),
    Experiment(
        "E7 mediation",
        "section VII: a publication reaches each consumer in its own spec's shape",
        _mediation,
    ),
    Experiment(
        "E8 delivery modes",
        "wrapped packs notifications; pull drains a backlog in one round trip",
        _delivery_modes,
    ),
    Experiment("E8 filters", "a topic match costs less than an XPath match", _filters),
    Experiment(
        "E8 wire cost",
        "binary CORBA < raw SOAP (WSE) < wrapped SOAP (WSN); a broker adds <= 20%",
        _wire_cost,
    ),
    Experiment(
        "E8 fan-out",
        "broker requests are linear in matching consumers, zero for the rest",
        _fan_out,
    ),
    Experiment(
        "E9",
        "one converged spec serves two consumers for no more bytes than mediation",
        _converged,
    ),
    Experiment(
        "E10",
        "signing and reliable sequencing add headers, under 1.6x a plain delivery",
        _composition,
    ),
]
