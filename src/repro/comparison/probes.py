"""Runtime feature probes.

Each probe spins up a fresh simulated network, mounts the spec version
under test, and *attempts* the feature over real SOAP exchanges; the cell
value reflects what actually happened, not what the flags claim.  (Purely
structural rows — release dates, WSA bindings, mandatory-ness — come from
the version profiles, which is what a spec *text* says rather than what a
wire exchange can reveal.)
"""

from __future__ import annotations

from typing import Union

from repro.soap.fault import SoapFault
from repro.transport.clock import VirtualClock
from repro.transport.network import SimulatedNetwork
from repro.wse.model import DeliveryMode
from repro.wse.sink import EventSink
from repro.wse.source import EventSource
from repro.wse.subscriber import WseSubscriber
from repro.wse.versions import WseVersion
from repro.wsn.consumer import NotificationConsumer
from repro.wsn.producer import NotificationProducer
from repro.wsn.pullpoint import PullPointClient, PullPointFactory
from repro.wsn.subscriber import WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit.parser import parse_xml

SpecVersion = Union[WseVersion, WsnVersion]


def _event():
    return parse_xml('<ev:E xmlns:ev="urn:probe"><ev:n>1</ev:n></ev:E>')


class _Harness:
    """One version's live stack: the service, a consumer, the subscriber."""

    def __init__(self, version: SpecVersion) -> None:
        self.version = version
        self.network = SimulatedNetwork(VirtualClock())
        if isinstance(version, WseVersion):
            self.service = EventSource(self.network, "http://probe-source", version=version)
            self.consumer = EventSink(self.network, "http://probe-sink", version=version)
            self.subscriber = WseSubscriber(self.network, version=version)
            self._request = {"notify_to": self.consumer.epr()}
        else:
            self.service = NotificationProducer(
                self.network, "http://probe-producer", version=version
            )
            self.consumer = NotificationConsumer(
                self.network, "http://probe-consumer", version=version
            )
            self.subscriber = WsnSubscriber(self.network, version=version)
            self._request = {"consumer": self.consumer.epr(), "topic": "probe"}

    def subscribe(self, **kwargs):
        return self.subscriber.subscribe(self.service.epr(), **{**self._request, **kwargs})

    def publish(self) -> None:
        self.service.publish(_event(), topic="probe")


def _answers(exchange, *args, **kwargs) -> bool:
    """Whether ``exchange`` went through with something to show; a fault —
    the client's own ``OperationNotAvailable`` included — is a No."""
    try:
        return bool(exchange(*args, **kwargs))
    except SoapFault:
        return False


# --- probes (each returns the measured cell value) -----------------------------------


def probe_separate_manager(version: SpecVersion) -> bool:
    """Does Subscribe yield a manager endpoint distinct from the source?"""
    harness = _Harness(version)
    return harness.subscribe().manager.address != harness.service.address


def probe_get_status(version: SpecVersion) -> bool:
    """Can the subscription's status/expiry be queried?"""
    harness = _Harness(version)
    return _answers(harness.subscriber.get_status, harness.subscribe())


def probe_id_in_epr(version: SpecVersion) -> bool:
    """Is the subscription id returned inside the manager EPR's WS-Addressing
    reference parameters/properties (vs a bare element)?"""
    manager = _Harness(version).subscribe().manager
    return bool(manager.reference_parameters or manager.reference_properties)


def probe_wrapped_delivery(version: SpecVersion) -> bool:
    harness = _Harness(version)
    if isinstance(version, WseVersion):
        return _answers(harness.subscribe, mode=DeliveryMode.WRAPPED)
    harness.subscribe()
    harness.publish()
    return bool(harness.consumer.received) and harness.consumer.received[0].wrapped


def probe_pull_delivery(version: SpecVersion) -> bool:
    """Is there *any* way to pull notifications (mode or pull point)?"""
    harness = _Harness(version)
    if isinstance(version, WseVersion):
        try:
            handle = harness.subscribe(notify_to=None, mode=DeliveryMode.PULL)
            harness.publish()
            return len(harness.subscriber.pull(handle)) == 1
        except SoapFault:
            return False
    try:
        factory = PullPointFactory(
            harness.network, "http://probe-pullpoints", version=version
        )
    except SoapFault:
        return False
    client = PullPointClient(harness.network, version=version)
    pull_point = client.create(factory.epr())
    harness.subscriber.subscribe(harness.service.epr(), pull_point, topic="probe")
    harness.publish()
    return len(client.get_messages(pull_point)) == 1


def probe_duration_expiry(version: SpecVersion) -> bool:
    keyword = "expires" if isinstance(version, WseVersion) else "initial_termination"
    return _answers(_Harness(version).subscribe, **{keyword: "PT60S"})


def probe_requires_topic(version: SpecVersion) -> bool:
    """Does a topic-less Subscribe fault?"""
    if isinstance(version, WseVersion):
        return False  # WSE has no topic notion at all
    return not _answers(_Harness(version).subscribe, topic=None)


def probe_get_current_message(version: SpecVersion) -> bool:
    harness = _Harness(version)
    harness.subscribe()
    harness.publish()
    return _answers(
        lambda: harness.subscriber.get_current_message(harness.service.epr(), "probe").name.local
        == "E"
    )


def probe_pull_point_interface(version: SpecVersion) -> bool:
    if isinstance(version, WseVersion):
        return False
    harness = _Harness(version)
    try:
        PullPointFactory(harness.network, "http://probe-pp", version=version)
        return True
    except SoapFault:
        return False


def probe_pull_mode_in_subscription(version: SpecVersion) -> bool:
    """Can the Subscribe message itself request pull delivery?  (WSE 08/2004
    yes via the Delivery extension point; WSN never — the pull point is
    created beforehand and subscribed as an ordinary consumer.)"""
    if isinstance(version, WseVersion):
        return _answers(_Harness(version).subscribe, notify_to=None, mode=DeliveryMode.PULL)
    return version.pull_mode_in_subscription


def probe_subscription_end_notice(version: SpecVersion) -> bool:
    """Does the consumer get an end-of-subscription notice when the source
    dies or the subscription expires?"""
    harness = _Harness(version)
    if isinstance(version, WseVersion):
        end_sink = EventSink(harness.network, "http://probe-end", version=version)
        harness.subscribe(end_to=end_sink.epr())
        harness.service.shutdown()
        return len(end_sink.subscription_ends) == 1
    harness.subscribe(initial_termination="2006-01-01T00:01:00Z")
    harness.network.clock.advance(120.0)
    harness.service.sweep()
    return bool(harness.consumer.termination_notices)


def probe_pause_resume(version: SpecVersion) -> bool:
    """Are Pause/ResumeSubscription operations available?"""
    harness = _Harness(version)
    handle = harness.subscribe()
    try:
        harness.subscriber.pause(handle)
    except SoapFault:
        return False  # WS-Eventing: the client answers OperationNotAvailable
    harness.publish()
    if harness.consumer.received:
        return False  # pause had no effect
    harness.subscriber.resume(handle)
    return len(harness.consumer.received) == 1
