"""Figures 1 and 2: architecture entity/interaction diagrams, traced live.

The paper's Fig. 1 (WS-Eventing) and Fig. 2 (WS-BaseNotification) show the
entities each spec defines and the operations flowing between them.  Here
the diagrams are *recorded*: a full lifecycle runs over the simulated wire
with a network observer attached; every SOAP request becomes an edge
``actor --operation--> target-entity``.  The rendered output lists the
entities and the labelled interactions — the same information as the
figures, in text form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.soap.codec import parse_envelope
from repro.transport.clock import VirtualClock
from repro.transport.http import parse_request
from repro.transport.network import SimulatedNetwork
from repro.wsa.headers import extract_headers
from repro.wse.sink import EventSink
from repro.wse.source import EventSource
from repro.wse.subscriber import WseSubscriber
from repro.wse.versions import WseVersion
from repro.wsn.consumer import NotificationConsumer
from repro.wsn.producer import NotificationProducer
from repro.wsn.subscriber import WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit.parser import parse_xml


@dataclass(frozen=True)
class Interaction:
    source: str
    target: str
    operation: str


@dataclass
class ArchitectureTrace:
    """Entities and recorded interactions of one spec's architecture."""

    title: str
    entities: list[str] = field(default_factory=list)
    interactions: list[Interaction] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def operations_between(self, source: str, target: str) -> list[str]:
        seen: list[str] = []
        for interaction in self.interactions:
            if interaction.source == source and interaction.target == target:
                if interaction.operation not in seen:
                    seen.append(interaction.operation)
        return seen

    def render(self) -> str:
        lines = [self.title, "=" * len(self.title), "", "Entities:"]
        for entity in self.entities:
            lines.append(f"  [{entity}]")
        lines.append("")
        lines.append("Interactions (traced from a live lifecycle):")
        for source in self.entities:
            for target in self.entities:
                operations = self.operations_between(source, target)
                if operations:
                    lines.append(
                        f"  [{source}] --{', '.join(operations)}--> [{target}]"
                    )
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"  note: {note}")
        return "\n".join(lines)


class _Recorder:
    """Wire observer: maps completed exchanges to labelled edges."""

    def __init__(self, network: SimulatedNetwork, labels: dict[str, str]) -> None:
        self.network = network
        self.labels = labels
        self.interactions: list[Interaction] = []
        self.actor = "?"
        network.wire_observers.append(self._observe)

    def set_actor(self, actor: str) -> None:
        self.actor = actor

    def _observe(self, observation) -> None:
        if not observation.ok:
            return  # only exchanges that actually reached the target
        try:
            request = parse_request(observation.request)
            envelope = parse_envelope(request.body)
            action = extract_headers(envelope).action
        except Exception as exc:
            # a frame the recorder cannot parse is dropped from the figure,
            # but the drop itself must show up in the metrics
            self.network.instrumentation.count(
                "obs.swallowed_errors_total",
                site="comparison.figures.recorder",
                kind=type(exc).__name__,
            )
            return
        operation = action.rsplit("/", 1)[-1]
        target = self.labels.get(observation.address)
        if target is None:
            return
        self.interactions.append(Interaction(self.actor, target, operation))


def _event():
    return parse_xml('<ev:E xmlns:ev="urn:fig"><ev:n>1</ev:n></ev:E>')


def trace_wse_architecture(version: WseVersion = WseVersion.V2004_08) -> ArchitectureTrace:
    """Run the full WS-Eventing lifecycle and record Fig. 1's interactions."""
    network = SimulatedNetwork(VirtualClock())
    source = EventSource(network, "http://fig-source", version=version)
    sink = EventSink(network, "http://fig-sink", version=version)
    end_sink = EventSink(network, "http://fig-end-sink", version=version)
    subscriber = WseSubscriber(network, version=version)

    if version.separate_subscription_manager:
        entities = ["Subscriber", "Event Source", "Subscription Manager", "Event Sink"]
        labels = {
            source.address: "Event Source",
            source.manager_address: "Subscription Manager",
            sink.address: "Event Sink",
            end_sink.address: "Event Sink",
        }
    else:
        entities = ["Subscriber", "Event Source", "Event Sink"]
        labels = {
            source.address: "Event Source",
            sink.address: "Event Sink",
            end_sink.address: "Event Sink",
        }
    recorder = _Recorder(network, labels)

    recorder.set_actor("Subscriber")
    handle = subscriber.subscribe(
        source.epr(), notify_to=sink.epr(), end_to=end_sink.epr(), expires="PT1H"
    )
    subscriber.renew(handle, "PT2H")
    if version.has_get_status:
        subscriber.get_status(handle)

    recorder.set_actor("Event Source")
    source.publish(_event())

    recorder.set_actor("Subscriber")
    subscriber.unsubscribe(handle)
    handle2 = subscriber.subscribe(
        source.epr(), notify_to=sink.epr(), end_to=end_sink.epr()
    )

    recorder.set_actor("Event Source")
    source.shutdown()  # emits SubscriptionEnd for handle2's subscription

    trace = ArchitectureTrace(
        f"Fig. 1: WS-Eventing ({version.name}) Architecture and Operations",
        entities=entities,
        interactions=recorder.interactions,
    )
    trace.notes.append(
        "the event source is both notification producer and publisher "
        "(WS-Eventing does not separate them)"
    )
    if not version.separate_subscription_manager:
        trace.notes.append(
            "01/2004: the event source acts as its own subscription manager"
        )
    del handle2
    return trace


def trace_converged_architecture() -> ArchitectureTrace:
    """The WS-EventNotification prototype's architecture, traced (E9).

    The converged entity graph is WSE's shape (Fig. 1) carrying WSN's
    operations as well — the structural summary of the convergence.
    """
    from repro.convergence.service import (
        MODE_PULL,
        ConvergedConsumer,
        ConvergedSource,
        ConvergedSubscriber,
    )

    network = SimulatedNetwork(VirtualClock())
    source = ConvergedSource(network, "http://fig-conv")
    consumer = ConvergedConsumer(network, "http://fig-conv-consumer")
    subscriber = ConvergedSubscriber(network)
    labels = {
        source.address: "Event Source",
        source.manager_address: "Subscription Manager",
        consumer.address: "Consumer",
    }
    recorder = _Recorder(network, labels)

    recorder.set_actor("Subscriber")
    handle = subscriber.subscribe(
        source.epr(), consumer=consumer.epr(), topic="fig", expires="PT1H"
    )
    puller = subscriber.subscribe(source.epr(), mode=MODE_PULL, topic="fig")
    subscriber.get_status(handle)
    subscriber.pause(handle)
    subscriber.resume(handle)
    subscriber.renew(handle, "PT2H")

    recorder.set_actor("Event Source")
    source.publish(_event(), topic="fig")

    recorder.set_actor("Subscriber")
    subscriber.pull(puller)
    subscriber.get_current_message(source.epr(), "fig")
    subscriber.unsubscribe(handle)

    trace = ArchitectureTrace(
        "WS-EventNotification prototype: architecture and operations (traced)",
        entities=["Subscriber", "Event Source", "Subscription Manager", "Consumer"],
        interactions=recorder.interactions,
    )
    trace.notes.append(
        "WSE's entity shape carrying the union of both families' operations"
    )
    return trace


def trace_wsn_architecture(version: WsnVersion = WsnVersion.V1_3) -> ArchitectureTrace:
    """Run the full WS-BaseNotification lifecycle and record Fig. 2."""
    network = SimulatedNetwork(VirtualClock())
    producer = NotificationProducer(network, "http://fig-producer", version=version)
    consumer = NotificationConsumer(network, "http://fig-consumer", version=version)
    subscriber = WsnSubscriber(network, version=version)
    labels = {
        producer.address: "Notification Producer",
        producer.manager_address: "Subscription Manager",
        consumer.address: "Notification Consumer",
    }
    entities = [
        "Publisher",
        "Subscriber",
        "Notification Producer",
        "Subscription Manager",
        "Notification Consumer",
    ]
    recorder = _Recorder(network, labels)

    recorder.set_actor("Subscriber")
    handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="fig")
    subscriber.pause(handle)
    subscriber.resume(handle)

    recorder.set_actor("Notification Producer")
    # the publisher is a separate entity: it hands events to the producer
    publisher_edge = Interaction("Publisher", "Notification Producer", "publish")
    producer.publish(_event(), topic="fig")

    recorder.set_actor("Subscriber")
    subscriber.get_current_message(producer.epr(), "fig")
    if version.has_native_unsubscribe:
        subscriber.renew(handle, "PT1H")
        subscriber.unsubscribe(handle)
    else:
        subscriber.set_termination_time(handle, "2006-01-01T02:00:00Z")
        subscriber.destroy(handle)

    interactions = [publisher_edge, *recorder.interactions]
    trace = ArchitectureTrace(
        f"Fig. 2: WS-BaseNotification ({version.name}) Architecture and Operations",
        entities=entities,
        interactions=interactions,
    )
    trace.notes.append(
        "the publisher is separate from the notification producer; it only "
        "hands events over (here: the in-process publish() API)"
    )
    if not version.has_native_unsubscribe:
        trace.notes.append(
            "pre-1.3: Renew/Unsubscribe are WSRF SetTerminationTime/Destroy"
        )
    return trace
