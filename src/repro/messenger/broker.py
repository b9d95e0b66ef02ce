"""The WS-Messenger broker.

One front-door address accepts traffic in **both** specification families and
**all five** supported versions.  Per section VII:

- spec detection: every incoming envelope is classified by
  :func:`repro.messenger.detection.detect_spec`;
- "Response messages follow the same specifications as request messages":
  each request is dispatched to an internal implementation of exactly the
  detected version, whose reply is returned verbatim;
- "notification messages follow the expected specifications of the target
  event consumers.  The specification type of a target event consumer is
  determined by the subscription request message type": a subscription made
  with a WSE 08/2004 Subscribe lives in the broker's internal WSE 08/2004
  event source and is served raw WSE notifications; a WSN 1.3 subscription
  is served wrapped ``Notify`` messages; and so on;
- publications may enter in-process (:meth:`WsMessenger.publish`), as WSN
  ``Notify`` messages at the front door, or by bridging from external WSE
  sources / WSN producers — "an event producer can publish event
  notifications using either the WS-Eventing specification or the
  WS-Notification specification.  It makes no difference to the event
  consumers";
- publishers register with WS-BrokeredNotification's RegisterPublisher, and a
  demand-based one is a bridge paused while no consumer of either family
  wants its topic (:mod:`repro.messenger.registration`);
- all traffic is carried by a pluggable messaging backbone
  (:mod:`repro.messenger.adapters`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.core import BrokerStore

from repro.delivery.manager import DeliveryManager
from repro.delivery.messagebox import MessageBoxRegistry
from repro.delivery.policy import BatchingPolicy, DeliveryPolicy
from repro.fanout import freeze_once
from repro.filters.topics import TopicNamespace
from repro.messenger.adapters import InMemoryBackbone, MessagingBackbone
from repro.messenger.detection import DetectedSpec, SpecDetectionError, SpecFamily, detect_spec
from repro.obs.instrument import BoundCounters
from repro.qos.adaptive import AdaptiveQosController, AdaptiveQosPolicy
from repro.messenger import mediation
from repro.messenger.registration import BrokerProducer, PublisherRegistrations
from repro.soap.envelope import SoapEnvelope
from repro.soap.fault import FaultCode, SoapFault
from repro.subscriptions import SubscriptionService
from repro.transport.endpoint import SoapEndpoint
from repro.transport.network import NetworkError, SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders
from repro.wse.model import DeliveryMode
from repro.wse.source import EventSource
from repro.wse.subscriber import WseSubscriber
from repro.wse.versions import WseVersion
from repro.wsn.producer import NotificationProducer
from repro.wsn.pullpoint import PullPointFactory
from repro.wsn.subscriber import WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit.element import XElem
from repro.xmlkit.names import Namespaces


@dataclass
class BrokerStats:
    """Observability: what the detection layer saw."""

    detected: dict[str, int] = field(default_factory=dict)
    publications: int = 0
    detection_failures: int = 0

    def record(self, spec: DetectedSpec) -> None:
        key = f"{spec.family.value}/{spec.version.name}"
        self.detected[key] = self.detected.get(key, 0) + 1


def _family_tag(spec: DetectedSpec) -> str:
    """Short metric-label form of the spec family ("wse"/"wsn")."""
    return "wse" if spec.family is SpecFamily.WS_EVENTING else "wsn"


class WsMessenger:
    """The mediation broker."""

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        *,
        backbone: Optional[MessagingBackbone] = None,
        topic_namespace: Optional[TopicNamespace] = None,
        wse_versions: Optional[list[WseVersion]] = None,
        wsn_versions: Optional[list[WsnVersion]] = None,
        delivery: Optional[DeliveryPolicy] = None,
        delivery_seed: int = 0,
        qos: Optional[AdaptiveQosPolicy] = None,
        store: Optional["BrokerStore"] = None,
        batching: Optional[BatchingPolicy] = None,
    ) -> None:
        self.network = network
        self.address = address
        #: optional per-sink coalescing of same-EPR notifications
        self.batching = batching
        self.stats = BrokerStats()
        #: pre-bound front-door/fan-out counters (identity-keyed cache)
        self._bound_counters = BoundCounters()
        self.backbone = backbone or InMemoryBackbone()
        self.backbone.network = network
        #: optional event-sourced durable core (see repro.store); exactly-
        #: once outcomes need the delivery pipeline, so a store implies one
        self.store = store
        if store is not None and delivery is None:
            delivery = DeliveryPolicy()
        # adaptive QoS needs the reliable pipeline to act on (bounded queues,
        # pacing and shedding all live in the delivery manager)
        if qos is not None and delivery is None:
            delivery = DeliveryPolicy()
        # reliable delivery: a DeliveryPolicy turns the best-effort push into
        # the store-and-forward pipeline shared by every internal source
        if delivery is not None:
            self.message_boxes: Optional[MessageBoxRegistry] = MessageBoxRegistry(
                network, f"{address}/msgbox"
            )
            self.qos: Optional[AdaptiveQosController] = (
                AdaptiveQosController(network.clock, policy=qos)
                if qos is not None
                else None
            )
            self.delivery_manager: Optional[DeliveryManager] = DeliveryManager(
                network,
                policy=delivery,
                seed=delivery_seed,
                message_boxes=self.message_boxes,
                qos=self.qos,
            )
        else:
            self.message_boxes = None
            self.delivery_manager = None
            self.qos = None
        topics = topic_namespace or TopicNamespace()
        #: every internal service by (family, version tag), WSE versions
        #: first — the order publications fan out in
        self._services: dict[tuple[str, str], SubscriptionService] = {}
        # internal per-version implementations on hidden sub-addresses; the
        # manager EPRs they mint (``<sub-address>/subscriptions``) are handed
        # to clients verbatim, so Renew / Unsubscribe / GetStatus / Pull flow
        # to them directly, already in the right dialect.
        self.wse_sources: dict[WseVersion, EventSource] = {}
        for version in wse_versions if wse_versions is not None else list(WseVersion):
            tag = version.name.lower()
            self.wse_sources[version] = self._services["wse", tag] = EventSource(
                network,
                f"{address}/{tag}",
                version=version,
                topic_header=mediation.WSE_TOPIC_HEADER,
                delivery_manager=self.delivery_manager,
                batching=batching,
            )
        self.wsn_producers: dict[WsnVersion, NotificationProducer] = {}
        for version in wsn_versions if wsn_versions is not None else list(WsnVersion):
            tag = version.name.lower()
            self.wsn_producers[version] = self._services["wsn", tag] = BrokerProducer(
                network,
                f"{address}/{tag}",
                version=version,
                topic_namespace=topics,
                delivery_manager=self.delivery_manager,
                batching=batching,
            )
        # pull points for firewalled WSN 1.3 consumers
        self.pullpoint_factory = (
            PullPointFactory(network, f"{address}/pullpoints", version=WsnVersion.V1_3)
            if WsnVersion.V1_3 in self.wsn_producers
            else None
        )
        #: mesh hook (see repro.mesh.node): consulted on every publish, inside
        #: the publish span; returning True means the router took the message
        #: (forwarded it to its owning shard) and local fan-out is skipped
        self.publish_router: Optional[
            Callable[[XElem, Optional[str]], bool]
        ] = None
        # the front door
        self.endpoint = SoapEndpoint(network, address)
        self.endpoint.on_any(self._front_door)
        # bridging roles (lazy): the broker as subscriber/consumer upstream
        self._ingest_endpoints: list[SoapEndpoint] = []
        self.backbone.start(self._fan_out)
        if self.store is not None:
            self.store.attach(self)
        #: WS-BrokeredNotification: registered publishers and the demand that
        #: pauses and resumes them, served by the WSN 1.3 rows
        self.publishers = PublisherRegistrations(self)
        for producer in self.wsn_producers.values():
            producer.registrations = self.publishers

    def services(self):
        """``(family, version tag, service)`` of every internal source and
        producer: one surface — ``publish``, ``flush``, ``close``, the
        operation table — whichever family serves it."""
        for (family, tag), service in self._services.items():
            yield family, tag, service

    def service(self, family: str, tag: str) -> Optional[SubscriptionService]:
        """The service of one ``family`` / version ``tag`` (None: not enabled)."""
        return self._services.get((family, tag))

    def subscription_managers(self):
        """``(family, version tag, SubscriptionManager)`` of every service —
        how the store, the mesh and the probes reach subscriptions without
        knowing which family holds them."""
        for family, tag, service in self.services():
            yield family, tag, service.subscriptions

    def epr(self) -> EndpointReference:
        return EndpointReference(self.address)

    def close(self) -> None:
        self.endpoint.close()
        for ingest in self._ingest_endpoints:
            ingest.close()
        for service in self._services.values():
            service.close()
        if self.message_boxes is not None:
            self.message_boxes.close()

    # --- reliable-delivery pump -------------------------------------------------------

    def pump_deliveries(self) -> int:
        """Run delivery retries already due on the virtual clock."""
        if self.delivery_manager is None:
            return 0
        return self.delivery_manager.run_due()

    def run_deliveries_until_idle(self, *, deadline: Optional[float] = None) -> int:
        """Fast-forward the clock until the delivery pipeline drains."""
        if self.delivery_manager is None:
            return 0
        return self.delivery_manager.run_until_idle(deadline=deadline)

    # --- the front door -----------------------------------------------------------

    def _front_door(
        self, envelope: SoapEnvelope, headers: MessageHeaders
    ) -> Optional[str]:
        instr = self.network.instrumentation
        with instr.span("detect_spec") as span:
            try:
                spec = detect_spec(envelope)
            except SpecDetectionError as exc:
                self.stats.detection_failures += 1
                instr.count("broker.detection_failures")
                raise SoapFault(
                    FaultCode.SENDER, f"specification detection failed: {exc}"
                )
            family = _family_tag(spec)
            version = spec.version.name.lower()
            span.set("family", family)
            span.set("version", version)
            span.set("operation", spec.operation)
        self._bound_counters.inc(
            instr, 1, "broker.requests", "family", family, "version", version
        )
        self.stats.record(spec)
        if spec.operation == "Notify" and spec.family is SpecFamily.WS_NOTIFICATION:
            return self._publish_notify(envelope.body_element(), spec.version)
        store = self.store
        if store is None or spec.operation != "Subscribe":
            return self._route(envelope, headers, spec, (family, version))
        store.front_door = True  # the grants the store logs are the front door's
        try:
            return self._route(envelope, headers, spec, (family, version))
        finally:
            store.front_door = False

    def _route(
        self,
        envelope: SoapEnvelope,
        headers: MessageHeaders,
        spec: DetectedSpec,
        dialect: tuple[str, str],
    ) -> Optional[str]:
        if spec.operation == "CreatePullPoint":
            # Table 1: only WSN 1.3 defines the PullPoint interface, and the
            # reply speaks the request's dialect -- so no other one gets one
            factory = self.pullpoint_factory
            if factory is None or spec.version is not factory.version:
                raise SoapFault(
                    FaultCode.SENDER,
                    f"pull points require WSN 1.3, not {spec.describe()}",
                )
            return factory._handle_create(envelope, headers)
        implementation = self._services.get(dialect)
        if implementation is None:
            raise SoapFault(
                FaultCode.SENDER,
                f"{spec.describe()} is not enabled on this broker",
            )
        handler = implementation.handler_for("source", headers.action)
        if handler is None:
            # WSE 01/2004's manager rows are on the source port, so they
            # resolve above; for every other version, management flows to
            # the subscription-manager EPR minted at Subscribe time, not here.
            raise SoapFault(
                FaultCode.SENDER,
                f"operation {spec.operation!r} ({spec.describe()}) is not accepted "
                "at the broker front door; management operations go to the "
                "subscription-manager EPR",
            )
        return handler(envelope, headers)

    def _publish_notify(self, body: XElem, version: WsnVersion) -> None:
        """Publish each message of a Notify read off the wire, frozen in place."""
        for item in mediation.neutral_from_wsn_notify(
            body, version, instrumentation=self.network.instrumentation
        ):
            self.publish(item.payload, topic=item.topic)

    # --- publication & fan-out ------------------------------------------------------

    def publish(self, payload: XElem, *, topic: Optional[str] = None) -> None:
        """Publish a notification through the backbone to every consumer
        whose subscription matches — regardless of which spec they used."""
        instr = self.network.instrumentation
        self.stats.publications += 1
        if not instr.enabled:
            self._outbox_publish(payload, topic, instr)
            return
        self._bound_counters.inc(instr, 1, "broker.publications")
        # a mediated publish arrives inside a dispatch span that already
        # carries the origin's lineage; a locally-originated one mints here
        originating = instr.trace_context() is None
        with instr.span("broker.publish", mint=True, topic=topic or "") as span:
            # direct ledger write: mint=True guarantees span.lineage
            instr._ledger_record(
                span.lineage,
                "published" if originating else "mediated",
                broker=self.address,
                topic=topic or "",
            )
            self._outbox_publish(payload, topic, instr)

    def _outbox_publish(self, payload: XElem, topic: Optional[str], instr) -> None:
        """Transactional outbox, then router or backbone: the publish record
        (and the message id that stamps every delivery item) exists before
        any fan-out, and the publish is closed whatever the fan-out raised.
        Frozen at the door: the log, router and every service share it."""
        payload = freeze_once(payload, instr, self._bound_counters, "broker")
        store = self.store
        message_id = (
            store.record_publish(payload, topic, instr.trace_context())
            if store is not None
            else None
        )
        try:
            if self.publish_router is not None and self.publish_router(payload, topic):
                if store is not None:
                    store.record_routed(message_id)
                return
            self.backbone.publish(payload, topic)
        finally:
            if store is not None:
                store.end_publish(message_id)

    def _fan_out(self, payload: XElem, topic: Optional[str]) -> None:
        instr = self.network.instrumentation
        if not instr.enabled:
            self._fan_out_all(payload, topic)
            return
        with instr.span("broker.fan_out"):
            self._fan_out_all(payload, topic)

    def _fan_out_all(self, payload: XElem, topic: Optional[str]) -> None:
        instr = self.network.instrumentation
        skips_counter = (
            self._bound_counters.get(instr, "fanout.index_skips", "family", "broker")
            if instr.enabled
            else None
        )
        for service in self._services.values():
            if topic is None and service.requires_topic:
                continue  # <=1.2 subscriptions are all topic-filtered anyway
            if not service.subscriptions.records:
                # a topic space still validates the topic and refreshes GetCurrentMessage
                service.note_publication(payload, topic)
                if skips_counter is not None:
                    skips_counter.inc()
                continue
            service.publish(payload, topic=topic)

    def flush(self) -> None:
        """Flush wrapped-mode batches in the internal WSE sources and any
        pending per-sink Notify batches in the WSN producers."""
        for service in self._services.values():
            service.flush()

    # --- introspection ---------------------------------------------------------------

    def subscription_count(self) -> int:
        return sum(len(manager) for _, _, manager in self.subscription_managers())

    # --- bridging: the broker as a consumer of external producers ------------------------

    def bridge_from_wse_source(
        self,
        source: EndpointReference,
        *,
        version: WseVersion = WseVersion.V2004_08,
        filter: Optional[str] = None,
        filter_namespaces: Optional[dict[str, str]] = None,
    ):
        """Subscribe the broker to an external WS-Eventing source; everything
        it pushes is re-published to all broker subscribers (mediation from
        WSE publishers to consumers of either spec).  Returns the
        subscription and the ingest endpoint it delivers to."""

        def on_notification(envelope: SoapEnvelope, headers: MessageHeaders):
            item = mediation.neutral_from_wse_envelope(
                envelope, instrumentation=self.network.instrumentation
            )
            self.publish(item.payload, topic=item.topic)
            return None

        return self._bridge(
            on_notification,
            lambda ingest: WseSubscriber(self.network, version=version).subscribe(
                source,
                notify_to=ingest,
                mode=DeliveryMode.PUSH,
                filter=filter,
                filter_namespaces=filter_namespaces,
            ),
        )

    def bridge_from_wsn_producer(
        self,
        producer: EndpointReference,
        *,
        version: WsnVersion = WsnVersion.V1_3,
        topic: Optional[str] = None,
        topic_dialect: str = Namespaces.DIALECT_TOPIC_CONCRETE,
    ):
        """Subscribe the broker to an external WS-Notification producer (a
        demand-based publisher's registration is one, see
        :mod:`repro.messenger.registration`).  Returns the subscription and
        the ingest endpoint it delivers to."""

        def on_notify(envelope: SoapEnvelope, headers: MessageHeaders):
            body = envelope.body_element()
            if body.name == version.qname("Notify"):
                self._publish_notify(body, version)
            else:
                self.publish(body)
            return None

        return self._bridge(
            on_notify,
            lambda ingest: WsnSubscriber(self.network, version=version).subscribe(
                producer, ingest, topic=topic, topic_dialect=topic_dialect
            ),
        )

    def _bridge(self, on_message, subscribe):
        """An ingest endpoint serving ``on_message``, then ``subscribe(its
        EPR)`` upstream: ``(subscription, ingest)``.  A refused or unreachable
        subscribe takes the endpoint down again and surfaces."""
        # numbered by the network: a broker rebuilt here after a crash never
        # mounts an address a pre-crash upstream still pushes to
        ingest = SoapEndpoint(self.network, self.network.serial_address(f"{self.address}/ingest"))
        ingest.on_any(on_message)
        try:
            handle = subscribe(ingest.epr())
        except (NetworkError, SoapFault):
            ingest.close()
            raise
        self._ingest_endpoints.append(ingest)
        return handle, ingest
