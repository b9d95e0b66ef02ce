"""The WS-Notification NotificationProducer and its SubscriptionManager.

Subscriptions are genuine WS-Resources (:mod:`repro.wsrf`): their filter,
status and termination time are resource properties, their lifetime is
managed through WSRF in 1.0/1.2 (mandatorily) and 1.3 (optionally, alongside
the native Renew/Unsubscribe), and their demise triggers a WSRF
TerminationNotification to the consumer — which is how WSN <= 1.2 realizes
WS-Eventing's SubscriptionEnd (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.delivery.batcher import DeliveryBatcher
from repro.delivery.outcome import DeliveryFailure
from repro.delivery.policy import BatchingPolicy
from repro.delivery.task import DeliveryItem
from repro.fanout import Fanout
from repro.filters.base import AcceptAllFilter, AndFilter, Filter, FilterError
from repro.obs.instrument import BoundCounters
from repro.qos.adaptive import validate_supported
from repro.qos.properties import QosError, QosProfile
from repro.filters.content import MessageContentFilter, content_expression_of
from repro.filters.producer import ProducerPropertiesFilter, properties_document
from repro.filters.topics import TopicFilter, TopicNamespace, topic_expression_of
from repro.soap.envelope import SoapEnvelope, SoapVersion
from repro.soap.fault import FaultCode, SoapFault
from repro.transport.endpoint import SoapClient, SoapEndpoint
from repro.transport.network import SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders, apply_headers, fresh_message_id
from repro.wsn import messages
from repro.wsn.messages import NotificationMessage, WsnFilterSpec, WsnSubscribeRequest
from repro.wsn.templates import NotifyTemplateCache, sink_signature
from repro.wsn.versions import WsnVersion
from repro.wsrf.lifetime import set_termination_time
from repro.wsrf.properties import get_resource_property
from repro.wsrf.resource import RESOURCE_ID, ResourceRegistry, ResourceUnknownFault, WsResource
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.writer import frozen_namespace_order
from repro.xmlkit.names import Namespaces, QName
from repro.util.xstime import format_datetime, parse_datetime, parse_expires

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delivery.manager import DeliveryManager

# resource property names of a subscription resource
PROP_STATUS = QName(Namespaces.WSNT_13, "SubscriptionStatus")
PROP_TERMINATION = QName(Namespaces.WSRF_RL, "TerminationTime")
PROP_CONSUMER = QName(Namespaces.WSNT_13, "ConsumerReference")
PROP_FILTER = QName(Namespaces.WSNT_13, "FilterDescription")
PROP_TOPIC_SET = QName(Namespaces.WSTOP_13, "TopicSet")


@dataclass
class WsnSubscription:
    """Runtime state attached to a subscription resource."""

    resource: WsResource
    consumer: EndpointReference
    filter: Filter
    topic_expression: Optional[str]
    use_raw: bool
    paused: bool = False
    paused_queue: list[NotificationMessage] = field(default_factory=list)
    #: accepted QoS profile (1.3 SubscriptionPolicy / <=1.2 extension child)
    qos: Optional[QosProfile] = None

    @property
    def key(self) -> str:
        return self.resource.key


class NotificationProducer:
    """A WSN producer bound to the simulated network.

    The producer is distinct from the *publisher* (Fig. 2): publishers call
    :meth:`publish`; consumers never talk to publishers directly.
    """

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        *,
        version: WsnVersion = WsnVersion.V1_3,
        manager_address: Optional[str] = None,
        topic_namespace: Optional[TopicNamespace] = None,
        default_lifetime: Optional[float] = 3600.0,
        producer_properties: Optional[dict[str, str]] = None,
        enable_wsrf: Optional[bool] = None,
        delivery_manager: Optional["DeliveryManager"] = None,
        batching: Optional[BatchingPolicy] = None,
    ) -> None:
        self.network = network
        self.version = version
        #: pre-bound template hit/miss counters (see BoundCounters)
        self._bound_counters = BoundCounters()
        self.clock = network.clock
        self.default_lifetime = default_lifetime
        self.topics = topic_namespace or TopicNamespace()
        self._topic_index = self.topics.new_index()
        self.producer_properties = dict(producer_properties or {})
        #: (properties rendered, their frozen document): see _properties_document
        self._properties_rendered: tuple[Optional[dict], Optional[XElem]] = (None, None)
        # WSRF port: mandatory <= 1.2, optional (default on) in 1.3
        if enable_wsrf is None:
            self.wsrf_enabled = True
        else:
            self.wsrf_enabled = enable_wsrf or version.requires_wsrf
        #: when set, push delivery routes through the reliable store-and-
        #: forward pipeline instead of the immediate best-effort attempt
        self.delivery_manager = delivery_manager
        #: every failed outbound send, recorded (see repro.delivery.outcome)
        self.delivery_failures: list[DeliveryFailure] = []
        self.registry = ResourceRegistry(self.clock, key_prefix="wsn-sub")
        self._subscriptions: dict[str, WsnSubscription] = {}
        #: consumed by the next create_subscription (log replay pins the key)
        self._forced_sub_id: Optional[str] = None
        self._current_message: dict[str, XElem] = {}  # last message per topic
        self._client = SoapClient(
            network, wsa_version=version.wsa_version, soap_version=SoapVersion.V11
        )
        #: listeners for broker demand accounting: (event, subscription)
        self.subscription_listeners: list[Callable[[str, WsnSubscription], None]] = []
        self.endpoint = SoapEndpoint(network, address)
        self.endpoint.on_action(version.action("Subscribe"), self._handle_subscribe)
        self.endpoint.on_action(
            version.action("GetCurrentMessage"), self._handle_get_current_message
        )
        if self.wsrf_enabled:
            # the producer itself is a WS-Resource: its TopicSet and
            # producer properties are readable via GetResourceProperty
            self.endpoint.on_action(
                messages.wsrf_action("GetResourceProperty"),
                self._handle_producer_property,
            )
        self.manager_address = manager_address or f"{address}/subscriptions"
        self.manager_endpoint = SoapEndpoint(network, self.manager_address)
        self._register_manager_handlers(self.manager_endpoint)
        self.templates = NotifyTemplateCache(version, address, self.manager_address)
        #: match and settle are the shared pipeline's; rendering, the paused
        #: queue and the fault names below are what WS-Notification adds
        self._fanout = Fanout(
            network,
            family="wsn",
            version_tag=version.name.lower(),
            role="producer",
            address=address,
            index=self._topic_index,
            subscriptions=self._subscriptions,
            expired=lambda subscription, now: not subscription.resource.alive(now),
            sweep=self.registry.sweep_due,
            manager=delivery_manager,
            failures=self.delivery_failures,
        )
        #: per-sink wire coalescing (None = one request per notification);
        #: shares the delivery manager's scheduler so window expiry rides the
        #: same run_due/run_until_idle pump as retries
        self.batcher: Optional[DeliveryBatcher] = None
        if batching is not None:
            self.batcher = DeliveryBatcher(
                self.clock,
                batching,
                self._flush_batch,
                scheduler=delivery_manager.scheduler if delivery_manager else None,
                instrumentation=network.instrumentation,
                family="wsn",
            )

    @property
    def address(self) -> str:
        return self.endpoint.address

    def epr(self) -> EndpointReference:
        return EndpointReference(self.address)

    def wsdl(self) -> str:
        """This producer's self-description as a WSDL 1.1 document."""
        from repro.wsdl.generator import wsdl_for_wsn_producer

        return wsdl_for_wsn_producer(
            self.version, address=self.address, include_wsrf=self.wsrf_enabled
        ).to_xml()

    def close(self) -> None:
        self.endpoint.close()
        self.manager_endpoint.close()

    # --- subscribe -----------------------------------------------------------

    def _handle_subscribe(self, envelope: SoapEnvelope, headers: MessageHeaders):
        request = messages.parse_subscribe(envelope.body_element(), self.version)
        subscription = self.create_subscription(request)
        termination = subscription.resource.termination_time
        body = messages.build_subscribe_response(
            self.version,
            manager_address=self.manager_address,
            sub_id=subscription.key,
            current_time_text=format_datetime(self.clock.now()),
            termination_time_text=(
                format_datetime(termination) if termination is not None else None
            ),
        )
        return self._reply(headers, self.version.action("SubscribeResponse"), body)

    def force_next_subscription_id(self, sub_id: str) -> None:
        """Pin the key the next Subscribe mints (log replay)."""
        self._forced_sub_id = sub_id

    def forget_subscription(self, sub_id: str) -> None:
        """Drop a subscription without a TerminationNotification (log
        replay: the pre-crash removal already announced itself).  The
        "destroyed" listeners still fire so derived state — topic index,
        mesh demand — stays consistent."""
        if self.registry.find(sub_id) is not None:
            self.registry.destroy(sub_id, reason="unsubscribed")
        else:
            self._subscriptions.pop(sub_id, None)
            self._topic_index.discard(sub_id)
            self.templates.note_removed(sub_id)

    def create_subscription(self, request: WsnSubscribeRequest) -> WsnSubscription:
        """Core Subscribe logic (also called in-process by the broker)."""
        if self.version.requires_topic and request.filter.topic_expression is None:
            raise SoapFault(
                FaultCode.SENDER,
                f"WS-BaseNotification {self.version.name} requires a TopicExpression",
                subcode=self.version.qname("TopicExpressionRequired"),
            )
        # consume the forced key up front so a faulting request cannot leak
        # it into an unrelated later subscription
        forced_sub_id, self._forced_sub_id = self._forced_sub_id, None
        self._accept_qos(request.qos, request.consumer)
        subscription_filter = self._build_filter(request.filter)
        expiry = self._grant_termination(request.initial_termination_text)
        resource = self.registry.create(key=forced_sub_id)
        resource.termination_time = expiry
        self.registry.note_termination(resource)
        subscription = WsnSubscription(
            resource=resource,
            consumer=request.consumer,
            filter=subscription_filter,
            topic_expression=request.filter.topic_expression,
            use_raw=request.use_raw,
            qos=request.qos,
        )
        self._subscriptions[resource.key] = subscription
        self._topic_index.add(
            resource.key,
            topic_expression_of(subscription_filter),
            content_expression_of(subscription_filter),
        )
        self._set_resource_properties(subscription)
        resource.termination_listeners.append(self._on_subscription_terminated)
        self._notify_listeners("created", subscription)
        return subscription

    def _accept_qos(
        self, qos: Optional[QosProfile], consumer: EndpointReference
    ) -> None:
        """Vet a requested QoS profile, registering it with the adaptive
        controller when the delivery pipeline carries one.  A profile the
        producer cannot honour faults the Subscribe (1.3's
        UnsupportedPolicyRequestFault) rather than silently degrading."""
        if qos is None:
            return
        controller = (
            self.delivery_manager.qos if self.delivery_manager is not None else None
        )
        try:
            if controller is not None:
                controller.register_consumer(consumer.address, qos)
            else:
                validate_supported(qos)
        except QosError as exc:
            raise SoapFault(
                FaultCode.SENDER,
                f"unsupported QoS policy: {exc}",
                subcode=self.version.qname("UnsupportedPolicyRequestFault"),
            ) from exc

    def _priority_of(self, subscription: WsnSubscription) -> int:
        return subscription.qos.get("Priority") if subscription.qos is not None else 0

    def _set_resource_properties(self, subscription: WsnSubscription) -> None:
        resource = subscription.resource
        resource.set_text_property(
            PROP_STATUS, "Paused" if subscription.paused else "Active"
        )
        termination = resource.termination_time
        resource.set_text_property(
            PROP_TERMINATION,
            format_datetime(termination) if termination is not None else "",
        )
        resource.set_property(
            PROP_CONSUMER,
            subscription.consumer.to_element(self.version.wsa_version, PROP_CONSUMER),
        )
        resource.set_text_property(PROP_FILTER, subscription.filter.describe())

    def _build_filter(self, spec: WsnFilterSpec) -> Filter:
        parts: list[Filter] = []
        if spec.topic_expression is not None:
            try:
                parts.append(TopicFilter.parse(spec.topic_expression, spec.topic_dialect))
            except FilterError as exc:
                raise SoapFault(
                    FaultCode.SENDER,
                    str(exc),
                    subcode=self.version.qname("InvalidTopicExpressionFault"),
                ) from exc
        if spec.producer_properties is not None:
            try:
                parts.append(
                    ProducerPropertiesFilter(spec.producer_properties, spec.namespaces)
                )
            except FilterError as exc:
                raise SoapFault(
                    FaultCode.SENDER,
                    str(exc),
                    subcode=self.version.qname("InvalidProducerPropertiesExpressionFault"),
                ) from exc
        if spec.message_content is not None:
            if spec.message_content_dialect != Namespaces.DIALECT_XPATH10:
                raise SoapFault(
                    FaultCode.SENDER,
                    f"unsupported content dialect {spec.message_content_dialect!r}",
                    subcode=self.version.qname("InvalidMessageContentExpressionFault"),
                )
            try:
                parts.append(MessageContentFilter(spec.message_content, spec.namespaces))
            except FilterError as exc:
                raise SoapFault(
                    FaultCode.SENDER,
                    str(exc),
                    subcode=self.version.qname("InvalidMessageContentExpressionFault"),
                ) from exc
        if not parts:
            return AcceptAllFilter()
        if len(parts) == 1:
            return parts[0]
        return AndFilter(parts)

    def _grant_termination(self, text: Optional[str]) -> Optional[float]:
        now = self.clock.now()
        if text is None:
            return None if self.default_lifetime is None else now + self.default_lifetime
        fault = SoapFault(
            FaultCode.SENDER,
            f"unacceptable initial termination time {text!r}",
            subcode=self.version.qname("UnacceptableInitialTerminationTimeFault"),
        )
        if text.startswith("P") or text.startswith("-P"):
            if not self.version.supports_duration_expiry:
                raise SoapFault(
                    FaultCode.SENDER,
                    f"WS-BaseNotification {self.version.name} accepts only absolute "
                    "termination times (durations arrived in 1.3)",
                    subcode=self.version.qname("UnacceptableInitialTerminationTimeFault"),
                )
            try:
                requested = parse_expires(text, now)
            except ValueError:
                raise fault from None
        else:
            try:
                requested = parse_datetime(text)
            except ValueError:
                raise fault from None
        if requested is not None and requested <= now:
            raise fault
        return requested

    # --- manager operations ---------------------------------------------------------

    def _register_manager_handlers(self, endpoint: SoapEndpoint) -> None:
        version = self.version
        if version.has_native_unsubscribe:
            endpoint.on_action(version.action("Renew"), self._handle_renew)
            endpoint.on_action(version.action("Unsubscribe"), self._handle_unsubscribe)
        endpoint.on_action(version.action("PauseSubscription"), self._handle_pause)
        endpoint.on_action(version.action("ResumeSubscription"), self._handle_resume)
        if self.wsrf_enabled:
            endpoint.on_action(
                messages.wsrf_action("GetResourceProperty"), self._handle_get_property
            )
            endpoint.on_action(
                messages.wsrf_lifetime_action("SetTerminationTime"),
                self._handle_set_termination_time,
            )
            endpoint.on_action(
                messages.wsrf_lifetime_action("Destroy"), self._handle_destroy
            )

    def _subscription_for(self, headers: MessageHeaders) -> WsnSubscription:
        sub_id = messages.subscription_id_from_headers(headers.echoed)
        self.registry.get(sub_id)  # liveness check; faults ResourceUnknown
        subscription = self._subscriptions.get(sub_id)
        if subscription is None:
            raise ResourceUnknownFault(sub_id)
        return subscription

    def _handle_renew(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(headers)
        term_elem = envelope.body_element().find(self.version.qname("TerminationTime"))
        text = term_elem.full_text().strip() if term_elem is not None else None
        subscription.resource.termination_time = self._grant_termination(text)
        self.registry.note_termination(subscription.resource)
        self._set_resource_properties(subscription)
        self._notify_listeners("renewed", subscription)
        termination = subscription.resource.termination_time
        body = messages.build_renew_response(
            self.version,
            format_datetime(termination) if termination is not None else "",
            format_datetime(self.clock.now()),
        )
        return self._reply(headers, self.version.action("RenewResponse"), body)

    def _handle_unsubscribe(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(headers)
        self.registry.destroy(subscription.key, reason="unsubscribed")
        body = XElem(self.version.qname("UnsubscribeResponse"))
        return self._reply(headers, self.version.action("UnsubscribeResponse"), body)

    def _handle_pause(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(headers)
        subscription.paused = True
        self._set_resource_properties(subscription)
        self._notify_listeners("paused", subscription)
        body = XElem(self.version.qname("PauseSubscriptionResponse"))
        return self._reply(headers, self.version.action("PauseSubscriptionResponse"), body)

    def _handle_resume(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(headers)
        subscription.paused = False
        self._set_resource_properties(subscription)
        backlog, subscription.paused_queue = subscription.paused_queue, []
        if backlog:
            self._deliver(subscription, backlog)
        self._notify_listeners("resumed", subscription)
        body = XElem(self.version.qname("ResumeSubscriptionResponse"))
        return self._reply(headers, self.version.action("ResumeSubscriptionResponse"), body)

    def _handle_get_property(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(headers)
        name = messages.parse_get_resource_property(envelope.body_element())
        values = get_resource_property(subscription.resource, name)
        body = XElem(QName(Namespaces.WSRF_RP, "GetResourcePropertyResponse"))
        for value in values:
            body.append(value.copy())
        return self._reply(
            headers, messages.wsrf_action("GetResourcePropertyResponse"), body
        )

    def _handle_set_termination_time(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(headers)
        request = envelope.body_element()
        requested = request.find(QName(Namespaces.WSRF_RL, "RequestedTerminationTime"))
        if requested is None or not requested.full_text().strip():
            new_time: Optional[float] = None
        else:
            new_time = parse_datetime(requested.full_text().strip())
        set_termination_time(self.registry, subscription.resource, new_time)
        self._set_resource_properties(subscription)
        self._notify_listeners("renewed", subscription)
        body = XElem(QName(Namespaces.WSRF_RL, "SetTerminationTimeResponse"))
        body.append(
            text_element(
                QName(Namespaces.WSRF_RL, "NewTerminationTime"),
                format_datetime(new_time) if new_time is not None else "",
            )
        )
        return self._reply(
            headers, messages.wsrf_lifetime_action("SetTerminationTimeResponse"), body
        )

    def _handle_destroy(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(headers)
        self.registry.destroy(subscription.key, reason="destroyed")
        body = XElem(QName(Namespaces.WSRF_RL, "DestroyResponse"))
        return self._reply(headers, messages.wsrf_lifetime_action("DestroyResponse"), body)

    def topic_set_document(self) -> XElem:
        """The producer's advertised topic space (WS-Topics TopicSet)."""
        document = XElem(PROP_TOPIC_SET)
        for path in self.topics.all_paths():
            document.append(
                text_element(QName(Namespaces.WSTOP_13, "Topic"), path)
            )
        return document

    def _handle_producer_property(self, envelope: SoapEnvelope, headers: MessageHeaders):
        name = messages.parse_get_resource_property(envelope.body_element())
        body = XElem(QName(Namespaces.WSRF_RP, "GetResourcePropertyResponse"))
        if name == PROP_TOPIC_SET:
            body.append(self.topic_set_document())
        elif name.local == "ProducerProperties":
            body.append(self._properties_document())
        else:
            from repro.wsrf.properties import InvalidResourcePropertyFault

            raise InvalidResourcePropertyFault(name)
        return self._reply(
            headers, messages.wsrf_action("GetResourcePropertyResponse"), body
        )

    def _properties_document(self) -> XElem:
        """What ProducerProperties filters see: frozen, so a fan-out evaluates
        each expression on it once; rebuilt only when the properties change."""
        rendered, document = self._properties_rendered
        if rendered != self.producer_properties:
            rendered = dict(self.producer_properties)
            document = properties_document(rendered).freeze()
            self._properties_rendered = (rendered, document)
        return document

    def _handle_get_current_message(self, envelope: SoapEnvelope, headers: MessageHeaders):
        topic, _dialect = messages.parse_get_current_message(
            envelope.body_element(), self.version
        )
        payload = self._current_message.get(topic)
        if payload is None:
            raise SoapFault(
                FaultCode.SENDER,
                f"no current message on topic {topic!r}",
                subcode=self.version.qname("NoCurrentMessageOnTopicFault"),
            )
        body = XElem(self.version.qname("GetCurrentMessageResponse"))
        body.append(payload if payload.frozen else payload.copy())
        return self._reply(
            headers, self.version.action("GetCurrentMessageResponse"), body
        )

    def _reply(self, request_headers: MessageHeaders, action: str, body: XElem) -> SoapEnvelope:
        reply = SoapEnvelope(SoapVersion.V11)
        headers = MessageHeaders.reply(request_headers, action, self.version.wsa_version)
        apply_headers(reply, headers, self.version.wsa_version)
        reply.add_body(body)
        return reply

    # --- publication --------------------------------------------------------------------

    def publish(self, payload: XElem, *, topic: Optional[str] = None) -> int:
        """Publish one event on an (optional in 1.3) topic.

        Returns the number of subscriptions the event matched (including
        paused ones, whose copies are queued for resume).
        """
        if topic is None and self.version.requires_topic:
            raise SoapFault(
                FaultCode.SENDER,
                f"WS-BaseNotification {self.version.name} publications require a topic",
            )
        return self._fanout.publish(
            self._match_and_deliver, payload, topic, topic=topic or ""
        )

    def _match_and_deliver(self, payload: XElem, topic: Optional[str]) -> int:
        if topic is not None:
            try:
                self.topics.validate_publication(topic)
            except FilterError as exc:
                raise SoapFault(FaultCode.SENDER, str(exc)) from exc
        # one frozen payload instance is shared by every match this publish
        frozen = self._fanout.freeze(payload)
        if topic is not None:
            self._current_message[topic] = frozen
        instr = self.network.instrumentation
        lineage = instr.trace_context()
        matched = 0
        for subscription in self._fanout.match(
            frozen, topic, self.producer_properties, self._properties_document()
        ):
            matched += 1
            message = NotificationMessage(
                frozen,
                topic=topic,
                subscription_reference=self.registry.epr_for(
                    subscription.resource, self.manager_address
                ),
                producer_reference=self.epr(),
            )
            if subscription.paused:
                subscription.paused_queue.append(message)
                if lineage is not None:
                    # informational: the paused queue holds bare messages,
                    # so per-item lineage ends here (no obligation)
                    instr.lineage_event(
                        lineage.lineage_id, "queued",
                        subscription=subscription.key, mode="paused",
                    )
            elif self.batcher is not None and not subscription.use_raw:
                # same sink + same shape coalesce into one wire request; the
                # group key mirrors the byte-template cache key so every
                # flushed batch renders through a single compiled envelope
                self.batcher.add(
                    (
                        sink_signature(subscription.consumer),
                        topic,
                        frozen_namespace_order(frozen),
                    ),
                    (subscription, message, lineage),
                    priority=self._priority_of(subscription),
                )
            else:
                self._flush_batch(None, [(subscription, message, lineage)])
        if self.batcher is not None:
            self.batcher.flush_publish()
        return matched

    def note_publication(self, payload: XElem, topic: Optional[str]) -> None:
        """Record a publication without fanning out — the broker's
        zero-subscription fast path.  Preserves the observable side effects
        of :meth:`publish`: topic validation (and namespace growth) and the
        GetCurrentMessage cache."""
        if topic is None:
            return
        try:
            self.topics.validate_publication(topic)
        except FilterError as exc:
            raise SoapFault(FaultCode.SENDER, str(exc)) from exc
        self._current_message[topic] = payload if payload.frozen else payload.copy()

    def has_subscriptions(self) -> bool:
        """Whether any subscription (live or not-yet-swept) exists — O(1)."""
        return bool(self._subscriptions)

    def _deliver(
        self, subscription: WsnSubscription, notifications: list[NotificationMessage]
    ) -> None:
        """One subscriber's notifications (a resumed backlog) as one request
        — a one-subscription batch."""
        lineage = self.network.instrumentation.trace_context()
        self._flush_batch(None, [(subscription, item, lineage) for item in notifications])

    def flush_batches(self) -> None:
        """Force out every partially-filled batch (broker ``flush()``)."""
        if self.batcher is not None:
            self.batcher.flush_all()

    def _flush_batch(
        self,
        key,
        entries: list[tuple[WsnSubscription, NotificationMessage, object]],
    ) -> None:
        """Deliver one batch — same sink, same shape, one settlement: the
        batcher's coalesced group (``key`` is its group key), or the
        unbatched case of a single subscription (``key`` is None).  Every
        entry is its own item, with its own lineage; a failed direct attempt
        ends every subscription in the batch, just as per-subscriber pushes
        would have."""
        first = entries[0][0]
        sink = first.consumer.address
        if key is None:
            attrs = {"raw": "true" if first.use_raw else "false"}
            describe = f"notify {first.key}"
            priority = self._priority_of(first)
        else:
            attrs = {"raw": "false", "batch": str(len(entries))}
            describe = f"notify batch[{len(entries)}] {sink}"
            priority = max(self._priority_of(sub) for sub, _, _ in entries)
        self._fanout.settle(
            sink,
            self._send_raw if first.use_raw else self._send_wrapped,
            (first.consumer, [(sub.key, item) for sub, item, _ in entries]),
            [
                DeliveryItem(
                    item.payload if item.payload.frozen else item.payload.copy(),
                    item.topic,
                    lineage=lineage,
                )
                for _, item, lineage in entries
            ],
            describe=describe,
            priority=priority,
            on_failed=self._end_after_failure,
            **attrs,
        )

    def _end_after_failure(self, exc: Exception, consumer, entries) -> None:
        """A direct attempt failed: destroy the subscriptions it carried
        (soft state would collect them anyway; this mirrors WS-Eventing's
        DeliveryFailure ending)."""
        for sub_key in dict.fromkeys(sub_key for sub_key, _ in entries):
            try:
                self.registry.destroy(sub_key, reason="delivery failure")
            except ResourceUnknownFault as destroy_exc:
                # already destroyed (e.g. swept mid-delivery); record the skip
                self.network.instrumentation.count(
                    "obs.swallowed_errors_total",
                    site="wsn.producer.destroy_after_failure",
                    kind=type(destroy_exc).__name__,
                )

    def _send_notice(self, target: EndpointReference, action: str, body: XElem) -> None:
        self._client.call(target, action, [body], expect_reply=False)

    def _send_raw(
        self,
        consumer: EndpointReference,
        entries: list[tuple[str, NotificationMessage]],
    ) -> None:
        """Raw delivery: each payload is the body of its own message."""
        action = self.version.action("Notify")
        for _, item in entries:
            self._send_notice(
                consumer, action, item.payload if item.payload.frozen else item.payload.copy()
            )

    def _send_wrapped(
        self,
        consumer: EndpointReference,
        entries: list[tuple[str, NotificationMessage]],
    ) -> None:
        """One wrapped Notify request carrying ``entries`` (sub key, message).

        Fast path: render through the envelope byte-template cache — no tree
        build, no tree walk.  Fallback (unfrozen payload, mixed shapes,
        sentinel collision, envelope filter): the original ``build_notify``
        + ``call`` path, byte-identical output.
        """
        action = self.version.action("Notify")
        text = self._render_notify(consumer, entries)
        if text is not None:
            instr = self.network.instrumentation
            context = instr.trace_context() if instr.enabled else None
            self._client.send_rendered(
                consumer.address,
                action,
                text,
                lineage=None if context is None else context.wire_text(),
            )
            return
        self._send_notice(
            consumer, action, messages.build_notify(self.version, [item for _, item in entries])
        )

    def _render_notify(
        self,
        consumer: EndpointReference,
        entries: list[tuple[str, NotificationMessage]],
    ) -> Optional[str]:
        """Rendered envelope text for ``entries``, or ``None`` for the tree
        path.  Runs at attempt time, so the message id is minted exactly
        where the tree path would mint it.  Lineage never appears here:
        trace context rides the HTTP head (see ``_send_wrapped``), so the
        rendered bytes match the uninstrumented envelope exactly."""
        if self._client.envelope_filter is not None:
            return None
        instr = self.network.instrumentation
        first = entries[0][1]
        topic = first.topic
        dialect = first.topic_dialect
        payload0 = first.payload
        if not payload0.frozen:
            return None
        shape = frozen_namespace_order(payload0)
        for sub_key, item in entries:
            if (
                item.topic != topic
                or item.topic_dialect != dialect
                or not item.payload.frozen
                or (item.payload is not payload0
                    and frozen_namespace_order(item.payload) != shape)
                or not self._references_match(sub_key, item)
            ):
                if instr.enabled:
                    self._bound_counters.get(
                        instr, "template_misses", "fanout.template_misses",
                        family="wsn",
                    ).inc()
                return None
        compiled, outcome = self.templates.lookup(
            consumer,
            topic,
            dialect,
            payload0,
            sub_keys=[sub_key for sub_key, _ in entries],
        )
        if instr.enabled:
            if outcome == "hit":
                self._bound_counters.get(
                    instr, "template_hits", "fanout.template_hits", family="wsn"
                ).inc()
            else:
                self._bound_counters.get(
                    instr, "template_misses", "fanout.template_misses",
                    family="wsn",
                ).inc()
            flight = instr.flight
            if flight.enabled:
                flight.record(
                    "serialize",
                    family="wsn",
                    sink=consumer.address,
                    outcome=outcome,
                    batch=len(entries),
                )
        if compiled is None:
            return None
        message_id = fresh_message_id()
        phases = instr.phases
        if phases is None:
            return compiled.render(
                message_id,
                [(sub_key, item.payload) for sub_key, item in entries],
            )
        timer = phases.begin()
        text = compiled.render(
            message_id,
            [(sub_key, item.payload) for sub_key, item in entries],
        )
        phases.end("serialize", timer)
        return text

    def _references_match(self, sub_key: str, item: NotificationMessage) -> bool:
        """Whether the message's EPRs are exactly the shapes the template
        bakes in (our own ``epr_for`` + producer EPR); anything else — e.g. a
        re-published message carrying foreign references — takes the tree
        path rather than silently rewriting its references."""
        sref = item.subscription_reference
        pref = item.producer_reference
        if sref is None or pref is None:
            return False
        if pref.address != self.address or pref.reference_parameters or pref.reference_properties:
            return False
        if sref.address != self.manager_address or sref.reference_properties:
            return False
        if len(sref.reference_parameters) != 1:
            return False
        param = sref.reference_parameters[0]
        return (
            param.name == RESOURCE_ID
            and not param.attrs
            and len(param.children) == 1
            and param.children[0] == sub_key
        )

    # --- termination -----------------------------------------------------------------------

    def _on_subscription_terminated(self, resource: WsResource, reason: str) -> None:
        subscription = self._subscriptions.pop(resource.key, None)
        self._topic_index.discard(resource.key)
        self.templates.note_removed(resource.key)
        if subscription is None:
            return
        self._notify_listeners("destroyed", subscription)
        if reason == "unsubscribed":
            return  # orderly removal, no termination notice
        if not self.wsrf_enabled:
            # TerminationNotification is a WSRF resource-lifetime feature:
            # mandatory <= 1.2, available in 1.3 exactly when WSRF is mounted
            return
        # control message: under a delivery manager retried like any
        # delivery, but content-free so it is never parked in a message box
        self._fanout.settle(
            subscription.consumer.address,
            self._send_notice,
            (
                subscription.consumer,
                messages.wsrf_lifetime_action("TerminationNotification"),
                messages.build_termination_notification(reason),
            ),
            stage="termination_notification",
            describe=f"termination_notification {subscription.key}",
        )

    def sweep(self) -> None:
        """Expire overdue subscriptions (fires termination notifications)."""
        self.registry.sweep()

    def _notify_listeners(self, event: str, subscription: WsnSubscription) -> None:
        for listener in self.subscription_listeners:
            listener(event, subscription)

    # --- introspection -----------------------------------------------------------------

    def live_subscriptions(self) -> list[WsnSubscription]:
        now = self.clock.now()
        return [
            s for s in self._subscriptions.values() if s.resource.alive(now)
        ]
