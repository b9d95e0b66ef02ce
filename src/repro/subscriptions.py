"""The one subscription manager all three specification families run on.

The paper's Table 2 lines the control operations of WS-Eventing and
WS-Notification up almost one-to-one, and section VI predicts
WS-EventNotification as their union.  What the families share is here, once:
one :class:`Subscription` record, one lease table (the WS-Resource registry —
a subscription *is* a WS-Resource: its key is the subscription id, its
termination time the granted expiry) and one lifecycle::

    created -> active <-> paused -> expired | unsubscribed | ended

Every family's Subscribe becomes one :class:`Grant`, paper §VII's internal
model: the one :meth:`SubscriptionService.grant` makes it, the store logs it
as made, and a restart hands it back with its id and expiry pinned.
:class:`SubscriptionManager` owns id minting, ``grant_expiry``, creation in
the one safe order, liveness lookup, renew, pause / resume, the bounded
parked queue and removal; it reports every transition to ``listeners`` as
``(event, subscription, detail)`` and fails with one :class:`SubscriptionError`.
A family keeps what Table 2 says differs: its Subscribe and the rows only it
has, where a request carries the subscription id, what a lease reply holds,
how its notifications are written (its :class:`Sending` rows), a fault table
(error kind x operation -> fault subcode) and an end-notice table (removal
reason -> SubscriptionEnd / TerminationNotification), handed in as
``announce``.  :class:`SubscriptionService` is the frame those rows hang on:
the two endpoints, the manager and the fan-out pipeline, wired the one way
all three families wire them, the one route that pushes, parks or holds
every match, the data plane every notification leaves through (push,
wrapped send, resume, one wire attempt, the failure row) and the rows
answered once for every family (Renew, GetStatus, Unsubscribe, Pause /
Resume, Destroy, Pull, GetCurrentMessage) — and Table 2 itself is data: an
:class:`OperationTable` per (family, version), from which the frame mounts
the handlers, answers the broker's front door and renders the WSDL.
DESIGN.md, "The subscription manager", has the operation-by-operation map.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, NamedTuple, Optional

from repro.filters.base import AcceptAllFilter, AndFilter, Filter, FilterContext, FilterError
from repro.filters.content import MessageContentFilter, content_expression_of
from repro.filters.producer import ProducerPropertiesFilter, properties_document
from repro.filters.topics import (
    TopicFilter,
    TopicNamespace,
    TopicPath,
    TopicSubscriptionIndex,
    index_decides,
    topic_expression_of,
)
from repro.qos.adaptive import validate_supported
from repro.qos.properties import DiscardPolicy, QosError, QosProfile
from repro.soap.envelope import SoapEnvelope, SoapVersion
from repro.soap.fault import FaultCode, SoapFault
from repro.render import Entry, Renderer, reference_shape, reply_text
from repro.transport.clock import ClockScheduler
from repro.transport.endpoint import SoapClient, SoapEndpoint
from repro.transport.http import request_head
from repro.transport.network import PUBLIC_ZONE, SimulatedNetwork
from repro.util.xstime import format_datetime, parse_expires
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders
from repro.wsrf.resource import ResourceRegistry, ResourceUnknownFault, WsResource
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import Namespaces, QName
from repro.xmlkit.writer import frozen_namespace_order

# repro.delivery and repro.fanout are imported where they are used: the
# delivery package's message boxes import repro.wse, which imports this module
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delivery.batcher import DeliveryBatcher
    from repro.delivery.manager import DeliveryManager
    from repro.delivery.outcome import DeliveryFailure
    from repro.delivery.policy import BatchingPolicy
    from repro.delivery.task import DeliveryItem

#: how many items a wrapped queue holds before it leaves, without a
#: ``BatchingPolicy`` to say otherwise
WRAPPED_BATCH = 10


class DeliveryMode(Enum):
    """How notifications reach the sink."""

    PUSH = "Push"
    PULL = "Pull"
    WRAPPED = "Wrap"

    def uri(self, version) -> str:
        return f"{version.namespace}/DeliveryModes/{self.value}"

    @classmethod
    def from_uri(cls, uri: str, version) -> "DeliveryMode":
        for mode in cls:
            if mode.uri(version) == uri:
                return mode
        raise ValueError(f"unknown delivery mode URI: {uri!r}")


class SubscriptionError(Exception):
    """A control operation the core refuses; ``kind`` is ``invalid_topic``,
    ``invalid_properties``, ``invalid_content``, ``invalid_expiry``,
    ``unsupported_qos``, ``unknown_subscription`` or ``not_pull_mode``."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def build_filter(
    *,
    topic: Optional[str] = None,
    topic_dialect: Optional[str] = None,
    properties: Optional[str] = None,
    properties_namespaces: Optional[dict[str, str]] = None,
    content: Optional[str] = None,
    content_namespaces: Optional[dict[str, str]] = None,
    content_dialect: Optional[str] = None,
) -> Filter:
    """The conjunction of the (up to three) filter parts a Subscribe carries:
    WS-Notification's TopicExpression, ProducerProperties and MessageContent;
    WS-Eventing's Filter is the last alone.  A part that cannot be compiled
    is refused now, not at the first publication."""
    parts: list[Filter] = []
    try:
        kind = "invalid_topic"
        if topic is not None:
            parts.append(TopicFilter.parse(topic, topic_dialect))
        kind = "invalid_properties"
        if properties is not None:
            parts.append(ProducerPropertiesFilter(properties, properties_namespaces))
        kind = "invalid_content"
        if content is not None:
            if (content_dialect or Namespaces.DIALECT_XPATH10) != Namespaces.DIALECT_XPATH10:
                raise FilterError(f"unsupported content dialect {content_dialect!r}")
            parts.append(MessageContentFilter(content, content_namespaces))
    except FilterError as exc:
        raise SubscriptionError(kind, str(exc)) from exc
    if not parts:
        return AcceptAllFilter()
    return parts[0] if len(parts) == 1 else AndFilter(parts)


@dataclass(frozen=True)
class Grant:
    """A subscription as granted, whichever family asked for it.  Read off
    the wire it has no ``sub_id`` and no ``expires`` yet; logged, it has both."""

    consumer: Optional[EndpointReference]  # NotifyTo / ConsumerReference; None: pull
    filter_parts: Mapping[str, Any]  # build_filter's arguments: the parts asked for
    expires: Optional[float] = None  # the granted *absolute* expiry (None = never)
    qos: Optional[QosProfile] = None  # the accepted profile
    mode: DeliveryMode = DeliveryMode.PUSH
    end_to: Optional[EndpointReference] = None
    use_raw: bool = False
    topic_expression: Optional[str] = None
    sub_id: Optional[str] = None


@dataclass(eq=False)
class Subscription(WsResource):
    """One subscription, whichever family granted it."""

    #: where notifications go (NotifyTo / ConsumerReference); None in pull mode
    consumer: Optional[EndpointReference] = None
    filter: Filter = field(default_factory=AcceptAllFilter)
    end_to: Optional[EndpointReference] = None
    #: the accepted QoS profile, and the Priority it carries
    qos: Optional[QosProfile] = None
    priority: int = 0
    paused: bool = False
    #: the one parked queue, of bare items: pull backlog, wrapped batch or
    #: paused copies
    queue: list[DeliveryItem] = field(default_factory=list)
    mode: DeliveryMode = DeliveryMode.PUSH
    use_raw: bool = False
    topic_expression: Optional[str] = None
    #: ``(action, framed request head)`` of a push to the consumer: validated
    #: and framed at the first one, kept while the subscription lives
    head: Optional[tuple] = None


class SubscriptionManager(ResourceRegistry):
    """The lease table of one producer / event source, and every operation
    on it that does not depend on the wire format."""

    def __init__(
        self,
        network: SimulatedNetwork,
        *,
        family: str,
        key_prefix: str,
        default_lifetime: Optional[float],
        max_lifetime: Optional[float] = None,
        durations: bool = True,
        delivery_manager: Optional["DeliveryManager"] = None,
        announce: Callable[[Subscription, str, str], None],
    ) -> None:
        super().__init__(network.clock, key_prefix)
        self.network = network
        self.family = family
        self.default_lifetime = default_lifetime
        self.max_lifetime = max_lifetime
        #: whether an expiry may be a duration (WS-BaseNotification <= 1.2: no)
        self.durations = durations
        self.delivery_manager = delivery_manager
        #: the family's end-notice table: ``announce(subscription, reason,
        #: detail)`` runs last on every removal
        self.announce = announce
        #: key -> record, the table itself: the fan-out's candidate lookup, and
        #: empty exactly when there is no subscription, swept or not
        self.records: dict[str, Subscription] = self._resources
        self.index = TopicSubscriptionIndex()
        #: ``(event, subscription, detail)`` with events created (grant, as
        #: made) | renewed | paused | resumed | pulled (count) | removed (reason)
        self.listeners: list[Callable[[str, Subscription, dict], None]] = []
        #: True during log replay, which sweeps nothing: a lapsed lease waits
        #: for the first sweep after it (see repro.store.recovery)
        self.restoring = False

    def fire(self, event: str, subscription: Subscription, **detail) -> None:
        for listener in self.listeners:
            listener(event, subscription, detail)

    # --- create ----------------------------------------------------------------------

    def grant_expiry(self, text: Optional[str]) -> Optional[float]:
        """The absolute expiry granted for a requested one (None = never)."""
        now = self.clock.now()
        if text is None:
            return None if self.default_lifetime is None else now + self.default_lifetime
        if not self.durations and text.lstrip("-").startswith("P"):
            raise SubscriptionError(
                "invalid_expiry",
                f"unacceptable termination time {text!r}: only absolute times are "
                "accepted (durations arrived in WS-BaseNotification 1.3)",
            )
        try:
            requested = parse_expires(text, now)
        except ValueError as exc:
            raise SubscriptionError("invalid_expiry", f"invalid expiration {text!r}: {exc}") from exc
        if requested is not None and requested <= now:
            raise SubscriptionError("invalid_expiry", f"expiration {text!r} is in the past")
        if self.max_lifetime is not None:
            ceiling = now + self.max_lifetime
            if requested is None or requested > ceiling:
                return ceiling
        return requested

    def lease_text(self, expires: Optional[float]) -> str:
        """A granted expiry as an absolute dateTime; "never" is reported as
        the largest representable lease in this implementation."""
        return format_datetime(self.clock.now() + 10 * 365 * 86400 if expires is None else expires)

    def _accept_qos(
        self, qos: Optional[QosProfile], consumer: Optional[EndpointReference]
    ) -> Optional[QosProfile]:
        """Accept (or refuse) a requested profile; an accepted one is
        registered with the adaptive controller, when the delivery pipeline
        carries one, so its bounds and priority drive real decisions."""
        if qos is None:
            return None
        manager = self.delivery_manager
        try:
            if manager is not None and manager.qos is not None and consumer is not None:
                return manager.qos.register_consumer(consumer.address, qos)
            return validate_supported(qos)
        except QosError as exc:
            raise SubscriptionError("unsupported_qos", f"unsupported QoS: {exc}") from exc

    def subscribe(self, grant: Grant, expires_text: Optional[str] = None) -> Subscription:
        """Create the subscription ``grant`` describes: a request (no ``sub_id``)
        has its expiry granted from ``expires_text``, a logged grant keeps
        both.  The order is the contract: filter and expiry are validated,
        then the profile is accepted, then the id is minted, then the index
        learns of it — a request that faults leaves nothing behind."""
        filter = build_filter(**grant.filter_parts)
        expires = self.grant_expiry(expires_text) if grant.sub_id is None else grant.expires
        accepted = self._accept_qos(grant.qos, grant.consumer)
        subscription = self.create(
            key=grant.sub_id,
            factory=Subscription,
            termination_time=expires,
            consumer=grant.consumer,
            filter=filter,
            qos=accepted,
            priority=int(accepted.get("Priority")) if accepted is not None else 0,
            mode=grant.mode, end_to=grant.end_to,
            use_raw=grant.use_raw, topic_expression=grant.topic_expression,
        )
        self.index.add(
            subscription.key, topic_expression_of(filter), content_expression_of(filter),
            index_decides(filter),
        )
        if grant.sub_id is None:
            grant = replace(grant, expires=expires, qos=accepted, sub_id=subscription.key)
        self.fire("created", subscription, grant=grant)
        return subscription

    # --- the operations of Table 2 ---------------------------------------------------

    def lookup(self, sub_id: str) -> Subscription:
        """The live subscription ``sub_id`` (an overdue one expires here)."""
        try:
            return self.get(sub_id)
        except ResourceUnknownFault:
            raise SubscriptionError(
                "unknown_subscription", f"unknown subscription {sub_id!r}"
            ) from None

    def renew(self, subscription: Subscription, expires_text: Optional[str]) -> None:
        subscription.termination_time = self.grant_expiry(expires_text)
        self.note_termination(subscription)
        self.fire("renewed", subscription)

    def pause(self, subscription: Subscription) -> None:
        subscription.paused = True
        self.fire("paused", subscription)

    def resume(self, subscription: Subscription, deliver: Callable[[Subscription, list], None]) -> None:
        """Unpause; what was parked meanwhile goes to ``deliver`` first."""
        subscription.paused = False
        if subscription.mode is not DeliveryMode.PULL and subscription.queue:
            deliver(subscription, self.drain(subscription))
        self.fire("resumed", subscription)

    def forget(self, sub_id: str) -> None:
        """Drop a subscription without an end notice (log replay: the
        pre-crash removal already announced itself); listeners still hear
        ``removed``, so derived state stays consistent."""
        if sub_id in self.records:
            self.destroy(sub_id, "unsubscribed")

    def _terminate(self, subscription: Subscription, reason: str, detail: str = "") -> None:
        super()._terminate(subscription, reason, detail)
        self.index.discard(subscription.key)
        self.fire("removed", subscription, reason=reason)
        self.announce(subscription, reason, detail)

    # --- the parked queue --------------------------------------------------------------

    def park(self, subscription: Subscription, item: "DeliveryItem") -> bool:
        """Append to the parked queue, honouring ``MaxEventsPerConsumer``.
        Returns False when the *incoming* item was the one discarded
        (LifoOrder); otherwise the oldest parked item makes room.  Parked
        copies are bare — a drain stamps its own lineage — so the item's
        lineage ends here with an informational ``queued`` (no obligation)
        and a drop is a counter, not a ledger event."""
        instr = self.network.instrumentation
        profile = subscription.qos
        if profile is not None:
            limit = profile.get("MaxEventsPerConsumer")
            if limit and len(subscription.queue) >= limit:
                instr.count("qos.shed_total", family=self.family, reason="sub_queue_full")
                if profile.get("DiscardPolicy") is DiscardPolicy.LIFO_ORDER:
                    return False
                del subscription.queue[0]
        lineage = item.lineage
        subscription.queue.append(item if lineage is None else replace(item, lineage=None))
        if lineage is not None:
            instr.lineage_event(
                lineage.lineage_id, "queued", subscription=subscription.key,
                mode="paused" if subscription.paused else subscription.mode.name.lower(),
            )
        return True

    def drain(self, subscription: Subscription, limit: Optional[int] = None) -> list:
        """Take the oldest ``limit`` parked items (all of them by default)."""
        queue = subscription.queue
        taken = queue[:limit]
        del queue[:limit]
        return taken

    def pull(
        self, subscription: Subscription, request: XElem, limit_name: QName, subcode: Optional[QName] = None
    ) -> list:
        """A consumer-initiated drain: at most ``request``'s ``limit_name``
        items (absent = the whole backlog, malformed = a Sender fault)."""
        from repro.delivery.limits import parse_drain_limit

        if subscription.mode is not DeliveryMode.PULL:
            raise SubscriptionError("not_pull_mode", "subscription is not in pull mode")
        limit = parse_drain_limit(
            request, limit_name, backlog=len(subscription.queue), subcode=subcode
        )
        taken = self.drain(subscription, limit)
        if taken:
            self.fire("pulled", subscription, count=len(taken))
        return taken


class Operation(NamedTuple):
    """One row of the paper's Table 2 as one (family, version) service has it."""

    #: the Table 2 name, which is also the WSDL operation name
    name: str
    #: ``source`` or ``manager`` — the endpoint that serves it — or ``sink``:
    #: a message the service *sends*, which its consumers serve
    port: str
    #: the ``wsa:Action`` of the request; a response carries ``<action>Response``
    action: str
    #: WSDL label of the request's body element, e.g. ``wse:Subscribe``
    element: str
    #: name of the service method that handles it; None on a ``sink`` row
    handler: Optional[str]

    @property
    def one_way(self) -> bool:
        """What a service sends expects no response; what it serves has one."""
        return self.handler is None


class OperationTable(NamedTuple):
    """What one service serves — stated once, by its family's ``operations``
    — and what its WSDL calls the description and each port."""

    name: str
    namespace: str
    #: port -> portType name
    port_types: Mapping[str, str]
    rows: tuple[Operation, ...]


class Sending(NamedTuple):
    """How one kind of notification leaves a service: a family states these
    as facts, and the frame's data-plane rows send through them."""

    #: the ``wsa:Action`` of the request
    action: str
    #: the row of the rendering table that writes it (a ``batch`` entry
    #: carries every item in one request, any other entry one each)
    entry: Entry
    #: what a failed direct attempt is recorded under (``delivery_failures``)
    stage: str = "notify"


class SubscriptionService:
    """The frame every family's producer / event source hangs its rows on
    (the paper's Fig. 1 and 2 differ in names, not in parts): the endpoint
    that grants subscriptions, the manager endpoint for the rest of Table 2,
    the lease table, the fan-out pipeline and a client for what goes out."""

    #: whether a publication must name a topic (WS-BaseNotification <= 1.2)
    requires_topic = False
    #: the family's facts for its data plane: how a push subscription's
    #: notifications leave, a raw one's (``use_raw``) and a wrapped queue's
    #: (a family states those it has)
    _push_sending: Sending
    _raw_sending: Optional[Sending] = None
    _wrapped_sending: Optional[Sending] = None
    #: whether a resumed backlog leaves under the resume's lineage (WSN)
    _restamp_resumed = False
    #: whether the push row coalesces per sink under a ``batching`` policy (WSN)
    _coalesces = False

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        operations: OperationTable,
        manager_address: Optional[str] = None,
        *,
        family: str,
        version_tag: str,
        role: str,
        wsa_version,
        faults: Mapping[tuple[str, Optional[str]], QName],
        topics: Optional[TopicNamespace] = None,
        producer_properties: Optional[dict[str, str]] = None,
        delivery_manager: Optional["DeliveryManager"] = None,
        batching: Optional["BatchingPolicy"] = None,
        **leases,
    ) -> None:
        from repro.delivery.batcher import DeliveryBatcher
        from repro.delivery.policy import BatchingPolicy
        from repro.fanout import Fanout

        self.network = network
        self.clock = network.clock
        #: when set, push delivery routes through the reliable store-and-
        #: forward pipeline instead of the immediate best-effort attempt
        self.delivery_manager = delivery_manager
        #: sizes and times every held batch: a wrapped queue leaves at
        #: ``max_batch`` items or when the ``window`` its first item armed
        #: runs out
        self.batching = batching or BatchingPolicy(max_batch=WRAPPED_BATCH)
        #: window timers ride the delivery manager's pump when there is one
        self.scheduler = (
            delivery_manager.scheduler
            if delivery_manager is not None
            else ClockScheduler(self.clock)
        )
        #: per-sink coalescing of the push row, from the policy a coalescing
        #: family was given (None: one request per notification)
        self.batcher: Optional["DeliveryBatcher"] = None
        if batching is not None and self._coalesces:
            self.batcher = DeliveryBatcher(
                self.clock, batching, self._settle_group, scheduler=self.scheduler,
                instrumentation=network.instrumentation, family=family,
            )
        #: sub key -> the deadline its wrapped queue's first item armed
        self._deadlines: dict[str, float] = {}
        self.producer_properties = dict(producer_properties or {})
        #: (properties rendered, their frozen document): see _properties_document
        self._properties_rendered: tuple[Optional[dict], Optional[XElem]] = (None, None)
        #: every failed outbound send, recorded (see repro.delivery.outcome)
        self.delivery_failures: list["DeliveryFailure"] = []
        self.subscriptions = SubscriptionManager(
            network,
            family=family,
            key_prefix=f"{family}-sub",
            delivery_manager=delivery_manager,
            announce=self._ended,
            **leases,
        )
        #: the family's fault vocabulary: ``(kind, operation)`` -> subcode,
        #: ``(kind, None)`` naming the kind for every other operation
        self._faults = faults
        #: match and settle are the shared pipeline's, the route is the
        #: frame's; a family keeps its rows of the rendering table
        self._fanout = Fanout(
            network,
            family=family,
            version_tag=version_tag,
            role=role,
            address=address,
            subscriptions=self.subscriptions,
            manager=delivery_manager,
            failures=self.delivery_failures,
        )
        #: the topic space of a family that has one (WS-Eventing does not),
        #: and the last message on each topic (what GetCurrentMessage answers)
        self.topics = topics
        self._current_message: dict[str, XElem] = {}
        self._client = SoapClient(network, wsa_version=wsa_version, soap_version=SoapVersion.V11)
        #: every notification leaves as text this renders (see repro.render)
        self.renderer = Renderer(self._client, family)
        self.endpoint = SoapEndpoint(network, address)
        if not any(row.port == "manager" for row in operations.rows):
            manager_address = address  # WS-Eventing 01/2004: the source *is* the manager
        elif manager_address is None:
            manager_address = f"{address}/subscriptions"
        self.manager_address = manager_address
        self.manager_endpoint = (
            self.endpoint if manager_address == address else SoapEndpoint(network, manager_address)
        )
        #: Table 2 as this service has it, mounted here and nowhere else
        self.operations = operations
        self._served: dict[tuple[str, str], Callable] = {}
        endpoints = {"source": self.endpoint, "manager": self.manager_endpoint}
        for row in operations.rows:
            if row.handler is not None:
                handler = self._served[row.port, row.action] = getattr(self, row.handler)
                endpoints[row.port].on_action(row.action, handler)

    @property
    def address(self) -> str:
        return self.endpoint.address

    def epr(self) -> EndpointReference:
        return EndpointReference(self.address)

    def close(self) -> None:
        self.endpoint.close()
        if self.manager_endpoint is not self.endpoint:
            self.manager_endpoint.close()

    def handler_for(self, port: str, action: str) -> Optional[Callable]:
        """What serves ``action`` at ``port`` (None: not there — the broker's
        front door stands in for the ``source`` port only)."""
        return self._served.get((port, action))

    def wsdl(self) -> str:
        """This service's self-description as a WSDL 1.1 document: the mounted
        table, each port at the address of the endpoint that serves it."""
        from repro.wsdl.generator import definition_of

        return definition_of(self.operations, self.address, self.manager_address).to_xml()

    def _subcode(self, kind: str, operation: str) -> Optional[QName]:
        """The family's subcode for an error ``kind`` in ``operation``."""
        rows = self._faults
        return rows.get((kind, operation)) or rows.get((kind, None))

    def _core(self, operation: str, core_call: Callable, *args, **kwargs):
        """``core_call(*args, **kwargs)`` on behalf of a wire ``operation``:
        a neutral error leaves as this family's Sender fault."""
        try:
            return core_call(*args, **kwargs)
        except SubscriptionError as error:
            subcode = self._subcode(error.kind, operation)
            raise SoapFault(FaultCode.SENDER, str(error), subcode=subcode) from error

    def grant(self, grant: Grant, expires_text: Optional[str] = None) -> Subscription:
        """Subscribe below the wire — a request ``read_subscribe`` read, or a
        logged grant: the subscription, or the family's fault."""
        return self._core("subscribe", self.subscriptions.subscribe, grant, expires_text)

    def _lookup(self, sub_id: str) -> Subscription:
        return self._core("lookup", self.subscriptions.lookup, sub_id)

    def _reply(self, request_headers: MessageHeaders, action: str, body: XElem) -> str:
        return reply_text(request_headers, action, body, self._client.wsa_version)

    # --- the lease rows of Table 2, answered here for every family -------------------

    #: the child of a Renew that asks for an expiry
    _renew_child = "Expires"

    def _subscription_for(self, envelope: SoapEnvelope, headers: MessageHeaders) -> Subscription:
        """The live subscription a manager-bound request names: where its id
        rides is the family's to say."""
        raise NotImplementedError(f"{type(self).__name__} manages no subscription")

    def _lease(self, subscription: Subscription) -> dict[str, str]:
        """The children of a lease reply, by local name: the granted expiry."""
        return {"Expires": self.subscriptions.lease_text(subscription.termination_time)}

    def _status(self, subscription: Subscription) -> dict[str, str]:
        """GetStatus's children: the lease, and whatever more a family reports."""
        return self._lease(subscription)

    def _pulled(self, item: "DeliveryItem") -> XElem:
        """One pulled item as a PullResponse carries it: the payload itself."""
        return item.payload

    def _answer(
        self, request: XElem, headers: MessageHeaders, *elements: XElem, **children: str
    ) -> str:
        """A row's reply, named after its request: ``<element>Response`` in
        the request's namespace under ``<action>Response`` — the rule the
        WSDL generator states for every request/response row — holding the
        text ``children``, then ``elements``."""
        name = request.name
        body = text_body(QName(name.namespace, f"{name.local}Response"), **children)
        body.children.extend(elements)
        return self._reply(headers, f"{headers.action}Response", body)

    def _handle_renew(self, envelope: SoapEnvelope, headers: MessageHeaders) -> str:
        request = envelope.body_element()
        subscription = self._subscription_for(envelope, headers)
        requested = child_text(request, self._renew_child)
        self._core("renew", self.subscriptions.renew, subscription, requested)
        return self._answer(request, headers, **self._lease(subscription))

    def _handle_get_status(self, envelope: SoapEnvelope, headers: MessageHeaders) -> str:
        request = envelope.body_element()
        subscription = self._subscription_for(envelope, headers)
        return self._answer(request, headers, **self._status(subscription))

    def _handle_unsubscribe(self, envelope: SoapEnvelope, headers: MessageHeaders) -> str:
        request = envelope.body_element()
        self.subscriptions.destroy(self._subscription_for(envelope, headers).key, "unsubscribed")
        return self._answer(request, headers)

    def _handle_destroy(self, envelope: SoapEnvelope, headers: MessageHeaders) -> str:
        request = envelope.body_element()
        self.subscriptions.destroy(self._subscription_for(envelope, headers).key, "destroyed")
        return self._answer(request, headers)

    def _handle_pause(self, envelope: SoapEnvelope, headers: MessageHeaders) -> str:
        request = envelope.body_element()
        self.subscriptions.pause(self._subscription_for(envelope, headers))
        return self._answer(request, headers)

    def _handle_resume(self, envelope: SoapEnvelope, headers: MessageHeaders) -> str:
        request = envelope.body_element()
        self.subscriptions.resume(self._subscription_for(envelope, headers), self._deliver)
        return self._answer(request, headers)

    def _handle_pull(self, envelope: SoapEnvelope, headers: MessageHeaders) -> str:
        """At most the request's ``MaxMessages`` of a pull-mode backlog, each
        item written as the family writes a pulled one."""
        request = envelope.body_element()
        subscription = self._subscription_for(envelope, headers)
        batch = self._core(
            "pull", self.subscriptions.pull, subscription, request,
            QName(request.name.namespace, "MaxMessages"), self._subcode("invalid_limit", "pull"),
        )
        return self._answer(request, headers, *map(self._pulled, batch))

    def _handle_get_current_message(self, envelope: SoapEnvelope, headers: MessageHeaders) -> str:
        """The last message published on the request's ``Topic`` (a request
        that names none asks about the empty topic, which has none)."""
        request = envelope.body_element()
        topic = child_text(request, "Topic") or ""
        payload = self._current_message.get(topic)
        if payload is None:
            raise SoapFault(
                FaultCode.SENDER, f"no current message on topic {topic!r}",
                subcode=self._subcode("no_current_message", "get_current_message"),
            )
        return self._answer(request, headers, payload)

    def note_publication(self, payload: XElem, topic: Optional[str]) -> Optional[TopicPath]:
        """Record a publication without fanning out — the first step of the
        route, and all of it on the broker's zero-subscription fast path.
        With a topic space, ``topic`` must be one it admits (a fixed set
        refuses strangers, an open one learns the topic) and the payload
        becomes that topic's current message; without one there is nothing
        to note.  Returns the path the topic space parsed (None: none did)."""
        if topic is None or self.topics is None:
            return None
        try:
            path = self.topics.validate_publication(topic)
        except FilterError as exc:
            raise SoapFault(FaultCode.SENDER, str(exc)) from exc
        self._current_message[topic] = payload if payload.frozen else payload.copy()
        return path

    # --- the data plane: every notification leaves through these rows -----------

    def _push(self, subscription: Subscription, items: list) -> None:
        """The push row: a live match of one publication.  Under a push
        batcher same sink + same shape coalesce into one request (the group
        key mirrors the template cache key, so every flushed group renders
        through one compiled envelope); raw, or without one, it leaves now."""
        if self.batcher is None or subscription.use_raw:
            sending = self._raw_sending if subscription.use_raw else self._push_sending
            self._settle(sending, [(subscription, items[0])], items, subscription.priority)
            return
        item = items[0]
        consumer = subscription.consumer
        self.batcher.add(
            (
                consumer.address,
                reference_shape(consumer),
                item.topic,
                frozen_namespace_order(item.payload),
            ),
            (subscription, item),
        )

    def _settle_group(self, key, pairs: list) -> None:
        """A push batcher's group (``key`` is its group key) as one request."""
        self._settle(
            self._push_sending, pairs, [item for _, item in pairs],
            max([subscription.priority for subscription, _ in pairs]),
        )

    def _deliver(self, subscription: Subscription, backlog: list) -> None:
        """The resume row: a resumed subscription's backlog as one settlement,
        through the wrapped send for a wrapped queue, each item under the
        resume's lineage where the family restamps it."""
        if self._restamp_resumed:
            lineage = self.network.instrumentation.trace_context()
            backlog = [replace(item, lineage=lineage) for item in backlog]
        if subscription.mode is DeliveryMode.WRAPPED:
            sending = self._wrapped_sending
        else:
            sending = self._raw_sending if subscription.use_raw else self._push_sending
        self._settle_queue(sending, subscription, backlog)

    def _settle_queue(self, sending: Sending, subscription: Subscription, items: list) -> None:
        """One subscription's ``items`` as one settlement."""
        self._settle(
            sending, [(subscription, item) for item in items], items, subscription.priority
        )

    def _settle(self, sending: Sending, pairs: list, items: list, priority: int) -> None:
        """``pairs`` — ``(subscription, item)``, all to one sink — as one
        settlement: ``items`` are theirs, in order.  A failed direct attempt
        goes to the failure row."""
        self._fanout.settle(
            pairs[0][0].consumer.address, self._send, (sending, pairs), items,
            stage=sending.stage, priority=priority, on_failed=self._end_after_failure,
        )

    def _send(self, sending: Sending, pairs: list) -> None:
        """One wire attempt: one request for a batch entry, one per pair for a
        single-message entry.  The first subscription addresses it (a
        coalesced group shares its sink and reference shape)."""
        action, entry = sending.action, sending.entry
        subscription = pairs[0][0]
        address = subscription.consumer.address
        head = subscription.head
        if head is None or head[0] != action:
            head = subscription.head = (action, request_head(address, action))
        render, send = self.renderer.render, self._client.send_rendered
        if entry.batch:
            send(address, action, render(entry, action, subscription, pairs), head=head[1])
            return
        for pair in pairs:
            send(address, action, render(entry, action, subscription, [pair]), head=head[1])

    def _end_after_failure(self, exc: Exception, sending: Sending, pairs: list) -> None:
        """The failure row: a direct attempt failed, so every subscription it
        carried that has not already ended ends now, in the family's own
        vocabulary (its ``_announce_end``)."""
        carried = {subscription.key: subscription for subscription, _ in pairs}
        for subscription in carried.values():
            if not subscription.destroyed:
                self.subscriptions.destroy(subscription.key, "delivery failure", str(exc))

    # --- the route: push, park or hold -------------------------------------------------

    def _route(
        self, payload: XElem, topic: Optional[str], push: Callable[[Subscription, list], None]
    ) -> int:
        """Match one publication and route each survivor; returns how many
        matched.  The payload is frozen once and travels as one item, which
        carries the in-flight publish's message id when there is a store: a
        live push match goes to the family's ``push(subscription, items)``
        row, anything else is parked, and an unpaused wrapped queue is then
        held for its batch.  Replaying the log, a push the log settled goes
        nowhere — delivered, shed, or drained once its sink's box exists
        (:meth:`~repro.store.core.BrokerStore.settled_at_route`): one probe
        of the publish's settlement."""
        from repro.delivery.task import DeliveryItem

        frozen = self._fanout.freeze(payload)
        path = self.note_publication(frozen, topic)
        context = FilterContext(
            frozen, topic, self.producer_properties, self._properties_document()
        )
        if path is not None:
            context.topic_path = path  # parsed once per publication
        lineage = self.network.instrumentation.trace_context()
        store = self.delivery_manager.store if self.delivery_manager is not None else None
        outcomes = None  # replaying: the publish's outcome record per sink
        if store is None:
            items = [DeliveryItem(frozen, topic, lineage)]
        else:
            items = store.stamp_items(frozen, topic, lineage)
            if store.replaying:
                outcomes, dropped = store.replay_outcomes(), store.replay_dropped
        matched = 0
        push_mode = DeliveryMode.PUSH  # an Enum member read per candidate is not free
        for subscription in self._fanout.match(context):
            matched += 1
            if subscription.mode is push_mode and not subscription.paused:
                if outcomes:
                    sink = subscription.consumer.address
                    record = outcomes.get(sink)
                    if record is not None and (
                        record.outcome == "delivered" or store.settled_at_route(record)
                    ):
                        dropped.add(sink)
                        continue
                push(subscription, items)
            elif (
                self.subscriptions.park(subscription, items[0])
                and subscription.mode is DeliveryMode.WRAPPED
                and not subscription.paused
            ):
                self._hold(subscription)
        if self.batcher is not None:
            self.batcher.flush_publish()
        return matched

    def _properties_document(self) -> XElem:
        """What ProducerProperties filters see: frozen, so a fan-out evaluates
        each expression on it once; rebuilt only when the properties change."""
        rendered, document = self._properties_rendered
        if rendered != self.producer_properties:
            rendered = dict(self.producer_properties)
            document = properties_document(rendered).freeze()
            self._properties_rendered = (rendered, document)
        return document

    def _hold(self, subscription: Subscription) -> None:
        """A wrapped queue waits for its batch: the first item arms the
        window, then a full batch leaves now."""
        queue, policy = subscription.queue, self.batching
        if policy.window > 0 and len(queue) == 1:
            key, when = subscription.key, self.clock.now() + policy.window
            self._deadlines[key] = when
            self.scheduler.call_at(when, lambda: self._on_deadline(key, when))
        if len(queue) >= policy.max_batch:
            self._flush_wrapped(subscription)

    def _on_deadline(self, sub_id: str, when: float) -> None:
        if self._deadlines.get(sub_id) != when:
            return  # flushed by size or flush(); a stale timer
        subscription = self._held(sub_id)
        if subscription is None:
            del self._deadlines[sub_id]  # gone, drained or paused: nothing waits
        else:
            self._flush_wrapped(subscription)

    def _held(self, sub_id: str) -> Optional[Subscription]:
        """The live, unpaused subscription ``sub_id`` if its queue holds items."""
        subscription = self.subscriptions.find(sub_id)
        if subscription is None or not subscription.queue or subscription.paused:
            return None
        return subscription if subscription.alive(self.clock.now()) else None

    def _wrapped_queues(self) -> Iterator[Subscription]:
        return (
            subscription
            for subscription in self.subscriptions.live_resources()
            if subscription.mode is DeliveryMode.WRAPPED
            and subscription.queue
            and not subscription.paused
        )

    def _flush_wrapped(self, subscription: Subscription) -> None:
        """The wrapped send: a held queue leaves as one batch."""
        self._deadlines.pop(subscription.key, None)
        items = self.subscriptions.drain(subscription)
        self._settle_queue(self._wrapped_sending, subscription, items)

    def flush(self) -> None:
        """Send every held batch now: the push batcher's groups, then every
        unpaused wrapped queue."""
        if self.batcher is not None:
            self.batcher.flush_all()
        for subscription in self._wrapped_queues():
            self._flush_wrapped(subscription)

    def stale_deadlines(self) -> int:
        """Held batches whose window deadline passed without a flush.  Non-zero
        after the scheduler has run everything due means a window timer was
        lost or never pumped — the ``obs-health`` stale-batch-timer anomaly."""
        now = self.clock.now()
        stale = sum(
            1 for sub_id, when in self._deadlines.items()
            if when < now and self._held(sub_id) is not None
        )
        return stale + (self.batcher.stale_deadlines() if self.batcher is not None else 0)

    def held(self) -> int:
        """Notifications held back for a batch: what :meth:`flush` would send."""
        held = sum(len(subscription.queue) for subscription in self._wrapped_queues())
        return held + (self.batcher.pending() if self.batcher is not None else 0)

    def _ended(self, subscription: Subscription, reason: str, detail: str) -> None:
        """Runs last on every removal: per-sink templates go with their last
        subscription, then the family's end-notice table speaks."""
        self.renderer.templates.note_removed(subscription.key)
        self._announce_end(subscription, reason, detail)

    def _send_end_notice(
        self, target: EndpointReference, action: str, body: XElem, stage: str
    ) -> None:
        """An end notice is a control message: under a delivery manager it is
        retried like any delivery, but it carries no items, so it is never
        parked (it is meaningless once the sink is gone)."""
        self._fanout.settle(
            target.address, self._client.call, (target, action, [body]), stage=stage
        )


# --- the client side ---------------------------------------------------------------------


class OperationNotAvailable(SoapFault):
    """The paper's "Not available" cell as a value: the dialect's operation
    table has no row for what was asked, and nothing was put on the wire."""

    def __init__(self, operation: str, table: OperationTable) -> None:
        super().__init__(FaultCode.SENDER, f"{operation} is not defined in {table.name}")


@dataclass
class SubscriptionHandle:
    """Everything a client needs to manage one subscription."""

    #: where the rest of Table 2 goes; the id rides in it as a reference
    #: parameter / property (WS-Eventing 01/2004: a bare address)
    manager: EndpointReference
    sub_id: str
    expires_text: str


class Verb(NamedTuple):
    """One row of a family's client verb table (kept in its ``messages.py``)."""

    #: the Table 2 operation this verb is in the family — whether a version
    #: *has* it is its operation table's to say, not this row's
    operation: str
    #: ``build(*args) -> request body``; None: the family has no such message
    build: Optional[Callable[..., XElem]] = None
    #: ``read(response body) -> what the verb returns``
    read: Callable[[XElem], object] = lambda body: None


def text_body(name: QName, **texts: object) -> XElem:
    """A message body ``name`` with one text child per value that is not
    None, in keyword order, each named in ``name``'s namespace: every lease
    request a client sends and every lease reply the frame answers."""
    body = XElem(name)
    for local, value in texts.items():
        if value is not None:
            body.append(text_element(QName(name.namespace, local), str(value)))
    return body


def child_text(parent: XElem, local: str) -> Optional[str]:
    """The stripped text of ``parent``'s child ``local`` in ``parent``'s
    namespace (None: there is none) — how a body's one-child fields are read."""
    child = parent.find(QName(parent.name.namespace, local))
    return child.full_text().strip() if child is not None else None


def message_payload(message: Optional[XElem], what: str, code=FaultCode.SENDER) -> XElem:
    """``message``'s first element, as parsed; a ``code`` fault naming ``what`` if none."""
    if message is not None:
        for child in message.children:
            if isinstance(child, XElem):
                return child
    raise SoapFault(code, f"{what} carries no payload")


def read_current_message(body: XElem) -> XElem:
    """The payload a GetCurrentMessageResponse carries."""
    return message_payload(body, "GetCurrentMessageResponse", FaultCode.RECEIVER)


class SubscriberClient:
    """The subscriber role of all three families: each verb is resolved to
    its :class:`Operation` once, here, from the family's operation table, and
    every exchange goes through :meth:`_call`.  A family class adds
    ``subscribe`` with its own wire vocabulary, and what only it has."""

    def __init__(
        self,
        network: SimulatedNetwork,
        table: OperationTable,
        verbs: Mapping[str, Verb],
        *,
        wsa_version,
        zone: str = PUBLIC_ZONE,
    ) -> None:
        self.table = table
        self.verbs = verbs
        self._client = SoapClient(
            network, zone=zone, wsa_version=wsa_version, soap_version=SoapVersion.V11
        )
        served = {(row.name, row.port): row for row in table.rows}
        #: verb -> (operation, build, read, its row on the source port, its
        #: row for a handle: the manager port, or the source's where the
        #: version has no separate manager); a missing row is None
        self._resolved: dict[str, tuple] = {}
        for verb, row in verbs.items():
            at_source = served.get((row.operation, "source"))
            at_manager = served.get((row.operation, "manager"), at_source)
            self._resolved[verb] = (*row, at_source, at_manager)

    def _call(self, verb: str, target, *args, **kwargs):
        """One exchange of ``verb``: with the manager of a
        :class:`SubscriptionHandle`, or with the ``target`` endpoint itself."""
        operation, build, read, at_source, at_manager = self._resolved[verb]
        managed = isinstance(target, SubscriptionHandle)
        row = at_manager if managed else at_source
        if row is None:
            raise OperationNotAvailable(operation, self.table)
        body = build(*args, **kwargs)
        if managed:
            target = self._address(target, body)
        return read(self._client.request(target, row.action, body, operation))

    def _address(self, handle: SubscriptionHandle, body: XElem) -> EndpointReference:
        """Where a request about ``handle`` goes (the id travels in the EPR)."""
        return handle.manager

    # --- the shared verbs of Table 2 -----------------------------------------------------

    def renew(self, handle: SubscriptionHandle, expires: Optional[str] = None) -> str:
        handle.expires_text = self._call("renew", handle, expires)
        return handle.expires_text

    def get_status(self, handle: SubscriptionHandle) -> str:
        return self._call("get_status", handle)

    def unsubscribe(self, handle: SubscriptionHandle) -> None:
        self._call("unsubscribe", handle)

    def pause(self, handle: SubscriptionHandle) -> None:
        self._call("pause", handle)

    def resume(self, handle: SubscriptionHandle) -> None:
        self._call("resume", handle)

    def pull(self, handle: SubscriptionHandle, max_messages: int = 0) -> list:
        """Drain a pull-mode subscription (``max_messages`` 0 = no maximum)."""
        return self._call("pull", handle, max_messages)

    def get_current_message(self, source: EndpointReference, topic: str, *dialect: str) -> XElem:
        return self._call("get_current_message", source, topic, *dialect)


# --- the consumer side -------------------------------------------------------------------


@dataclass
class ReceivedNotification:
    """One notification as a consumer of any family records it: ``payload``
    is the tree the consumer's reader parsed, held by reference, not a copy."""

    payload: XElem
    topic: Optional[str] = None
    wrapped: bool = False
    action: Optional[str] = None
    subscription_address: Optional[str] = None


class ConsumerEndpoint:
    """What the three families' consumers share: an endpoint and the record
    of what arrived; each family mounts its own ``_handle_*`` on it."""

    def __init__(self, network: SimulatedNetwork, address: str, zone: str = PUBLIC_ZONE) -> None:
        self.endpoint = SoapEndpoint(network, address, zone=zone)
        self.received: list[ReceivedNotification] = []

    @property
    def address(self) -> str:
        return self.endpoint.address

    def epr(self) -> EndpointReference:
        return EndpointReference(self.address)

    def close(self) -> None:
        self.endpoint.close()

    def payloads(self) -> list[XElem]:
        return [item.payload for item in self.received]
