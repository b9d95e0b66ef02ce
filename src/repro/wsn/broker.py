"""WS-BrokeredNotification: the NotificationBroker.

Section V.5 of the paper: "Notification brokers can handle publisher
registrations and support demand-based publishers.  A demand-based publisher
only publishes messages when there are consumers who are interested in these
messages.  A notification broker can keep track of the number of consumers to
each kind of messages and can pause or resume subscriptions to publishers
based on the demand."  That is implemented literally here: for a demand-based
registration, the broker subscribes to the publisher's own producer endpoint
and pauses/resumes *that* subscription as consumer demand for the registered
topic appears and disappears.

WS-Eventing defines none of this; the paper notes only that one *could* build
a broker implementing both the sink and source interfaces — which is exactly
what WS-Messenger does (:mod:`repro.messenger`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.delivery.manager import DeliveryManager
from repro.filters.base import FilterError
from repro.filters.topics import TopicDialect, TopicExpression, TopicNamespace
from repro.qos.adaptive import AdaptiveQosPolicy
from repro.render import reply_text
from repro.soap.envelope import SoapEnvelope
from repro.soap.fault import FaultCode, SoapFault
from repro.subscriptions import SubscriptionHandle
from repro.transport.endpoint import SoapEndpoint
from repro.transport.network import SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders
from repro.wsn import messages
from repro.wsn.producer import NotificationProducer
from repro.wsn.subscriber import WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import Namespaces, QName

BROKERED_NS = Namespaces.WSNT_BROKERED_13
REGISTRATION_ID = QName("http://repro.invalid/wsn", "RegistrationId")


@dataclass
class PublisherRegistration:
    """One registered publisher at the broker."""

    key: str
    publisher: Optional[EndpointReference]
    topic: Optional[str]
    demand: bool
    #: broker's subscription at the demand publisher (paused when demand = 0)
    upstream: Optional[SubscriptionHandle] = None
    paused_upstream: bool = True
    destroyed: bool = False


class NotificationBroker:
    """A WSN broker: producer interface + consumer interface + registrations."""

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        *,
        version: WsnVersion = WsnVersion.V1_3,
        topic_namespace: Optional[TopicNamespace] = None,
        delivery_manager: Optional[DeliveryManager] = None,
        qos: Optional[AdaptiveQosPolicy] = None,
    ) -> None:
        self.network = network
        self.version = version
        #: adaptive QoS: lag thresholds for publisher pause/resume (the
        #: demand-based mechanism of Section V.5, driven by *downstream*
        #: backlog rather than subscriber count alone)
        self.qos_policy = qos
        #: true while aggregate delivery lag has the broker treating demand
        #: as zero (all upstream demand subscriptions paused)
        self.lag_paused = False
        self.publisher_pauses = 0
        self.publisher_resumes = 0
        # the broker's producer side (Subscribe / GetCurrentMessage / delivery)
        self.producer = NotificationProducer(
            network,
            address,
            version=version,
            topic_namespace=topic_namespace,
            delivery_manager=delivery_manager,
        )
        self.producer.subscriptions.listeners.append(self._on_subscription_event)
        self.delivery_manager = delivery_manager
        if (
            delivery_manager is not None
            and qos is not None
            and qos.pause_pending_above is not None
        ):
            delivery_manager.backlog_listeners.append(self._on_backlog)
        # the broker's consumer side shares the producer endpoint: publishers
        # send Notify to the broker address
        self.producer.endpoint.on_action(version.action("Notify"), self._handle_notify)
        self.producer.endpoint.on_action(
            f"{BROKERED_NS}/RegisterPublisher", self._handle_register_publisher
        )
        # registration manager endpoint
        self.registration_address = f"{address}/registrations"
        self.registration_endpoint = SoapEndpoint(network, self.registration_address)
        self.registration_endpoint.on_action(
            f"{BROKERED_NS}/DestroyRegistration", self._handle_destroy_registration
        )
        self._registrations: dict[str, PublisherRegistration] = {}
        self._counter = itertools.count(1)
        # the broker's own subscriber/consumer roles towards demand publishers
        self._upstream_subscriber = WsnSubscriber(network, version=version)
        self._upstream_consumer_address = f"{address}/upstream"
        self._upstream_consumer = SoapEndpoint(network, self._upstream_consumer_address)
        # demand-publisher traffic re-enters the broker's fan-out
        self._upstream_consumer.on_action(version.action("Notify"), self._handle_notify)

    # --- convenience ------------------------------------------------------------

    @property
    def address(self) -> str:
        return self.producer.address

    def epr(self) -> EndpointReference:
        return self.producer.epr()

    def close(self) -> None:
        self.producer.close()
        self.registration_endpoint.close()
        self._upstream_consumer.close()

    def registrations(self) -> list[PublisherRegistration]:
        return [r for r in self._registrations.values() if not r.destroyed]

    # --- consumer side: publishers push Notify at the broker -------------------------

    def _handle_notify(self, envelope: SoapEnvelope, headers: MessageHeaders):
        body = envelope.body_element()
        if body.name == self.version.qname("Notify"):
            for item in messages.parse_notify(body, self.version):
                self.publish(item.payload.freeze(), topic=item.topic)
        else:
            self.publish(body)
        return None

    def publish(self, payload: XElem, *, topic: Optional[str] = None) -> int:
        """Broker-side publication (in-process publisher API)."""
        return self.producer.publish(payload, topic=topic)

    # --- publisher registration --------------------------------------------------------

    def _handle_register_publisher(self, envelope: SoapEnvelope, headers: MessageHeaders):
        body = envelope.body_element()
        publisher_elem = body.find(QName(BROKERED_NS, "PublisherReference"))
        publisher = (
            EndpointReference.from_element(publisher_elem, self.version.wsa_version)
            if publisher_elem is not None
            else None
        )
        topic_elem = body.find(self.version.qname("Topic")) or body.find(
            QName(BROKERED_NS, "Topic")
        )
        topic = topic_elem.full_text().strip() if topic_elem is not None else None
        demand_elem = body.find(QName(BROKERED_NS, "Demand"))
        demand = demand_elem is not None and demand_elem.full_text().strip() == "true"
        registration = self.register_publisher(publisher, topic=topic, demand=demand)
        response = XElem(QName(BROKERED_NS, "RegisterPublisherResponse"))
        reference = EndpointReference(self.registration_address)
        reference.with_parameter(text_element(REGISTRATION_ID, registration.key))
        response.append(
            reference.to_element(
                self.version.wsa_version,
                QName(BROKERED_NS, "PublisherRegistrationReference"),
            )
        )
        return reply_text(
            headers, f"{BROKERED_NS}/RegisterPublisherResponse", response, self.version.wsa_version
        )

    def register_publisher(
        self,
        publisher: Optional[EndpointReference],
        *,
        topic: Optional[str] = None,
        demand: bool = False,
    ) -> PublisherRegistration:
        if demand and (publisher is None or topic is None):
            raise SoapFault(
                FaultCode.SENDER,
                "demand-based registration needs a PublisherReference and a Topic",
                subcode=QName(BROKERED_NS, "InvalidProducerPropertiesExpressionFault"),
            )
        key = f"reg-{next(self._counter)}"
        registration = PublisherRegistration(key, publisher, topic, demand)
        self._registrations[key] = registration
        if demand:
            # subscribe to the publisher's producer, then pause until demand
            registration.upstream = self._upstream_subscriber.subscribe(
                publisher,
                EndpointReference(self._upstream_consumer_address),
                topic=topic,
            )
            self._upstream_subscriber.pause(registration.upstream)
            registration.paused_upstream = True
            self._reconcile_demand(registration)
        return registration

    def _handle_destroy_registration(self, envelope: SoapEnvelope, headers: MessageHeaders):
        key = ""
        for header in headers.echoed:
            if header.name == REGISTRATION_ID:
                key = header.full_text().strip()
        registration = self._registrations.get(key)
        if registration is None or registration.destroyed:
            raise SoapFault(
                FaultCode.SENDER,
                f"unknown registration {key!r}",
                subcode=QName(BROKERED_NS, "ResourceNotDestroyedFault"),
            )
        self.destroy_registration(registration)
        return reply_text(
            headers,
            f"{BROKERED_NS}/DestroyRegistrationResponse",
            XElem(QName(BROKERED_NS, "DestroyRegistrationResponse")),
            self.version.wsa_version,
        )

    def destroy_registration(self, registration: PublisherRegistration) -> None:
        registration.destroyed = True
        if registration.upstream is not None:
            try:
                self._upstream_subscriber.unsubscribe(registration.upstream)
            except SoapFault as exc:
                # the upstream subscription may already be gone; the skip is
                # recorded so a systematically-faulting manager stays visible
                self.network.instrumentation.count(
                    "obs.swallowed_errors_total",
                    site="wsn.broker.destroy_registration",
                    kind=type(exc).__name__,
                )

    # --- demand-based publishing ----------------------------------------------------------

    def _on_subscription_event(self, event: str, subscription, detail: dict) -> None:
        if event in ("created", "removed", "paused", "resumed"):
            for registration in self._registrations.values():
                if registration.demand and not registration.destroyed:
                    self._reconcile_demand(registration)

    def demand_for(self, topic: str) -> int:
        """Number of live, unpaused subscriptions whose filter selects ``topic``."""
        count = 0
        for subscription in self.producer.subscriptions.live_resources():
            if subscription.paused:
                continue
            if subscription.topic_expression is None:
                count += 1  # subscribes to everything
                continue
            try:
                expression = TopicExpression(
                    subscription.topic_expression, TopicDialect.FULL
                )
                if expression.matches(topic):
                    count += 1
            except FilterError as exc:
                # an unparsable filter contributes no demand, but the skip
                # must be visible — a silent drop here pauses real publishers
                self.network.instrumentation.count(
                    "obs.swallowed_errors_total",
                    site="wsn.broker.demand_for",
                    kind=type(exc).__name__,
                )
                continue
        return count

    def _on_backlog(self, pending: int) -> None:
        """Delivery-backlog listener: pause every demand publisher while the
        pipeline's pending count sits above the policy's high-water mark, and
        resume once it drains below the low-water mark (hysteresis — the two
        thresholds keep a borderline backlog from flapping the upstream
        Pause/Resume wire traffic)."""
        policy = self.qos_policy
        if policy is None or policy.pause_pending_above is None:
            return
        if not self.lag_paused and pending >= policy.pause_pending_above:
            self.lag_paused = True
            self.publisher_pauses += 1
            self.network.instrumentation.count(
                "qos.publisher_pauses", family="wsn", broker=self.address
            )
            self._reconcile_all_demand()
        elif self.lag_paused and pending <= policy.resume_pending_below:
            self.lag_paused = False
            self.publisher_resumes += 1
            self.network.instrumentation.count(
                "qos.publisher_resumes", family="wsn", broker=self.address
            )
            self._reconcile_all_demand()

    def _reconcile_all_demand(self) -> None:
        for registration in self._registrations.values():
            if registration.demand and not registration.destroyed:
                self._reconcile_demand(registration)

    def _reconcile_demand(self, registration: PublisherRegistration) -> None:
        if registration.upstream is None or registration.topic is None:
            return
        # while lag-paused the broker advertises zero demand: consumers may
        # still be subscribed, but the pipeline cannot absorb more input
        demand = 0 if self.lag_paused else self.demand_for(registration.topic)
        if demand > 0 and registration.paused_upstream:
            self._upstream_subscriber.resume(registration.upstream)
            registration.paused_upstream = False
        elif demand == 0 and not registration.paused_upstream:
            self._upstream_subscriber.pause(registration.upstream)
            registration.paused_upstream = True


@dataclass
class RegistrationHandle:
    """Client-side handle to a publisher registration at a broker."""

    reference: EndpointReference
    key: str


class BrokeredClient:
    """Wire-level client for the WS-BrokeredNotification operations."""

    def __init__(
        self, network: SimulatedNetwork, *, version: WsnVersion = WsnVersion.V1_3
    ) -> None:
        from repro.soap.envelope import SoapVersion
        from repro.transport.endpoint import SoapClient

        self.version = version
        self._client = SoapClient(
            network, wsa_version=version.wsa_version, soap_version=SoapVersion.V11
        )

    def register_publisher(
        self,
        broker: EndpointReference,
        *,
        publisher: Optional[EndpointReference] = None,
        topic: Optional[str] = None,
        demand: bool = False,
    ) -> RegistrationHandle:
        body = XElem(QName(BROKERED_NS, "RegisterPublisher"))
        if publisher is not None:
            body.append(
                publisher.to_element(
                    self.version.wsa_version, QName(BROKERED_NS, "PublisherReference")
                )
            )
        if topic is not None:
            body.append(text_element(self.version.qname("Topic"), topic))
        body.append(
            text_element(QName(BROKERED_NS, "Demand"), "true" if demand else "false")
        )
        reply = self._client.request(
            broker, f"{BROKERED_NS}/RegisterPublisher", body, "RegisterPublisher"
        )
        reference_elem = reply.require(QName(BROKERED_NS, "PublisherRegistrationReference"))
        reference = EndpointReference.from_element(
            reference_elem, self.version.wsa_version
        )
        return RegistrationHandle(
            reference, reference.parameter_text(REGISTRATION_ID) or ""
        )

    def destroy_registration(self, handle: RegistrationHandle) -> None:
        body = XElem(QName(BROKERED_NS, "DestroyRegistration"))
        self._client.call(handle.reference, f"{BROKERED_NS}/DestroyRegistration", [body])
