"""WS-BrokeredNotification on WS-Messenger: publisher registration and demand.

Paper section V.5: a broker "can keep track of the number of consumers to
each kind of messages and can pause or resume subscriptions to publishers
based on the demand"; section VII makes WS-Messenger the broker of both
families.  So RegisterPublisher and DestroyRegistration are rows of the
broker's WSN 1.3 table, and a demand-based registration is a WSN bridge that
runs only while a live, unpaused subscription of *any* family selects its
topic — read off each subscription manager's topic index — and the delivery
backlog has not crossed the QoS policy's ``pause_pending_above``.
Registrations are not logged: a restart forgets them (see DESIGN.md).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from repro.filters.base import FilterError
from repro.filters.topics import TopicPath
from repro.soap.fault import FaultCode, SoapFault
from repro.subscriptions import SubscriptionHandle
from repro.transport.endpoint import SoapEndpoint
from repro.transport.network import NetworkError
from repro.wsa.epr import EndpointReference
from repro.wsn import messages
from repro.wsn.messages import BROKERED_NS, REGISTRATION_ID, brokered_action
from repro.wsn.producer import NotificationProducer
from repro.wsn.subscriber import WsnSubscriber
from repro.xmlkit.element import XElem
from repro.xmlkit.names import QName

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.messenger.broker import WsMessenger


@dataclass
class PublisherRegistration:
    """One registered publisher; a demand-based one holds the bridge's
    subscription at the publisher and the ingest endpoint it delivers to."""

    key: str
    publisher: Optional[EndpointReference]
    topic: Optional[str]
    demand: bool
    upstream: Optional[SubscriptionHandle] = None
    ingest: Optional[SoapEndpoint] = None
    paused_upstream: bool = False


class BrokerProducer(NotificationProducer):
    """The broker's WS-Notification service: in 1.3 its table also has the
    two registration rows, which the broker's ``registrations`` serve."""

    brokered = True
    registrations: "PublisherRegistrations"

    def _handle_register_publisher(self, envelope, headers):
        request = messages.parse_register_publisher(envelope.body_element(), self.version)
        key = self.registrations.register(*request).key
        body = messages.build_register_publisher_response(self.version, self.address, key)
        return self._reply(headers, brokered_action("RegisterPublisherResponse"), body)

    def _handle_destroy_registration(self, envelope, headers):
        key = messages.subscription_id_from_headers(headers.echoed, REGISTRATION_ID)
        self.registrations.destroy(key)
        body = XElem(QName(BROKERED_NS, "DestroyRegistrationResponse"))
        return self._reply(headers, brokered_action("DestroyRegistrationResponse"), body)


def _fault(subcode: str, reason: str) -> SoapFault:
    return SoapFault(FaultCode.SENDER, reason, subcode=QName(BROKERED_NS, subcode))


class PublisherRegistrations:
    """The broker's registered publishers, iterable, and the demand that
    pauses and resumes the demand-based ones."""

    def __init__(self, broker: "WsMessenger") -> None:
        self.broker = broker
        self._registrations: dict[str, PublisherRegistration] = {}
        self._counter = itertools.count(1)
        #: true while the delivery backlog has demand read as zero
        self.lag_paused = False
        self.pauses = self.resumes = 0
        for _, _, subscriptions in broker.subscription_managers():
            subscriptions.listeners.append(self._on_subscription_event)
        if broker.qos is not None and broker.qos.policy.pause_pending_above is not None:
            broker.delivery_manager.backlog_listeners.append(self._on_backlog)

    def __iter__(self):
        return iter(list(self._registrations.values()))

    @cached_property
    def _upstream(self) -> WsnSubscriber:
        """Pauses, resumes and ends the bridges' subscriptions at publishers."""
        return WsnSubscriber(self.broker.network)

    def register(self, publisher, topic=None, demand=False) -> PublisherRegistration:
        """Register ``publisher``; a demand-based registration bridges from it
        and is kept only once the broker's Subscribe there went through."""
        registration = PublisherRegistration("", publisher, topic, demand)
        if demand:
            if publisher is None or topic is None:
                raise _fault(
                    "InvalidProducerPropertiesExpressionFault",
                    "demand-based registration needs a PublisherReference and a Topic",
                )
            try:
                TopicPath.parse(topic)  # demand is read for one concrete topic
                bridge = self.broker.bridge_from_wsn_producer(publisher, topic=topic)
            except (FilterError, NetworkError, SoapFault) as exc:
                raise _fault(
                    "PublisherRegistrationFailedFault",
                    f"cannot subscribe at publisher {publisher.address}: {exc}",
                ) from exc
            registration.upstream, registration.ingest = bridge
        registration.key = f"reg-{next(self._counter)}"
        self._registrations[registration.key] = registration
        if demand:
            self._reconcile(registration)
        return registration

    def destroy(self, key: str) -> None:
        """End registration ``key`` and, for a demand-based one, its bridge."""
        registration = self._registrations.pop(key, None)
        if registration is None:
            raise _fault("ResourceNotDestroyedFault", f"unknown registration {key!r}")
        if registration.upstream is None:
            return
        registration.ingest.close()
        try:
            self._upstream.unsubscribe(registration.upstream)
        except (NetworkError, SoapFault) as exc:
            # the publisher may have ended it already: counted, not raised
            self.broker.network.instrumentation.count(
                "obs.swallowed_errors_total",
                site="messenger.registration.destroy",
                kind=type(exc).__name__,
            )

    def demand(self, topic: str) -> int:
        """Live, unpaused subscriptions of any family whose topic constraint
        admits ``topic``: a topic-only index read (no content filter runs, and
        ``content_evals`` is left alone)."""
        now, count = self.broker.network.clock.now(), 0
        for _, _, subscriptions in self.broker.subscription_managers():
            for key in subscriptions.index.topic_candidates(topic):
                subscription = subscriptions.records[key]
                count += not subscription.paused and subscription.alive(now)
        return count

    def _on_subscription_event(self, event: str, subscription, detail: dict) -> None:
        if self._registrations and event in ("created", "removed", "paused", "resumed"):
            self._reconcile_all()

    def _on_backlog(self, pending: int) -> None:
        """Lag overrides demand from ``pause_pending_above`` pending deliveries
        down to ``resume_pending_below``: two marks, so a borderline backlog
        cannot flap the upstream Pause / Resume traffic."""
        policy = self.broker.qos.policy
        if not self.lag_paused and pending >= policy.pause_pending_above:
            self.pauses += 1
            metric = "qos.publisher_pauses"
        elif self.lag_paused and pending <= policy.resume_pending_below:
            self.resumes += 1
            metric = "qos.publisher_resumes"
        else:
            return
        self.lag_paused = not self.lag_paused
        self.broker.network.instrumentation.count(metric, family="wsn", broker=self.broker.address)
        self._reconcile_all()

    def _reconcile_all(self) -> None:
        for registration in list(self._registrations.values()):
            if registration.demand:
                self._reconcile(registration)

    def _reconcile(self, registration: PublisherRegistration) -> None:
        """Run the bridge exactly while it is wanted; the state flips before
        the wire call, so whatever the call sets off already sees it."""
        wanted = not self.lag_paused and self.demand(registration.topic) > 0
        if wanted == registration.paused_upstream:
            registration.paused_upstream = not wanted
            (self._upstream.resume if wanted else self._upstream.pause)(registration.upstream)
