"""OGSI Grid services, service data, and the notification port types."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.render import reply_text
from repro.soap.envelope import SoapEnvelope
from repro.soap.fault import FaultCode, SoapFault
from repro.transport.endpoint import SoapClient, SoapEndpoint
from repro.transport.network import NetworkError, SimulatedNetwork
from repro.util.xstime import parse_datetime
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders
from repro.wsa.versions import WsaVersion
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import QName

OGSI_NS = "http://www.gridforum.org/namespaces/2003/03/OGSI"


def _q(local: str) -> QName:
    return QName(OGSI_NS, local)


def _action(local: str) -> str:
    return f"{OGSI_NS}/{local}"


class OgsiError(SoapFault):
    def __init__(self, reason: str) -> None:
        super().__init__(FaultCode.SENDER, reason, subcode=_q("Fault"))


def _datetime(element: XElem) -> float:
    """An ``xs:dateTime`` a requester sent; a malformed one is its fault."""
    try:
        return parse_datetime(element.full_text())
    except ValueError as exc:
        raise OgsiError(str(exc)) from exc


@dataclass
class ServiceDataElement:
    """One named, typed piece of a Grid service's state."""

    name: str
    value: XElem
    mutability: str = "mutable"  # static | constant | mutable


@dataclass
class _OgsiSubscription:
    key: str
    service_data_name: str
    sink: EndpointReference
    termination_time: Optional[float]  # absolute; OGSI has no durations

    def alive(self, now: float) -> bool:
        return self.termination_time is None or now < self.termination_time


class GridService:
    """Base Grid service: service data + explicit lifetime."""

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
    ) -> None:
        self.network = network
        self.clock = network.clock
        self.endpoint = SoapEndpoint(network, address)
        self.service_data: dict[str, ServiceDataElement] = {}
        self.termination_time: Optional[float] = None
        self.destroyed = False
        self.endpoint.on_action(_action("findServiceData"), self._handle_find)
        self.endpoint.on_action(_action("requestTerminationAfter"), self._handle_term_after)
        self.endpoint.on_action(_action("requestTerminationBefore"), self._handle_term_before)
        self.endpoint.on_action(_action("destroy"), self._handle_destroy)

    def _check_alive(self) -> None:
        """Soft state: a service past its termination time is destroyed when next reached."""
        if self.destroyed:
            raise OgsiError(f"Grid service {self.address} is destroyed")
        if self.termination_time is not None and self.clock.now() >= self.termination_time:
            self._handle_destroy()
            raise OgsiError(f"Grid service {self.address} is destroyed")

    @property
    def address(self) -> str:
        return self.endpoint.address

    def epr(self) -> EndpointReference:
        return EndpointReference(self.address)

    # --- service data ------------------------------------------------------------

    def declare_service_data(self, name: str, value: XElem, mutability: str = "mutable") -> None:
        self.service_data[name] = ServiceDataElement(name, value, mutability)

    def set_service_data(self, name: str, value: XElem) -> None:
        self._check_alive()
        sde = self.service_data.get(name)
        if sde is None:
            raise OgsiError(f"no service data element {name!r}")
        if sde.mutability != "mutable":
            raise OgsiError(f"service data {name!r} is {sde.mutability}")
        sde.value = value

    def _handle_find(self, envelope: SoapEnvelope, headers: MessageHeaders):
        self._check_alive()
        name = envelope.body_element().full_text().strip()
        sde = self.service_data.get(name)
        if sde is None:
            raise OgsiError(f"no service data element {name!r}")
        body = XElem(_q("findServiceDataResponse"))
        body.append(sde.value.copy())
        return self._reply(headers, _action("findServiceDataResponse"), body)

    # --- lifetime ----------------------------------------------------------------------

    def _handle_term_after(self, envelope: SoapEnvelope, headers: MessageHeaders):
        self._check_alive()
        requested = _datetime(envelope.body_element())
        if self.termination_time is None or requested > self.termination_time:
            self.termination_time = requested
        return self._ack(headers, "requestTerminationAfterResponse")

    def _handle_term_before(self, envelope: SoapEnvelope, headers: MessageHeaders):
        self._check_alive()
        requested = _datetime(envelope.body_element())
        if self.termination_time is None or requested < self.termination_time:
            self.termination_time = requested
        return self._ack(headers, "requestTerminationBeforeResponse")

    def _handle_destroy(self, *_request) -> None:
        """Ends the service at once (the request carries nothing it reads)."""
        self.destroyed = True
        self.endpoint.close()

    def _ack(self, headers: MessageHeaders, local: str) -> str:
        return self._reply(headers, _action(local), XElem(_q(local)))

    def _reply(self, request_headers: MessageHeaders, action: str, body: XElem) -> str:
        # OGSI is WSA 2003/03 era
        return reply_text(request_headers, action, body, WsaVersion.V2003_03)


class NotificationSource(GridService):
    """A Grid service whose service-data changes notify subscribed sinks."""

    def __init__(self, network: SimulatedNetwork, address: str) -> None:
        super().__init__(network, address)
        self._counter = itertools.count(1)
        self._subscriptions: dict[str, _OgsiSubscription] = {}
        self._client = SoapClient(network, wsa_version=WsaVersion.V2003_03)
        self.endpoint.on_action(_action("subscribe"), self._handle_subscribe)

    # --- subscribe (by serviceDataName only — the OGSI 'filter') ----------------------

    def _handle_subscribe(self, envelope: SoapEnvelope, headers: MessageHeaders):
        self._check_alive()
        body = envelope.body_element()
        name_elem = body.find(_q("serviceDataName"))
        sink_elem = body.find(_q("sink"))
        if name_elem is None or sink_elem is None:
            raise OgsiError("subscribe needs serviceDataName and sink")
        name = name_elem.full_text().strip()
        if name not in self.service_data:
            raise OgsiError(f"no service data element {name!r}")
        sink = EndpointReference.from_element(sink_elem, WsaVersion.V2003_03)
        term_elem = body.find(_q("expirationTime"))
        termination: Optional[float] = None
        if term_elem is not None and term_elem.full_text().strip():
            termination = _datetime(term_elem)
        subscription = self.subscribe(name, sink, termination)
        response = XElem(_q("subscribeResponse"))
        response.append(text_element(_q("subscriptionHandle"), subscription.key))
        return self._reply(headers, _action("subscribeResponse"), response)

    def subscribe(
        self,
        service_data_name: str,
        sink: EndpointReference,
        termination_time: Optional[float] = None,
    ) -> _OgsiSubscription:
        key = f"ogsi-sub-{next(self._counter)}"
        subscription = _OgsiSubscription(key, service_data_name, sink, termination_time)
        self._subscriptions[key] = subscription
        return subscription

    # --- change notification --------------------------------------------------------------

    def set_service_data(self, name: str, value: XElem) -> int:
        """Update an SDE and push the new value to matching sinks."""
        super().set_service_data(name, value)
        now = self.clock.now()
        # soft state: expired subscriptions are swept on publication
        self._subscriptions = {
            k: s for k, s in self._subscriptions.items() if s.alive(now)
        }
        delivered = 0
        for subscription in list(self._subscriptions.values()):
            if subscription.service_data_name != name:
                continue
            message = XElem(_q("deliverNotification"))
            message.append(text_element(_q("serviceDataName"), name))
            message.append(value.copy())
            try:
                self._client.call(
                    subscription.sink,
                    _action("deliverNotification"),
                    [message],
                    expect_reply=False,
                )
                delivered += 1
            except (NetworkError, SoapFault):
                del self._subscriptions[subscription.key]
        return delivered


class NotificationSink:
    """Receives deliverNotification pushes."""

    def __init__(self, network: SimulatedNetwork, address: str) -> None:
        self.endpoint = SoapEndpoint(network, address)
        self.received: list[tuple[str, XElem]] = []
        self.endpoint.on_action(_action("deliverNotification"), self._handle)

    @property
    def address(self) -> str:
        return self.endpoint.address

    def epr(self) -> EndpointReference:
        return EndpointReference(self.address)

    def _handle(self, envelope: SoapEnvelope, headers: MessageHeaders):
        body = envelope.body_element()
        name_elem = body.find(_q("serviceDataName"))
        name = name_elem.full_text().strip() if name_elem is not None else ""
        payload = next(
            (e for e in body.elements() if e.name != _q("serviceDataName")), None
        )
        if payload is not None:
            self.received.append((name, payload.copy()))
        return None
