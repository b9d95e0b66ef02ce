"""WS-Resources and the implied resource pattern."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.soap.fault import FaultCode, SoapFault
from repro.transport.clock import VirtualClock
from repro.wsa.epr import EndpointReference
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import Namespaces, QName

#: the reference parameter that selects a resource (implied resource pattern)
RESOURCE_ID = QName("http://repro.invalid/wsrf", "ResourceID")

ResourceKey = str


class ResourceUnknownFault(SoapFault):
    """wsrf-bf ResourceUnknownFault: the EPR designates no live resource."""

    def __init__(self, key: ResourceKey) -> None:
        super().__init__(
            FaultCode.SENDER,
            f"resource {key!r} is unknown (destroyed or never existed)",
            subcode=QName(Namespaces.WSRF_BF, "ResourceUnknownFault"),
        )


@dataclass
class WsResource:
    """One stateful resource with a property document and a lifetime.

    Properties are multi-valued: each QName maps to a list of elements.  A
    WSN subscription resource, for instance, exposes its filter, its
    termination time and its paused state as properties.
    """

    key: ResourceKey
    properties: dict[QName, list[XElem]] = field(default_factory=dict)
    #: virtual-clock timestamp after which the resource is expired; None = infinite
    termination_time: Optional[float] = None
    destroyed: bool = False

    def set_property(self, name: QName, *values: XElem) -> None:
        self.properties[name] = list(values)

    def set_text_property(self, name: QName, value: str) -> None:
        self.set_property(name, text_element(name, value))

    def get_property(self, name: QName) -> list[XElem]:
        return list(self.properties.get(name, []))

    def is_expired(self, now: float) -> bool:
        return self.termination_time is not None and now >= self.termination_time

    def alive(self, now: float) -> bool:
        return not self.destroyed and not self.is_expired(now)


class ResourceRegistry:
    """All live resources behind one Web service endpoint."""

    def __init__(self, clock: VirtualClock, key_prefix: str = "res") -> None:
        self.clock = clock
        self._key_prefix = key_prefix
        self._serial = 0
        self._resources: dict[ResourceKey, WsResource] = {}
        # earliest-expiry heap of (termination_time, key); lazy deletion:
        # entries go stale when a resource is destroyed or its termination
        # time changes, and sweep_due skips them
        self._expiry_heap: list[tuple[float, ResourceKey]] = []

    def create(
        self,
        *,
        lifetime: Optional[float] = None,
        key: Optional[ResourceKey] = None,
        factory: Callable[..., WsResource] = WsResource,
        **fields,
    ) -> WsResource:
        """Create a resource; ``lifetime`` is seconds from now (soft state).
        A forced ``key`` (log replay) is reserved, see :meth:`reserve`.
        ``factory(key, **fields)`` builds a richer resource — a subscription
        record is one (see :mod:`repro.subscriptions`)."""
        if key is None:
            self._serial += 1
            key = f"{self._key_prefix}-{self._serial}"
        elif key in self._resources:
            raise ValueError(f"resource key {key!r} already exists")
        else:
            self.reserve(key)
        resource = factory(key, **fields)
        if lifetime is not None:
            resource.termination_time = self.clock.now() + lifetime
        self._resources[key] = resource
        self.note_termination(resource)
        return resource

    def reserve(self, key: ResourceKey) -> None:
        """Advance the serial past ``key``: no key minted from now on repeats it."""
        tail = key.rsplit("-", 1)[-1]
        if key.startswith(f"{self._key_prefix}-") and tail.isdigit():
            self._serial = max(self._serial, int(tail))

    def note_termination(self, resource: WsResource) -> None:
        """Record (a change of) ``resource.termination_time`` so
        :meth:`sweep_due` sees it; must be called after every assignment."""
        if resource.termination_time is not None:
            heapq.heappush(
                self._expiry_heap, (resource.termination_time, resource.key)
            )

    def sweep_due(self) -> list[WsResource]:
        """Expire exactly the resources whose termination time has passed.

        Amortized O(expired log n) per call instead of :meth:`sweep`'s full
        scan — the fan-out hot path calls this once per publication.
        """
        now = self.clock.now()
        heap = self._expiry_heap
        expired: list[WsResource] = []
        while heap and heap[0][0] <= now:
            when, key = heapq.heappop(heap)
            resource = self._resources.get(key)
            if resource is None or resource.termination_time != when:
                continue  # stale entry (destroyed / rescheduled)
            self._expire(resource)
            expired.append(resource)
        return expired

    def get(self, key: ResourceKey) -> WsResource:
        """Look up a live resource; raises :class:`ResourceUnknownFault`."""
        resource = self._resources.get(key)
        if resource is None or not resource.alive(self.clock.now()):
            if resource is not None and resource.is_expired(self.clock.now()):
                self._expire(resource)
            raise ResourceUnknownFault(key)
        return resource

    def find(self, key: ResourceKey) -> Optional[WsResource]:
        return self._resources.get(key)

    def resolve(self, epr_or_headers_params: list[XElem]) -> WsResource:
        """Implied resource pattern: the ResourceID echoed header picks the resource."""
        for element in epr_or_headers_params:
            if element.name == RESOURCE_ID:
                return self.get(element.full_text().strip())
        raise ResourceUnknownFault("<no ResourceID header>")

    def epr_for(self, resource: WsResource, address: str) -> EndpointReference:
        epr = EndpointReference(address)
        epr.with_parameter(text_element(RESOURCE_ID, resource.key))
        return epr

    def destroy(self, key: ResourceKey, reason: str = "destroyed", detail: str = "") -> None:
        resource = self._resources.pop(key, None)
        if resource is None or resource.destroyed:
            raise ResourceUnknownFault(key)
        self._terminate(resource, reason, detail)

    def sweep(self) -> list[WsResource]:
        """Expire every resource whose termination time has passed."""
        now = self.clock.now()
        expired = [r for r in self._resources.values() if r.is_expired(now)]
        for resource in expired:
            self._expire(resource)
        return expired

    def _expire(self, resource: WsResource) -> None:
        self._resources.pop(resource.key, None)
        if not resource.destroyed:
            self._terminate(resource, "expired")

    def _terminate(self, resource: WsResource, reason: str, detail: str = "") -> None:
        """Every way a resource dies (destroy, sweep, lazy expiry) ends here,
        exactly once; the owner of the resources overrides it to announce
        the death (a TerminationNotification, for a subscription)."""
        resource.destroyed = True

    def live_resources(self) -> Iterator[WsResource]:
        now = self.clock.now()
        return (r for r in list(self._resources.values()) if r.alive(now))

    def __len__(self) -> int:
        return sum(1 for _ in self.live_resources())
