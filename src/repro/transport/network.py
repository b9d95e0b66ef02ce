"""The simulated network: addresses, zones, firewalls, latency and loss.

Endpoints register a handler under a URI address inside a *zone*.  Zones
model network segments; a zone may block inbound connections (a stateful
firewall / NAT), in which case hosts inside it can originate requests but
cannot be reached from other zones.  This is precisely the scenario the paper
gives for the pull delivery mode: "delivering messages to consumers behind
firewalls".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.instrument import NULL_INSTRUMENTATION, BoundCounters
from repro.transport.clock import VirtualClock

Handler = Callable[[bytes], bytes]

PUBLIC_ZONE = "public"


class NetworkError(Exception):
    """Base class for transport-level failures."""


class AddressUnreachable(NetworkError):
    """No endpoint is registered under the target address."""


class FirewallBlocked(NetworkError):
    """The target's zone rejects inbound connections from the caller's zone."""


class MessageLost(NetworkError):
    """The loss model dropped the message in flight."""


@dataclass
class Zone:
    """A network segment."""

    name: str
    #: when True, requests originating in *other* zones are refused
    blocks_inbound: bool = False


@dataclass
class NetworkStats:
    """Aggregate wire accounting, reset-able between benchmark phases.

    ``bytes_sent`` counts every request that left a sender, including ones
    the loss model dropped in flight (the sender still paid for them);
    refusals never leave the sender, so their bytes are not counted.
    """

    requests: int = 0
    responses: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    unreachable: int = 0
    firewall_blocked: int = 0
    lost: int = 0

    @property
    def refused(self) -> int:
        """Connection refusals of either kind (backward-compatible sum)."""
        return self.unreachable + self.firewall_blocked

    def reset(self) -> None:
        self.requests = self.responses = 0
        self.bytes_sent = self.bytes_received = 0
        self.unreachable = self.firewall_blocked = self.lost = 0


class WireObservation:
    """One completed ``send_request`` attempt, outcome included.

    Handed to every callback in :attr:`SimulatedNetwork.wire_observers`
    after the exchange resolves — successfully or not — so observability
    layers (``repro.obs.capture``) see responses and failures without
    monkey-patching the transport.

    A plain ``__slots__`` record (one per exchange): the frozen-dataclass
    construction path was measurable in the instrumentation-overhead bench.
    """

    __slots__ = (
        "address", "from_zone", "to_zone", "request", "response",
        "outcome", "started", "finished",
    )

    def __init__(
        self,
        address: str,
        from_zone: str,
        to_zone: Optional[str],
        request: bytes,
        response: Optional[bytes],
        outcome: str,
        started: float,
        finished: float,
    ) -> None:
        self.address = address
        self.from_zone = from_zone
        #: the target's zone, or None when the address was unreachable
        self.to_zone = to_zone
        self.request = request
        #: response bytes on success, None on any failure outcome
        self.response = response
        #: "ok", "unreachable", "firewall_blocked", "lost" or "error"
        self.outcome = outcome
        self.started = started
        self.finished = finished

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


@dataclass
class _Registration:
    address: str
    handler: Handler
    zone: str


class SimulatedNetwork:
    """Synchronous request/response fabric with latency, loss and firewalls.

    One-way notification delivery is modelled as an HTTP request that elicits
    an empty 202 response, mirroring SOAP-over-HTTP practice.
    """

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        *,
        latency: float = 0.001,
        loss_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.latency = latency
        self.loss_rate = loss_rate
        self.stats = NetworkStats()
        self._rng = random.Random(seed)
        self._zones: dict[str, Zone] = {PUBLIC_ZONE: Zone(PUBLIC_ZONE)}
        self._registrations: dict[str, _Registration] = {}
        self._serials: dict[str, int] = {}  # see serial_address
        #: request observers: called with (target_address, request_bytes)
        #: just before a request is handed to its handler; may raise a
        #: NetworkError to inject failures (see tests' loss schedules)
        self.observers: list[Callable[[str, bytes], None]] = []
        #: outcome observers: called with a WireObservation after every
        #: send_request attempt resolves, success or failure
        self.wire_observers: list[Callable[[WireObservation], None]] = []
        #: observability handle (see repro.obs); the null object by default
        self.instrumentation = NULL_INSTRUMENTATION
        #: pre-bound net.* instruments
        self._bound = BoundCounters()

    # --- topology ----------------------------------------------------------

    def add_zone(self, name: str, *, blocks_inbound: bool = False) -> Zone:
        zone = Zone(name, blocks_inbound)
        self._zones[name] = zone
        return zone

    def register(self, address: str, handler: Handler, *, zone: str = PUBLIC_ZONE) -> None:
        if zone not in self._zones:
            raise ValueError(f"unknown zone {zone!r}")
        self._registrations[address] = _Registration(address, handler, zone)

    def unregister(self, address: str) -> None:
        self._registrations.pop(address, None)

    def is_registered(self, address: str) -> bool:
        return address in self._registrations

    def serial_address(self, prefix: str) -> str:
        """``{prefix}-{n}``, ``n`` counting up per prefix for the network's
        life: an endpoint rebuilt after a restart never takes over a name a
        pre-crash peer may still send to."""
        n = self._serials[prefix] = self._serials.get(prefix, 0) + 1
        return f"{prefix}-{n}"

    # --- transfer --------------------------------------------------------------

    def send_request(
        self, target_address: str, payload: bytes, *, from_zone: str = PUBLIC_ZONE
    ) -> bytes:
        """Deliver request bytes to the endpoint at ``target_address``.

        Raises :class:`AddressUnreachable`, :class:`FirewallBlocked` or
        :class:`MessageLost`; otherwise advances the clock by the round-trip
        latency and returns the response bytes.  When instrumented, every
        attempt — failed or not — is reported to :attr:`wire_observers` as a
        :class:`WireObservation` and spanned as ``deliver``.
        """
        instr = self.instrumentation
        if not (instr.enabled or self.wire_observers):
            # the uninstrumented fast path: identical to the seed hot path
            return self._transfer(target_address, payload, from_zone)
        started = self.clock.now()
        response: Optional[bytes] = None
        outcome = "error"
        with instr.span("deliver", address=target_address, from_zone=from_zone):
            try:
                response = self._transfer(target_address, payload, from_zone)
                outcome = "ok"
                return response
            except AddressUnreachable:
                outcome = "unreachable"
                raise
            except FirewallBlocked:
                outcome = "firewall_blocked"
                raise
            except MessageLost:
                outcome = "lost"
                raise
            finally:
                finished = self.clock.now()
                self._bound.inc(instr, 1, "net.requests", "outcome", outcome)
                self._bound.observe(instr, finished - started, "net.rtt_seconds")
                if self.wire_observers:
                    registration = self._registrations.get(target_address)
                    observation = WireObservation(
                        target_address,
                        from_zone,
                        registration.zone if registration else None,
                        payload,
                        response,
                        outcome,
                        started,
                        finished,
                    )
                    for hook in self.wire_observers:
                        hook(observation)

    def _transfer(self, target_address: str, payload: bytes, from_zone: str) -> bytes:
        """The wire itself: zone checks, loss model, latency, handler call."""
        registration = self._registrations.get(target_address)
        if registration is None:
            self.stats.unreachable += 1
            raise AddressUnreachable(target_address)
        target_zone = self._zones[registration.zone]
        if target_zone.blocks_inbound and from_zone != registration.zone:
            self.stats.firewall_blocked += 1
            raise FirewallBlocked(
                f"zone {target_zone.name!r} refuses inbound connections from {from_zone!r}"
            )
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            self.stats.lost += 1
            self.stats.bytes_sent += len(payload)
            raise MessageLost(target_address)
        one_way = self.latency
        try:
            for observer in self.observers:
                observer(target_address, payload)
        except MessageLost:
            self.stats.bytes_sent += len(payload)
            raise
        self.stats.requests += 1
        self.stats.bytes_sent += len(payload)
        self.clock.advance(one_way)
        response = registration.handler(payload)
        self.clock.advance(one_way)
        self.stats.responses += 1
        self.stats.bytes_received += len(response)
        return response
