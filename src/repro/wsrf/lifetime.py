"""WSRF-ResourceLifetime: Destroy and ScheduledResourceTermination.

Soft-state lifetime is the evolution the paper highlights in section VI
observation (5): subscriptions time out unless renewed, so dead consumers are
garbage-collected without keeping connections alive.  WSN <= 1.2 realizes
subscription expiry through these operations; WSN 1.3 and WS-Eventing carry
the same semantics natively (Renew / expiration in Subscribe).
"""

from __future__ import annotations

from typing import Optional

from repro.soap.fault import FaultCode, SoapFault
from repro.wsrf.resource import ResourceRegistry, WsResource
from repro.xmlkit.names import Namespaces, QName


class UnableToSetTerminationTimeFault(SoapFault):
    def __init__(self, reason: str) -> None:
        super().__init__(
            FaultCode.SENDER,
            reason,
            subcode=QName(Namespaces.WSRF_RL, "UnableToSetTerminationTimeFault"),
        )


def destroy_resource(registry: ResourceRegistry, resource: WsResource) -> None:
    """Immediate destruction; fires termination notifications."""
    registry.destroy(resource.key, reason="destroyed")


def set_termination_time(
    registry: ResourceRegistry,
    resource: WsResource,
    termination_time: Optional[float],
) -> float | None:
    """SetTerminationTime: absolute virtual-clock time, or ``None`` for infinite.

    Returns the new termination time.  Setting a time in the past is
    rejected (the spec's UnableToSetTerminationTime fault) rather than being
    treated as an immediate destroy.
    """
    now = registry.clock.now()
    if termination_time is not None and termination_time < now:
        raise UnableToSetTerminationTimeFault(
            f"requested termination time {termination_time} is in the past (now={now})"
        )
    resource.termination_time = termination_time
    registry.note_termination(resource)
    return termination_time
