"""Delivery-outcome reporting: no failure is ever invisible.

Before this subsystem existed, the WSE source and WSN producer swallowed
push failures in bare ``except (NetworkError, SoapFault): pass`` blocks —
exactly the silent drop the paper's "reliable" broker claim forbids.  Every
failure now produces a :class:`DeliveryFailure` record on the owning
component's ``delivery_failures`` list and bumps the ``delivery.failed_total``
obs counter, whether or not a :class:`DeliveryManager` (reliability) is
attached.  The record is deliberately tiny: components keep it even in
uninstrumented runs, so tests and operators can always answer "what did we
fail to deliver, to whom, and why".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.soap.fault import SoapFault
from repro.transport.network import NetworkError


@dataclass(frozen=True)
class DeliveryFailure:
    """One failed outbound send, recorded where it happened."""

    #: virtual-clock time of the failure
    at: float
    #: protocol family label ("wse"/"wsn")
    family: str
    #: which pipeline stage failed ("notify", "subscription_end",
    #: "termination_notification", ...)
    stage: str
    #: target address
    sink: str
    #: ``type(exc).__name__`` — stable across runs, unlike stringified args
    kind: str
    detail: str = ""


def record_failure(
    failures: list[DeliveryFailure],
    instrumentation,
    *,
    at: float,
    family: str,
    stage: str,
    sink: str,
    error: Exception,
) -> DeliveryFailure:
    """Append a failure record and count it; returns the record."""
    failure = DeliveryFailure(
        at=at,
        family=family,
        stage=stage,
        sink=sink,
        kind=type(error).__name__,
        detail=str(error),
    )
    failures.append(failure)
    instrumentation.count(
        "delivery.failed_total", family=family, stage=stage, kind=failure.kind
    )
    return failure


def attempt_directly(
    instrumentation, send: Callable[[], None], sink: str, family: str, lineages: Sequence
) -> Optional[Exception]:
    """One wire attempt outside the delivery manager (best-effort fan-out, a
    mesh forward), with its obligation opened and closed right here: every
    lineage is ledgered ``enqueued -> attempted -> delivered | failed``.

    Returns the ``NetworkError`` / ``SoapFault`` that failed the attempt —
    the caller decides what a failure means — or None on success.  Anything
    else ``send`` raises is not a delivery failure and passes through."""
    for lineage in lineages:
        instrumentation.lineage_event(lineage.lineage_id, "enqueued", sink=sink, family=family)
        instrumentation.lineage_event(lineage.lineage_id, "attempted", n=1, sink=sink)
    try:
        send()
    except (NetworkError, SoapFault) as exc:
        for lineage in lineages:
            instrumentation.lineage_event(
                lineage.lineage_id, "failed", sink=sink, reason=type(exc).__name__
            )
        return exc
    for lineage in lineages:
        instrumentation.lineage_delivered(
            lineage.lineage_id, family=family, hops=lineage.hop + 1, sink=sink
        )
    return None
