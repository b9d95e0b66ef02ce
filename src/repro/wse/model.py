"""WS-Eventing's names for the shared subscription state.

The record, the lease table and the delivery modes are the spec-neutral ones
of :mod:`repro.subscriptions`; what WS-Eventing adds is the status code a
SubscriptionEnd message carries.
"""

from __future__ import annotations

from enum import Enum

from repro.subscriptions import DeliveryMode

__all__ = ["DeliveryMode", "SubscriptionEndCode"]


class SubscriptionEndCode(Enum):
    """Status codes carried by a SubscriptionEnd message."""

    DELIVERY_FAILURE = "DeliveryFailure"
    SOURCE_SHUTTING_DOWN = "SourceShuttingDown"
    SOURCE_CANCELING = "SourceCanceling"
