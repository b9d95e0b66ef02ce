"""Subscription state shared by the WS-Eventing source and manager."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from repro.filters.base import Filter
from repro.qos.properties import QosProfile
from repro.transport.clock import VirtualClock
from repro.wsa.epr import EndpointReference
from repro.wse.versions import WseVersion
from repro.xmlkit.element import XElem


class DeliveryMode(Enum):
    """How notifications reach the sink."""

    PUSH = "Push"
    PULL = "Pull"
    WRAPPED = "Wrap"

    def uri(self, version: WseVersion) -> str:
        return f"{version.namespace}/DeliveryModes/{self.value}"

    @classmethod
    def from_uri(cls, uri: str, version: WseVersion) -> "DeliveryMode":
        for mode in cls:
            if mode.uri(version) == uri:
                return mode
        raise ValueError(f"unknown delivery mode URI: {uri!r}")


class SubscriptionEndCode(Enum):
    """Status codes carried by a SubscriptionEnd message."""

    DELIVERY_FAILURE = "DeliveryFailure"
    SOURCE_SHUTTING_DOWN = "SourceShuttingDown"
    SOURCE_CANCELING = "SourceCanceling"


@dataclass
class WseSubscription:
    """One live subscription at an event source."""

    id: str
    version: WseVersion
    notify_to: Optional[EndpointReference]  # None in pull mode
    mode: DeliveryMode
    filter: Filter
    #: absolute virtual-clock expiry; None = never expires
    expires: Optional[float] = None
    end_to: Optional[EndpointReference] = None
    #: pending messages (pull mode queue / wrapped mode batch)
    queue: list[XElem] = field(default_factory=list)
    ended: bool = False
    #: the QoS profile this consumer requested at Subscribe (accepted by
    #: the adaptive controller); None = broker defaults
    qos: Optional[QosProfile] = None

    def is_expired(self, now: float) -> bool:
        return self.expires is not None and now >= self.expires


class SubscriptionStore:
    """Subscriptions held by one event source, with soft-state expiry.

    ``on_end`` callbacks let the source emit SubscriptionEnd messages when a
    subscription dies for a reason other than Unsubscribe (expiry sweep,
    source shutdown, delivery failure) — the paper's Table 2 row
    "SubscriptionEnd".
    """

    def __init__(self, clock: VirtualClock, prefix: str = "wse-sub") -> None:
        self.clock = clock
        self._prefix = prefix
        self._serial = 0
        self._subscriptions: dict[str, WseSubscription] = {}
        # earliest-expiry heap of (expires, id); entries go stale when a
        # subscription is removed or renewed, and sweep_due skips them
        self._expiry_heap: list[tuple[float, str]] = []
        #: index-maintenance hooks fired on every create / removal (sweeps
        #: included), so the event source's topic index never goes stale
        self.on_created: list[Callable[[WseSubscription], None]] = []
        self.on_removed: list[Callable[[WseSubscription], None]] = []

    def create(self, *, sub_id: Optional[str] = None, **kwargs) -> WseSubscription:
        if sub_id is None:
            self._serial += 1
            sub_id = f"{self._prefix}-{self._serial}"
        else:
            # forced id (log replay): never re-mint it for a later create
            if sub_id in self._subscriptions:
                raise ValueError(f"subscription id {sub_id!r} already exists")
            tail = sub_id.rsplit("-", 1)[-1]
            if sub_id.startswith(f"{self._prefix}-") and tail.isdigit():
                self._serial = max(self._serial, int(tail))
        subscription = WseSubscription(id=sub_id, **kwargs)
        self._subscriptions[sub_id] = subscription
        self._note_expiry(subscription)
        for hook in self.on_created:
            hook(subscription)
        return subscription

    def _note_expiry(self, subscription: WseSubscription) -> None:
        if subscription.expires is not None:
            heapq.heappush(self._expiry_heap, (subscription.expires, subscription.id))

    def update_expiry(self, subscription: WseSubscription, expires: Optional[float]) -> None:
        """Renew: change ``expires`` and keep the expiry heap aware of it."""
        subscription.expires = expires
        self._note_expiry(subscription)

    def get(self, sub_id: str) -> Optional[WseSubscription]:
        subscription = self._subscriptions.get(sub_id)
        if subscription is None or subscription.is_expired(self.clock.now()):
            return None
        return subscription

    def remove(self, sub_id: str) -> Optional[WseSubscription]:
        subscription = self._subscriptions.pop(sub_id, None)
        if subscription is not None:
            for hook in self.on_removed:
                hook(subscription)
        return subscription

    def live(self) -> list[WseSubscription]:
        now = self.clock.now()
        return [s for s in self._subscriptions.values() if not s.is_expired(now)]

    def has_subscriptions(self) -> bool:
        """Whether any subscription (live or not-yet-swept) is present —
        the broker's zero-subscription fast-path check, O(1)."""
        return bool(self._subscriptions)

    def sweep_expired(self) -> list[WseSubscription]:
        """Drop (and return) expired subscriptions (full scan)."""
        now = self.clock.now()
        expired = [s for s in self._subscriptions.values() if s.is_expired(now)]
        for subscription in expired:
            del self._subscriptions[subscription.id]
            for hook in self.on_removed:
                hook(subscription)
        return expired

    def sweep_due(self) -> list[WseSubscription]:
        """Drop expired subscriptions by popping the expiry heap — amortized
        O(expired log n) per call; the publication hot path uses this."""
        now = self.clock.now()
        heap = self._expiry_heap
        expired: list[WseSubscription] = []
        while heap and heap[0][0] <= now:
            when, sub_id = heapq.heappop(heap)
            subscription = self._subscriptions.get(sub_id)
            if subscription is None or subscription.expires != when:
                continue  # stale entry (removed / renewed)
            del self._subscriptions[sub_id]
            for hook in self.on_removed:
                hook(subscription)
            expired.append(subscription)
        return expired

    def __len__(self) -> int:
        return len(self.live())
