"""WS-Eventing, both released versions (01/2004 and 08/2004).

The 01/2004 release (Microsoft-led) is the minimal design: one *event
source* endpoint handles Subscribe/Renew/Unsubscribe, subscriptions are
identified by a bare ``wse:Id`` element, delivery is push-only, and expiry
may be given as a duration.

The 08/2004 release (joined by IBM, Sun, CA) is the convergence release the
paper analyses: it separates the *subscription manager* from the event
source, returns the subscription identifier inside the manager EPR's
``ReferenceParameters`` (WS-Notification's resource style), adds
``GetStatus``, allows wrapped delivery, and adds a pull delivery mode.

Public API:

- :class:`~repro.wse.source.EventSource` -- producer + publisher in one
  entity (WSE does not separate them; Fig. 1).
- :class:`~repro.wse.sink.EventSink` -- notification receiver.
- :class:`~repro.wse.subscriber.WseSubscriber` -- the client role that
  creates and manages subscriptions on behalf of sinks.
- :class:`~repro.wse.versions.WseVersion` -- version profile and feature
  flags (drives the Table 1 probes).
"""

from repro.wse.versions import WseVersion
from repro.wse.model import DeliveryMode, SubscriptionEndCode
from repro.wse.source import EventSource
from repro.wse.sink import EventSink
from repro.wse.subscriber import WseSubscriber

__all__ = [
    "WseVersion",
    "DeliveryMode",
    "SubscriptionEndCode",
    "EventSource",
    "EventSink",
    "WseSubscriber",
]
