"""A WS-ResourceFramework (WSRF) subset.

WS-Notification versions 1.0 and 1.2 *require* WSRF: a subscription is a
WS-Resource whose state (filter, termination time, paused flag...) is exposed
as resource properties, whose lifetime is managed via WSRF-ResourceLifetime,
and whose demise is announced by a WSRF ``TerminationNotification``.  Version
1.3 made WSRF optional by adding native Renew/Unsubscribe — one of the
convergence steps the paper tracks in Table 1.

This package implements the parts the notification stack needs:

- :mod:`repro.wsrf.resource` -- WS-Resources, resource property documents and
  the implied-resource-pattern registry (EPR reference parameters select the
  resource).
- :mod:`repro.wsrf.properties` -- GetResourceProperty, the one property
  operation a subscription manager mounts (WS-Notification's GetStatus).
- :mod:`repro.wsrf.lifetime` -- immediate ``Destroy`` and scheduled
  termination (``SetTerminationTime``); every death reaches the registry's
  one termination hook (how WSN <= 1.2 realizes WS-Eventing's
  SubscriptionEnd, per Table 2).
"""

from repro.wsrf.resource import ResourceKey, ResourceRegistry, WsResource, ResourceUnknownFault
from repro.wsrf.properties import get_resource_property, InvalidResourcePropertyFault
from repro.wsrf.lifetime import destroy_resource, set_termination_time

__all__ = [
    "WsResource",
    "ResourceKey",
    "ResourceRegistry",
    "ResourceUnknownFault",
    "get_resource_property",
    "InvalidResourcePropertyFault",
    "destroy_resource",
    "set_termination_time",
]
