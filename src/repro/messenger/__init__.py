"""WS-Messenger: the paper's mediation broker (section VII).

WS-Messenger is "the first open source project that supports two competing
Web services specifications and provides mediation between them".  This
package reproduces its architecture:

- :mod:`repro.messenger.detection` -- "WS-Messenger automatically detects
  which specification the incoming SOAP messages use": classify an envelope
  as WS-Eventing 01/2004 or 08/2004, or WS-BaseNotification 1.0/1.2/1.3,
  from its body/header namespaces.
- :mod:`repro.messenger.broker` -- the broker proper.  One front-door
  endpoint accepts subscriptions and publications in *any* supported spec
  version; "response messages follow the same specifications as request
  messages"; each consumer receives notifications "following the expected
  specifications of the target event consumers", determined by the spec of
  its subscription request.
- :mod:`repro.messenger.mediation` -- the message-shape translations across
  the six difference categories of section V.4 (element names, namespaces,
  WSA versions, action values, structures, content locations).
- :mod:`repro.messenger.adapters` -- the "generic interface that can use
  existing publish/subscribe systems as the underlying message systems":
  backbones over the in-memory fabric, the JMS baseline and the CORBA
  Notification baseline.
"""

from repro.messenger.detection import DetectedSpec, SpecFamily, detect_spec
from repro.messenger.broker import WsMessenger
from repro.messenger.adapters import (
    CorbaBackbone,
    InMemoryBackbone,
    JmsBackbone,
    MessagingBackbone,
)

__all__ = [
    "WsMessenger",
    "detect_spec",
    "DetectedSpec",
    "SpecFamily",
    "MessagingBackbone",
    "InMemoryBackbone",
    "JmsBackbone",
    "CorbaBackbone",
]
