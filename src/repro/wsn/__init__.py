"""WS-Notification: WS-BaseNotification 1.0/1.2/1.3, WS-Topics,
WS-BrokeredNotification and pull points.

The family splits the paper's Fig. 2 roles into separate entities:

- **NotificationProducer** (:mod:`repro.wsn.producer`) accepts Subscribe and
  emits notifications; unlike WS-Eventing it is distinct from the
  **Publisher**, which merely hands events to a producer/broker.
- **SubscriptionManager** handles Renew/Unsubscribe (native in 1.3;
  via WSRF resource lifetime in 1.0/1.2) plus the WSN-only
  Pause/ResumeSubscription.
- **NotificationConsumer** (:mod:`repro.wsn.consumer`) receives ``Notify``
  (wrapped) or raw messages.
- **WS-BrokeredNotification** — publisher registration and demand-based
  publishing — is the mediation broker's (:mod:`repro.messenger.registration`):
  RegisterPublisher / DestroyRegistration are rows of its 1.3 table
  (:func:`repro.wsn.producer.operations` with ``brokered``), and
  :class:`WsnSubscriber` has the two verbs.
- **PullPoint** (:mod:`repro.wsn.pullpoint`, 1.3 only) lets firewalled
  consumers poll for messages.

Version differences (Table 1) are driven by
:class:`~repro.wsn.versions.WsnVersion`: 1.0/1.2 require WSRF and a topic in
every subscription and mandate pause/resume; 1.3 drops the WSRF dependency,
adds Unsubscribe/Renew, the XPath message-content dialect, duration
expirations and the PullPoint interface.
"""

from repro.wsn.versions import WsnVersion
from repro.wsn.producer import NotificationProducer
from repro.wsn.consumer import NotificationConsumer
from repro.wsn.subscriber import WsnSubscriber
from repro.wsn.pullpoint import PullPointFactory, PullPointClient

__all__ = [
    "WsnVersion",
    "NotificationProducer",
    "NotificationConsumer",
    "WsnSubscriber",
    "PullPointFactory",
    "PullPointClient",
]
