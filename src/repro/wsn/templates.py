"""The wrapped Notify as a row of the rendering table (:mod:`repro.render`).

Items are ``(subscription id, NotificationMessage)`` pairs; each becomes one
``NotificationMessage`` chunk of the ``Notify`` body, which is what lets
delivery batching coalesce *n* notifications to one sink into one wire request
while staying byte-identical to :func:`repro.wsn.messages.build_notify`.  The
chunk template bakes in the two references a producer stamps on its own
messages — SubscriptionReference (manager address + ``wsrf:ResourceID``, the
id being a slot) and ProducerReference — so a message carrying anything else
has no template and is serialised as given.
"""

from __future__ import annotations

from repro.render import SUB_ID, TOPIC, CompiledEnvelope, Entry, TemplateCache, reference_shape
from repro.wsa.epr import EndpointReference
from repro.wsn.messages import NotificationMessage, build_notify
from repro.wsn.versions import WsnVersion
from repro.wsrf.resource import RESOURCE_ID
from repro.xmlkit.element import text_element

#: the names benchmarks/e2e/spans.py wraps, until its table is re-pointed
NotifyTemplateCache = TemplateCache
CompiledNotify = CompiledEnvelope


class NotifyEntry(Entry):
    """``Notify`` carrying one ``NotificationMessage`` per item."""

    def __init__(self, version: WsnVersion, address: str, manager_address: str) -> None:
        super().__init__("notify", batch=True)
        self.version = version
        self.address = address
        self.manager_address = manager_address

    def shape(self, items: list):
        first = items[0][1]
        shape = (first.topic is not None, first.topic_dialect)
        for sub_key, message in items:
            if (message.topic is not None, message.topic_dialect) != shape:
                return None
            if not self._own_references(sub_key, message):
                return None
        return shape

    def _own_references(self, sub_key: str, message: NotificationMessage) -> bool:
        """Whether the message's EPRs fold to exactly what the template bakes
        in (the producer's ``epr_for`` + its own EPR); anything else — e.g. a
        re-published message carrying foreign references — takes the tree
        path rather than having its references silently rewritten."""
        sref, pref = message.subscription_reference, message.producer_reference
        return (
            sref is not None
            and pref is not None
            and (pref.address, reference_shape(pref)) == (self.address, ())
            and (sref.address, reference_shape(sref))
            == (self.manager_address, (((RESOURCE_ID, (), (sub_key,)),), ()))
        )

    def parts(self, item):
        sub_key, message = item
        return sub_key, message.topic, message.payload

    def stand_in(self, item):
        message = item[1]
        reference = EndpointReference(self.manager_address).with_parameter(
            text_element(RESOURCE_ID, SUB_ID[1])
        )
        return SUB_ID[1], NotificationMessage(
            message.payload,
            topic=None if message.topic is None else TOPIC[1],
            topic_dialect=message.topic_dialect,
            subscription_reference=reference,
            producer_reference=EndpointReference(self.address),
        )

    def build(self, items: list):
        return [], build_notify(self.version, [message for _, message in items])
