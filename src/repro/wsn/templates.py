"""The wrapped Notify as a row of the rendering table (:mod:`repro.render`).

Each ``(subscription, DeliveryItem)`` pair becomes one
``NotificationMessage`` chunk of the ``Notify`` body, which is what lets
delivery batching coalesce *n* notifications to one sink into one wire request
while staying byte-identical to :func:`repro.wsn.messages.build_notify`.  The
two references a producer stamps on its own messages — SubscriptionReference
(manager address + ``wsrf:ResourceID``, the id being a slot) and
ProducerReference — are this row's to write, so the ``NotificationMessage``
and its references are built only where a tree is: compiling a template, or
the tree path.
"""

from __future__ import annotations

from repro.render import CompiledEnvelope, Entry, TemplateCache
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

    def parts(self, pair):
        subscription, item = pair
        return subscription.key, item.topic, item.payload

    def build(self, pairs: list):
        producer = EndpointReference(self.address)
        return [], build_notify(
            self.version,
            [
                NotificationMessage(
                    item.payload,
                    topic=item.topic,
                    subscription_reference=EndpointReference(self.manager_address).with_parameter(
                        text_element(RESOURCE_ID, subscription.key)
                    ),
                    producer_reference=producer,
                )
                for subscription, item in pairs
            ],
        )
