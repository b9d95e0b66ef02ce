"""Message-shape mediation between WS-Eventing and WS-Notification.

Section V.4 enumerates six categories of format difference between the two
specifications.  This module holds the translation functions WS-Messenger
applies when a message produced under one spec must be consumed under the
other, plus an analyzer that *measures* those differences on live message
pairs (used by the message-format benchmark, experiment E6):

1. element/attribute names (``ReferenceParameters`` vs
   ``ReferenceProperties`` around the subscription id);
2. namespaces (spec namespaces and the WSA namespaces they import);
3. versions of underlying specifications (WSA 2004/08 vs 2005/08);
4. required message contents (different ``wsa:Action`` values);
5. SOAP structures (WSN's ``Notify``/``NotificationMessage``/``Message``
   nesting vs WSE's raw body);
6. content locations (the topic lives in the WSN *body* but would ride a
   SOAP *header* for WSE).

The spec-neutral form is the producer side's one notification value,
:class:`~repro.delivery.task.DeliveryItem` (payload + topic): what a
translation returns is what the fan-out settles and a message box parks.
Inbound, the payload is taken as parsed (the tree is the reader's): one
unwrapped from a Notify is frozen in place, a raw body the door copies once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.delivery.task import DeliveryItem
from repro.obs.instrument import NULL_INSTRUMENTATION
from repro.soap.envelope import SoapEnvelope
from repro.wsa.headers import extract_headers
from repro.wsn import messages as wsn_messages
from repro.wsn.versions import WsnVersion
from repro.xmlkit.element import XElem
from repro.xmlkit.names import QName

#: where the topic rides when a WSN notification is mediated to a WSE sink
#: (category 6: WSE has no body slot for it, so it becomes a SOAP header)
WSE_TOPIC_HEADER = QName("http://repro.invalid/mediation", "Topic")


# --- WSN -> neutral (-> WSE: the renderer's ``Entry("push", topic_header=WSE_TOPIC_HEADER)``)


def neutral_from_wsn_notify(
    body: XElem, version: WsnVersion, *, instrumentation=NULL_INSTRUMENTATION
) -> list[DeliveryItem]:
    """Unwrap a wsnt:Notify into neutral notifications (category 5)."""
    with instrumentation.span(
        "mediate", direction="wsn-to-neutral", version=version.name.lower()
    ):
        items = [
            DeliveryItem(item.payload.freeze(), item.topic)
            for item in wsn_messages.parse_notify(body, version)
        ]
    instrumentation.count(
        "mediation.messages", len(items), direction="wsn-to-neutral"
    )
    return items


# --- WSE -> neutral -> WSN --------------------------------------------------------------


def neutral_from_wse_envelope(
    envelope: SoapEnvelope, *, instrumentation=NULL_INSTRUMENTATION
) -> DeliveryItem:
    """Lift a raw WSE notification (topic in header, if any) to neutral form."""
    with instrumentation.span("mediate", direction="wse-to-neutral"):
        topic = envelope.header_text(WSE_TOPIC_HEADER)
        item = DeliveryItem(envelope.body_element(), topic)
    instrumentation.count("mediation.messages", direction="wse-to-neutral")
    return item


def wsn_notify_from_neutral(items: list[DeliveryItem], version: WsnVersion) -> XElem:
    """Render for a WSN consumer: wrapped Notify with topic in the body."""
    return wsn_messages.build_notify(version, wsn_messages.bare_messages(items))


def wsn_message_elements(items: list[DeliveryItem], version: WsnVersion) -> list[XElem]:
    """Render neutral items as bare ``NotificationMessage`` elements.

    Used by the delivery subsystem's message boxes: a ``GetMessagesResponse``
    carries NotificationMessage children directly (no ``Notify`` wrapper), so
    parked spec-neutral messages are re-rendered in the drain dialect here."""
    return list(wsn_notify_from_neutral(items, version).elements())


# --- difference analysis (experiment E6) ---------------------------------------------------


@dataclass
class FormatDifferenceReport:
    """Measured differences between a WSE message and its WSN counterpart."""

    element_name_differences: list[str] = field(default_factory=list)
    namespace_differences: list[str] = field(default_factory=list)
    wsa_version_difference: Optional[str] = None
    action_difference: Optional[str] = None
    structure_depth_difference: Optional[str] = None
    content_location_difference: Optional[str] = None

    def categories_present(self) -> list[int]:
        present = []
        if self.element_name_differences:
            present.append(1)
        if self.namespace_differences:
            present.append(2)
        if self.wsa_version_difference:
            present.append(3)
        if self.action_difference:
            present.append(4)
        if self.structure_depth_difference:
            present.append(5)
        if self.content_location_difference:
            present.append(6)
        return present


def _namespaces_of(element: XElem) -> set[str]:
    found = {element.name.namespace}
    for descendant in element.descendants():
        found.add(descendant.name.namespace)
    return {ns for ns in found if ns}


def _max_depth(element: XElem) -> int:
    children = list(element.elements())
    if not children:
        return 1
    return 1 + max(_max_depth(child) for child in children)


def _local_names(element: XElem) -> set[str]:
    names = {element.name.local}
    for descendant in element.descendants():
        names.add(descendant.name.local)
    return names


def compare_message_pair(
    wse_envelope: SoapEnvelope, wsn_envelope: SoapEnvelope
) -> FormatDifferenceReport:
    """Diff two corresponding messages across the six categories."""
    report = FormatDifferenceReport()
    wse_body = wse_envelope.body_element()
    wsn_body = wsn_envelope.body_element()

    # (1) element-name differences
    only_wse = _local_names(wse_body) - _local_names(wsn_body)
    only_wsn = _local_names(wsn_body) - _local_names(wse_body)
    report.element_name_differences = sorted(only_wse | only_wsn)

    # (2) namespace differences (bodies and headers)
    wse_ns = _namespaces_of(wse_body) | {
        block.name.namespace for block in wse_envelope.headers
    }
    wsn_ns = _namespaces_of(wsn_body) | {
        block.name.namespace for block in wsn_envelope.headers
    }
    report.namespace_differences = sorted((wse_ns | wsn_ns) - (wse_ns & wsn_ns))

    # (3) WSA version difference
    wsa_ns_wse = {ns for ns in wse_ns if "addressing" in ns}
    wsa_ns_wsn = {ns for ns in wsn_ns if "addressing" in ns}
    if wsa_ns_wse and wsa_ns_wsn and wsa_ns_wse != wsa_ns_wsn:
        report.wsa_version_difference = (
            f"{sorted(wsa_ns_wse)[0]} vs {sorted(wsa_ns_wsn)[0]}"
        )

    # (4) required action values
    try:
        wse_action = extract_headers(wse_envelope).action
        wsn_action = extract_headers(wsn_envelope).action
        if wse_action != wsn_action:
            report.action_difference = f"{wse_action} vs {wsn_action}"
    except ValueError:
        pass

    # (5) structure difference (nesting depth of the same semantic message)
    wse_depth, wsn_depth = _max_depth(wse_body), _max_depth(wsn_body)
    if wse_depth != wsn_depth:
        report.structure_depth_difference = (
            f"body depth {wse_depth} (WSE) vs {wsn_depth} (WSN)"
        )

    # (6) content location: semantic items present in one side's headers but
    # the other side's body (the Topic is the canonical case)
    wse_header_locals = {block.name.local for block in wse_envelope.headers}
    wsn_body_locals = _local_names(wsn_body)
    moved = (wse_header_locals & wsn_body_locals) - {"To", "Action", "MessageID"}
    if moved:
        report.content_location_difference = (
            f"{sorted(moved)} in WSE headers but WSN body"
        )
    return report
