"""The one renderer every specification family pushes through.

The paper's Table 2 and section VII say the families differ in message
*shape*, not mechanism; :mod:`repro.fanout` is the mechanism, this is the
shape.  Input: an :class:`Entry` (a row of the rendering table: wrapped
Notify, raw, push with the mediated topic header, wrapped batch), the wire
action, the subscription that addresses the request and the
``(subscription, item)`` pairs to carry.  Output: ready envelope
text, always — steady state a ``str.join`` over a compiled ``ByteTemplate``,
otherwise the envelope built as a tree and serialised *here*: for an unfrozen
payload, an installed ``envelope_filter``, items no one template fits (mixed
shapes) or a payload that contains a slot sentinel.  Both paths build the
tree through the same ``Entry.build``; the tree path alone is the oracle of
the byte-identity differentials.

Compiled entries are keyed by **shape** — entry, action, what the entry bakes
in (topic present, for a row that puts one on the wire), the fold of the
consumer EPR's reference parameters/properties (``()`` for a plain address),
the payload's namespace order — and ``wsa:To``, ``MessageID``, topic, subscription id and payload are
**slots**: see DESIGN.md, "Envelope byte-templates".

Control envelopes (the requests of ``SoapClient.call``, the replies handlers
return) leave through :func:`control_envelope`: the SOAP + WS-Addressing head
framed once per shape, the body a subtree spliced behind it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence

from repro.obs.instrument import BoundCounters
from repro.soap.codec import envelope_root, serialize_envelope
from repro.soap.envelope import SoapEnvelope, SoapVersion
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders, apply_headers, fresh_message_id
from repro.wsa.versions import WsaVersion
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import QName
from repro.xmlkit.template import TEMPLATE_STATS, ByteTemplate, TemplateSlotError
from repro.xmlkit.writer import (
    _escape_text,
    frozen_namespace_order,
    frozen_splice_text,
    namespace_order,
    serialize_subtree,
    serialize_with_allocator,
)

#: slot sentinels: URN-shaped so they are escape-invariant (no ``&<>\r``) and
#: can never collide with XML structure, closed by a ``.`` so none is a prefix
#: of another; a *payload* that happens to contain one is caught at compile
#: time and takes the tree path
TO = ("to", "urn:x-repro-template-slot:to.")
MESSAGE_ID = ("message_id", "urn:x-repro-template-slot:message-id.")
TOPIC = ("topic", "urn:x-repro-template-slot:topic.")
SUB_ID = ("sub_id", "urn:x-repro-template-slot:subscription-id.")
RELATES_TO = ("relates_to", "urn:x-repro-template-slot:relates-to.")
#: the subscription of a stand-in pair: its id is the sentinel
SLOT_SUBSCRIPTION = SimpleNamespace(key=SUB_ID[1])


def _fold(elem: XElem):
    """Structural identity of an element (name, attrs in wire order, children)."""
    return (
        elem.name,
        tuple(elem.attrs.items()),
        tuple(_fold(child) if isinstance(child, XElem) else child for child in elem.children),
    )


def reference_shape(epr: EndpointReference) -> tuple:
    """What an EPR makes a sender echo, as a hashable fold: ``()`` for a
    plain address, whose templates every sink therefore shares."""
    if not epr.reference_parameters and not epr.reference_properties:
        return ()
    return (
        tuple(_fold(e) for e in epr.reference_parameters),
        tuple(_fold(e) for e in epr.reference_properties),
    )


class Entry:
    """One row of the rendering table: how
    :class:`~repro.delivery.task.DeliveryItem` s become a message.  Items come
    as ``(subscription, item)`` pairs — one request may speak for several
    subscriptions of one sink — and a row reads the subscription only where
    its message names it.  A single-message entry carries one item, the
    payload as the body itself and its topic (if any) in the ``topic_header``
    SOAP header; a ``batch`` entry carries any number under the wrapper
    ``body`` builds (from the pairs), one *chunk* (a child of the wrapper)
    each."""

    def __init__(
        self,
        name: str,
        body: Optional[Callable[[list], XElem]] = None,
        *,
        topic_header: Optional[QName] = None,
        batch: bool = False,
    ) -> None:
        self.name = name
        self.body = body
        self.topic_header = topic_header
        self.batch = batch

    def shape(self, pairs: list):
        """What of ``pairs`` a template bakes in; None when no one fits them."""
        topical = pairs[0][1].topic is not None
        return topical if all((item.topic is not None) == topical for _, item in pairs) else None

    def parts(self, pair) -> tuple[Optional[str], Optional[str], XElem]:
        """The slot values of one pair: ``(subscription id, topic, payload)``."""
        item = pair[1]
        return None, item.topic, item.payload

    def stand_in(self, pair):
        """``pair`` with sentinels where its slots are."""
        item = pair[1]
        return SLOT_SUBSCRIPTION, replace(item, topic=None if item.topic is None else TOPIC[1])

    def build(self, pairs: list) -> tuple[list[XElem], XElem]:
        """``(extra SOAP headers, body)`` carrying ``pairs``."""
        item = pairs[0][1]
        payload, topic = item.payload, item.topic
        headers = []
        if topic is not None and self.topic_header is not None:
            headers.append(text_element(self.topic_header, topic))
        if self.body is not None:
            return headers, self.body(pairs)
        return headers, payload if payload.frozen else payload.copy()


class TopiclessEntry(Entry):
    """A row that puts no topic on the wire — WS-Notification's raw
    delivery, WS-Eventing's wrapped batch — so whether its items have one is
    no part of its shape."""

    def shape(self, pairs: list):
        return False


class CompiledEnvelope(NamedTuple):
    """One compiled shape: the envelope template and, for an entry that wraps
    its payloads, the template of one chunk."""

    envelope: ByteTemplate
    chunk: Optional[ByteTemplate]
    payload_mapping: tuple[str, ...]

    def render(self, to: str, message_id: str, parts: list[tuple]) -> str:
        """The envelope for ``parts`` = [(subscription id, topic, payload)...]."""
        envelope, chunk, mapping = self
        if chunk is None:
            items = [frozen_splice_text(payload, mapping) for _, _, payload in parts]
        else:
            items = [
                chunk.render(
                    {
                        "sub_id": _escape_text(sub_id or ""),
                        "topic": _escape_text(topic or ""),
                        "payload": frozen_splice_text(payload, mapping),
                    }
                )
                for sub_id, topic, payload in parts
            ]
        return envelope.render(
            {
                "to": _escape_text(to),
                "message_id": _escape_text(message_id),
                "topic": _escape_text(parts[0][1] or ""),
                "items": "".join(items),
            }
        )


class TemplateCache:
    """LRU cache of :class:`CompiledEnvelope` keyed by shape (``key[3]`` is
    the EPR's :func:`reference_shape`).  Only a key of an EPR that carries
    reference parameters is per-sink; those are dropped with the last
    subscription that rendered through them."""

    def __init__(self, *, capacity: int = 512) -> None:
        self.capacity = capacity
        self._templates: "OrderedDict[tuple, CompiledEnvelope]" = OrderedDict()
        #: per-sink keys <-> the subscriptions that rendered through them
        self._holders: dict[tuple, set[str]] = {}
        self._held: dict[str, set[tuple]] = {}

    def lookup(
        self, key: tuple, holder: Optional[str], compile: Callable[..., CompiledEnvelope], *args
    ) -> tuple[Optional[CompiledEnvelope], str]:
        """The compiled template for ``key`` plus an outcome tag: ``"hit"``,
        ``"miss"`` (``compile(*args)`` ran) or ``"fallback"`` (it refused — a
        sentinel collision — and the caller takes the tree path).  ``holder``
        is None for a framed head: only the LRU bound drops one."""
        compiled = self._templates.get(key)
        if compiled is not None:
            self._templates.move_to_end(key)
            TEMPLATE_STATS.hits += 1
            outcome = "hit"
        else:
            try:
                compiled = self._templates[key] = compile(*args)
            except TemplateSlotError:
                return None, "fallback"
            TEMPLATE_STATS.misses += 1
            outcome = "miss"
            if len(self._templates) > self.capacity:
                self._holders.pop(self._templates.popitem(last=False)[0], None)
        if holder is not None and key[3]:
            self._holders.setdefault(key, set()).add(holder)
            self._held.setdefault(holder, set()).add(key)
        return compiled, outcome

    def note_removed(self, sub_key: str) -> None:
        """A subscription ended (unsubscribe, expiry sweep, delivery failure,
        replayed removal): drop every per-sink template no other live
        subscription renders through."""
        for key in self._held.pop(sub_key, ()):
            holders = self._holders.get(key, set())
            holders.discard(sub_key)
            if not holders and self._holders.pop(key, None) is not None:
                self._templates.pop(key, None)

    def clear(self) -> None:
        """Drop everything (crash-recovery replay rebuilds the world)."""
        self._templates.clear()
        self._holders.clear()
        self._held.clear()

    def __len__(self) -> int:
        return len(self._templates)


class Renderer:
    """The renderer of one producer / event source, over its SOAP client."""

    def __init__(self, client, family: str) -> None:
        self.client = client
        self.family = family
        self.templates = TemplateCache()
        self._bound = BoundCounters()

    def render(self, entry: Entry, action: str, subscription, pairs: list) -> str:
        """The envelope text of one wire attempt.  Runs at attempt time, so
        the message id is minted exactly where a tree-built send mints it.
        Lineage never appears here: trace context rides the HTTP head, so the
        bytes match the uninstrumented envelope exactly."""
        consumer = subscription.consumer
        parts = [entry.parts(pair) for pair in pairs]
        payload = parts[0][2]
        compiled, outcome = None, "fallback"
        shape = entry.shape(pairs) if self.client.envelope_filter is None else None
        if shape is not None and payload.frozen:
            order = frozen_namespace_order(payload)
            if len(parts) == 1 or all(
                other is payload or (other.frozen and frozen_namespace_order(other) == order)
                for _, _, other in parts
            ):
                compiled, outcome = self.templates.lookup(
                    (entry.name, action, shape, reference_shape(consumer), order),
                    subscription.key, self._compile, entry, action, consumer, pairs[0],
                )
        instr = self.client.network.instrumentation
        if instr.enabled:
            name = "fanout.template_hits" if outcome == "hit" else "fanout.template_misses"
            self._bound.inc(instr, 1, name, "family", self.family)
        if compiled is None:
            TEMPLATE_STATS.fallbacks += 1
            headers, body = entry.build(pairs)
            envelope = self._envelope(
                action, consumer.address, fresh_message_id(), consumer, headers, body
            )
            if self.client.envelope_filter is not None:
                self.client.envelope_filter(envelope)
            return serialize_envelope(envelope)
        return compiled.render(consumer.address, fresh_message_id(), parts)

    def _envelope(
        self, action: str, to: str, message_id: str, consumer: EndpointReference,
        headers: list[XElem], body: XElem,
    ) -> SoapEnvelope:
        """The request envelope, built as ``SoapClient.call`` builds it."""
        envelope = SoapEnvelope(self.client.soap_version)
        addressing = MessageHeaders(to=to, action=action, message_id=message_id)
        addressing.echoed = [*consumer.reference_parameters, *consumer.reference_properties]
        apply_headers(envelope, addressing, self.client.wsa_version)
        for header in headers:
            envelope.add_header(header)
        envelope.add_body(body)
        return envelope

    def _compile(
        self, entry: Entry, action: str, consumer: EndpointReference, pair
    ) -> CompiledEnvelope:
        """Build the envelope of one stand-in pair exactly the way the tree
        path does, serialize it once, and split it at the sentinels."""
        payload = entry.parts(pair)[2]
        headers, body = entry.build([entry.stand_in(pair)])
        envelope = self._envelope(action, TO[1], MESSAGE_ID[1], consumer, headers, body)
        text, allocator = serialize_with_allocator(envelope_root(envelope))
        mapping = tuple(allocator.prefix_for(uri) for uri in frozen_namespace_order(payload))
        items_text = frozen_splice_text(payload, mapping)
        chunk = None
        chunk_elem = next(body.elements()) if entry.batch else body
        if chunk_elem is not payload:
            payload_text, items_text = items_text, serialize_subtree(chunk_elem, allocator)
            chunk = ByteTemplate.compile(
                items_text,
                [slot for slot in (SUB_ID, TOPIC) if slot[1] in items_text]
                + [("payload", payload_text)],
            )
        outer = ByteTemplate.compile(
            text, [TO, MESSAGE_ID, *([TOPIC] if headers else []), ("items", items_text)]
        )
        return CompiledEnvelope(outer, chunk, mapping)


# --- control envelopes: the framed head ----------------------------------------------

#: the heads every client's requests and every service's replies share (both
#: protocol versions are in the key): process-wide, like the compiled filters
FRAMES = TemplateCache()


def _compile_head(soap_version, wsa_version, headers: MessageHeaders, order: tuple):
    """``(head template, sealed prefix assignment)`` of one shape: the stand-in
    envelope is built exactly the way the tree path builds the real one —
    sentinels for the slot texts, for the body an element that uses
    ``order``'s namespaces in that order — and cut at the sentinels."""
    present = ((MESSAGE_ID, headers.message_id), (RELATES_TO, headers.relates_to))
    slots = [TO, *(slot for slot, value in present if value)]
    stand_in = MessageHeaders(
        TO[1], headers.action, headers.message_id and MESSAGE_ID[1],
        headers.relates_to and RELATES_TO[1], headers.reply_to, headers.fault_to,
    )
    for index, elem in enumerate(headers.echoed):
        if elem.children:
            slots.append((f"echo{index}", f"urn:x-repro-template-slot:echo-{index}."))
            elem = XElem(elem.name, elem.attrs, [slots[-1][1]])
        stand_in.echoed.append(elem)
    body = XElem(QName(order[0] if order else "", "body-slot"))
    body.extend(XElem(QName(uri, "body-slot")) for uri in order[1:])
    envelope = apply_headers(SoapEnvelope(soap_version), stand_in, wsa_version).add_body(body)
    text, allocator = serialize_with_allocator(envelope_root(envelope))
    allocator.sealed = True
    slots.append(("body", serialize_subtree(body, allocator)))
    return ByteTemplate.compile(text, slots), allocator


def _framed(soap_version, wsa_version, headers: MessageHeaders, body: XElem) -> Optional[str]:
    """``head template + serialize_subtree(body)``; None when no head fits: a
    reference parameter that nests an element, a sentinel collision, a body
    whose write wants a prefix the head never declared."""
    echoed = headers.echoed
    if any(not isinstance(child, str) for elem in echoed for child in elem.children):
        return None
    order = namespace_order(body)
    eprs = (headers.reply_to, headers.fault_to)  # baked in: a control call rarely names one
    key = (
        soap_version, wsa_version, headers.action,
        tuple((elem.name, tuple(elem.attrs.items()), not elem.children) for elem in echoed),
        bool(headers.message_id), bool(headers.relates_to), order,
        *(epr and (epr.address, reference_shape(epr)) for epr in eprs),
    )
    head, _ = FRAMES.lookup(key, None, _compile_head, soap_version, wsa_version, headers, order)
    if head is None:
        return None
    template, allocator = head
    try:
        values = {"body": serialize_subtree(body, allocator)}
    except LookupError:
        return None
    values["to"] = _escape_text(headers.to)
    values["message_id"] = _escape_text(headers.message_id or "")
    values["relates_to"] = _escape_text(headers.relates_to or "")
    for index, elem in enumerate(echoed):
        values[f"echo{index}"] = _escape_text("".join(elem.children))
    return template.render(values)


def control_envelope(
    soap_version: SoapVersion, wsa_version: WsaVersion, headers: MessageHeaders,
    body: Sequence[XElem], extra_headers: Sequence[XElem] = (),
    envelope_filter: Optional[Callable[[SoapEnvelope], None]] = None,
) -> str:
    """The text of one control request or reply under ``headers`` (minted by
    the caller, where a tree-built message mints them).  An ``envelope_filter``
    works on trees, ``extra_headers`` and a body of not exactly one element
    have no frame: those, and whatever :func:`_framed` declines, are the tree
    they always were."""
    if envelope_filter is None and not extra_headers and len(body) == 1:
        text = _framed(soap_version, wsa_version, headers, body[0])
        if text is not None:
            return text
    TEMPLATE_STATS.fallbacks += 1
    envelope = apply_headers(SoapEnvelope(soap_version), headers, wsa_version)
    for header in extra_headers:
        envelope.add_header(header.copy())
    for element in body:
        envelope.add_body(element)
    if envelope_filter is not None:
        envelope_filter(envelope)
    return serialize_envelope(envelope)


def reply_text(request: MessageHeaders, action: str, body: XElem, version: WsaVersion) -> str:
    """The response to ``request`` (what ``wsa.headers.reply_envelope`` builds), as text."""
    reply = MessageHeaders.reply(request, action, version)
    return control_envelope(SoapVersion.V11, version, reply, [body])
