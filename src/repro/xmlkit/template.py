"""Byte-templates: precompiled wire text with named splice slots.

The writer's frozen-subtree cache (:mod:`repro.xmlkit.writer`) already makes
a notification *payload* serialize once per publish.  At 100k subscribers the
remaining per-send cost is everything around the payload: building the SOAP
envelope tree and walking it.  A :class:`ByteTemplate` removes that walk for
the steady state: the envelope is serialized once with unique sentinel
strings standing in for the per-send fields (destination, message id, topic,
subscription id, payload), the text is split on those sentinels, and every
later send is a ``str.join`` over the cached segments with fresh slot values.

Compilation is strict: a sentinel that does not occur **exactly once** in the
serialized text raises :class:`TemplateSlotError`, and callers fall back to
the ordinary tree path — a payload that happens to contain a sentinel string
can therefore never corrupt the wire, it just loses the fast path.  Two
sentinels of which one contains the other can never both occur exactly once,
so they are refused by name before the text is looked at: the error then says
what is wrong instead of "occurs 2 times".
"""

from __future__ import annotations


class TemplateSlotError(ValueError):
    """A slot sentinel was missing, duplicated, or out of order."""


class TemplateStats:
    """Template-cache accounting (single-threaded, like ``WRITER_STATS``)."""

    __slots__ = ("hits", "misses", "fallbacks")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: renders served from a compiled template
        self.hits = 0
        #: cache misses that compiled a fresh template
        self.misses = 0
        #: sends that could not use a template at all (unfrozen payload,
        #: sentinel collision, envelope filter...)
        self.fallbacks = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fallbacks": self.fallbacks,
        }


TEMPLATE_STATS = TemplateStats()


class ByteTemplate:
    """Compiled text with ordered named slots; render is a single join."""

    __slots__ = ("segments", "slot_names")

    def __init__(self, segments: list[str], slot_names: tuple[str, ...]) -> None:
        self.segments = segments  # len(slot_names) + 1 pieces
        self.slot_names = slot_names

    @classmethod
    def compile(cls, text: str, slots: list[tuple[str, str]]) -> "ByteTemplate":
        """Split ``text`` on each ``(name, sentinel)``, in document order.

        No sentinel may contain another, every sentinel must occur exactly
        once in the whole text, and the slots must appear in the order given.
        Violations raise :class:`TemplateSlotError` so the caller can fall
        back.
        """
        for name, sentinel in slots:
            for other, inner in slots:
                if other != name and inner in sentinel:
                    raise TemplateSlotError(
                        f"slot {name!r}: sentinel contains the sentinel of slot {other!r}"
                    )
        segments: list[str] = []
        names: list[str] = []
        rest = text
        for name, sentinel in slots:
            if text.count(sentinel) != 1:
                raise TemplateSlotError(
                    f"slot {name!r}: sentinel occurs {text.count(sentinel)} times"
                )
            head, found, rest = rest.partition(sentinel)
            if not found:
                raise TemplateSlotError(f"slot {name!r}: sentinel out of order")
            segments.append(head)
            names.append(name)
        segments.append(rest)
        return cls(segments, tuple(names))

    def render(self, values: dict[str, str]) -> str:
        """Fill every slot; ``values`` must cover all slot names."""
        segments = self.segments
        parts: list[str] = [segments[0]]
        for i, name in enumerate(self.slot_names):
            parts.append(values[name])
            parts.append(segments[i + 1])
        return "".join(parts)
