"""Tracing: spans on the virtual clock with automatic parentage.

The whole simulation is synchronous, so span context is a plain stack: a
span opened while another is active becomes its child, which makes a
mediated publish come out as one connected tree

    deliver → dispatch → detect_spec / mediate → wsn.publish → deliver → ...

with no explicit context passing anywhere in the instrumented code.  A
delivery spans only what crosses the wire (the client's ``deliver``, the
endpoint's ``dispatch``); its attempt gets a ``delivery.attempt`` span only
where the stack has lost the lineage.
Timestamps come from the :class:`VirtualClock`, so traces are bit-for-bit
deterministic across runs.

The stack alone breaks wherever a message's life continues outside the call
stack that produced it — a delivery retry fired later by the scheduler, a
parked message drained by pull, a logical process boundary.  For those,
spans carry a **lineage**: an id minted at the root publish (``mint=True``)
that is inherited down the stack, carried across the wire in an HTTP header
(:mod:`repro.obs.propagation`), and re-established on the far side via
``remote=``, which links the new span under its wire-carried parent instead
of starting a disconnected root.  ``hop`` counts wire hops crossed since
the root publish.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.propagation import LineageContext


class Span:
    """One timed operation: name, attributes, start/end, parent linkage.

    A span is its own context manager — :meth:`Tracer.span` resolves
    parentage, pushes the span and returns it, and ``__exit__`` pops the
    tracer stack and stamps the end time.  That keeps the per-span cost to
    one object allocation plus two list operations (the previous
    ``contextlib`` generator added a helper object, a generator frame and
    two extra calls per span — measurable at notification rates).

    :meth:`Tracer.span` is the one constructor and fills every slot: besides
    the obvious ones, ``lineage`` is the id of the notification the span
    serves (``None`` = untraced), ``hop`` the wire hops crossed since the
    root publish, ``_tracer`` the owning tracer while the span is live on a
    stack, and ``_context`` the memoized continuation context.
    """

    __slots__ = (
        "span_id", "parent_id", "name", "attrs", "start", "end",
        "status", "error", "lineage", "hop", "_tracer", "_context",
    )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.fail(f"{exc_type.__name__}: {exc}")
        tracer = self._tracer
        if tracer is not None:
            self.end = tracer._now()
            tracer._stack.pop()
            self._tracer = None
        return False

    def set(self, key: str, value: str) -> None:
        """Attach an attribute discovered mid-span (e.g. the detected spec)."""
        self.attrs[key] = value

    def fail(self, reason: str) -> None:
        self.status = "error"
        self.error = reason

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> dict:
        record = {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
            "start": round(self.start, 9),
            "end": round(self.end, 9) if self.end is not None else None,
            "status": self.status,
        }
        if self.lineage is not None:
            record["lineage"] = self.lineage
            record["hop"] = self.hop
        if self.error is not None:
            record["error"] = self.error
        return record

    def __repr__(self) -> str:
        return f"Span(#{self.span_id} {self.name!r} parent={self.parent_id})"


class Tracer:
    """Produces spans and stores every finished one in memory."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self._now = clock.now  # pre-bound: read 2x per span
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1
        self._next_lineage = 1

    def span(
        self,
        name: str,
        *,
        remote: Optional["LineageContext"] = None,
        mint: bool = False,
        **attrs: str,
    ) -> Span:
        """Open a span under the current stack top (use as ``with tracer.
        span(...) as span:`` — the span pushes here and pops on exit).

        ``remote`` re-establishes a wire-carried context: when the live
        stack does not already carry that lineage (a retry, a drain, a
        fresh dispatch), the span parents under the remote parent span and
        adopts its lineage and hop instead of starting a disconnected root.
        ``mint`` marks a root-publish site: if no lineage is inherited, a
        fresh one is minted there (hop 0).
        """
        stack = self._stack
        if stack:
            top = stack[-1]
            parent = top.span_id
            lineage = top.lineage
            hop = top.hop
        else:
            parent = None
            lineage = None
            hop = 0
        if remote is not None:
            if lineage is None or lineage != remote.lineage_id:
                # the stack is not carrying this message's chain: link across
                parent = remote.parent_span
                lineage = remote.lineage_id
            # either way the wire-carried hop count is authoritative — on a
            # synchronous send the sender's frames are still on the stack,
            # but this dispatch is one wire hop further along
            hop = remote.hop
        if mint and lineage is None:
            # a fresh, deterministic lineage id: once per root publish
            lineage = f"lin-{self._next_lineage:08d}"
            self._next_lineage += 1
            hop = 0
        span_id = self._next_id
        self._next_id = span_id + 1
        # Span has no __init__: this is its one allocation site, and an
        # __init__ frame would be measurable at notification rates
        record = Span.__new__(Span)
        record.span_id = span_id
        record.parent_id = parent
        record.name = name
        record.attrs = attrs
        record.start = self._now()
        record.end = None
        record.status = "ok"
        record.error = None
        record.lineage = lineage
        record.hop = hop
        record._tracer = self
        record._context = None
        self.spans.append(record)
        stack.append(record)
        return record

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def continuation(self) -> Optional["LineageContext"]:
        """The current span's context, for same-process resumption (same
        hop).  ``None`` when no traced span is active.

        Memoized per span: a span's lineage/id/hop never change, and hot
        paths ask several times per notification (client inject, task
        stamping, ledger events)."""
        stack = self._stack
        if not stack:
            return None
        top = stack[-1]
        if top.lineage is None:
            return None
        context = top._context
        if context is None:
            from repro.obs.propagation import LineageContext

            context = top._context = LineageContext(
                top.lineage, top.span_id, top.hop
            )
        return context

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def spans_of_lineage(self, lineage_id: str) -> list[Span]:
        return [s for s in self.spans if s.lineage == lineage_id]

    def depth_of(self, span: Span) -> int:
        """Nesting depth (roots are 0) — connectivity check for tests."""
        by_id = {s.span_id: s for s in self.spans}
        depth = 0
        while span.parent_id is not None and span.parent_id in by_id:
            span = by_id[span.parent_id]
            depth += 1
        return depth

    def reset(self) -> None:
        """Drop finished spans (open spans keep their stack for nesting)."""
        self.spans = list(self._stack)

    def render_tree(self) -> str:
        """Indented text rendering of every span tree, in id order.

        A span whose parent closed in an earlier window (or lives across a
        wire/retry gap) renders as a root here; the lineage annotation keeps
        the chain readable.
        """
        lines: list[str] = []
        known = {s.span_id for s in self.spans}

        def walk(span: Span, indent: int) -> None:
            attrs = " ".join(
                f"{k}={span.attrs[k]}" for k in sorted(span.attrs)
            )
            lineage = (
                f" ~{span.lineage}@h{span.hop}" if span.lineage is not None else ""
            )
            flag = "" if span.status == "ok" else f" !{span.status}"
            lines.append(
                f"{'  ' * indent}{span.name}"
                f" [{span.start:.4f}s +{span.duration * 1000:.3f}ms]"
                f"{(' ' + attrs) if attrs else ''}{lineage}{flag}"
            )
            for child in self.children_of(span):
                walk(child, indent + 1)

        for span in self.spans:
            if span.parent_id is None or span.parent_id not in known:
                walk(span, 0)
        return "\n".join(lines)
