"""Deterministic wire-fidelity conformance fuzzing.

The paper's comparison rests entirely on what the two spec families put on
the wire, so the codec, the HTTP framing, the subscription lifecycle, pull
draining, and the delivery paths through a broker, a mesh and a crash each
get a property-based fuzz engine here.  Everything is a pure function of
``(seed, case index)``: generators draw from
:class:`repro.util.rng.SeededRng`, scenarios run on the virtual clock, and
the report renders byte-identically across runs at the same seed.

Seven engines:

- ``codec`` — generated :class:`XElem` trees and adversarial raw XML must
  satisfy ``parse(serialize(x)) == x`` and serialize to a fixpoint, frozen
  payloads and prefix remapping included;
- ``durability`` — a store-backed broker crashed mid-stream and rebuilt
  from its log must deliver what an uninterrupted broker does;
- ``framing`` — generated HTTP requests/responses with adversarial
  ``Content-Length``, non-ASCII headers, and embedded ``CRLFCRLF`` must
  parse-or-``HttpFramingError``, never silently truncate;
- ``lifecycle`` — generated subscribe/renew/unsubscribe/expiry schedules
  against the WSE source and the WSN producer, asserting the virtual-clock
  invariants (no delivery after expiry, renew extends exactly, invalid
  ``Expires`` faults per spec);
- ``mediation`` — one generated publish stream through the WS-Messenger
  broker must reach a WSE sink and a WSN consumer payload-identical to
  what was published;
- ``mesh`` — a 3-shard mesh with randomized entry shards and consumer
  homes must deliver what a single broker does;
- ``pulldrain`` — generated drain sequences against every pull-style
  surface (message boxes, WSN pull points, WSE pull-mode subscriptions)
  must honour the "at most N" contract: omitted means all, zero/negative
  means nothing, non-numeric is a Sender fault, order is FIFO.

``mediation``, ``mesh`` and ``durability`` are cells of one differential,
:mod:`repro.conformance.differential`: one stream vocabulary, one pair of
receivers at a broker's front door, one comparison.

Every counterexample is shrunk by greedy deletion and can be frozen as a
regression corpus file under ``tests/conformance/corpus/`` — a bug found
once stays found.  Run as ``python -m repro conformance --seed N --cases M``.
"""

from repro.conformance.harness import (
    ENGINES,
    ConformanceReport,
    load_corpus,
    run_conformance,
    run_corpus,
)

__all__ = [
    "ENGINES",
    "ConformanceReport",
    "load_corpus",
    "run_conformance",
    "run_corpus",
]
