"""Codec round-trip engine: ``parse(serialize(x)) == x`` and fixpoints.

Two case shapes:

- ``tree`` — a generated :class:`XElem` spec.  The tree must survive
  serialize→parse exactly (strict equality, whitespace included), the
  serialized form must be a fixpoint, and the frozen-payload splice cache
  must produce byte-identical output — including after the tree is grafted
  under a wrapper element that forces a different prefix mapping.
- ``raw`` — an adversarial raw XML document (CDATA, prefix shadowing, two
  prefixes on one namespace, default namespaces, entity/character
  references, mixed content).  Raw text is parsed first, so the property is
  on the *parsed* tree: serialize→parse must be the identity from there on.

Two hostile shapes, kept compact so a case is a line, not a 20 KB literal:

- ``deep`` — ``<a>`` nested ``depth`` times.  It either parses (and then
  round-trips like any raw document, through the tree's recursive walkers)
  or raises :class:`XmlParseError`; no other exception type may escape.
- ``reject`` — a document the parser must refuse, sent as its UTF-8 bytes
  (a Document Type Declaration, which SOAP forbids; an encoding declaration
  naming no usable codec): it must raise :class:`XmlParseError`, never parse
  and never raise anything else.
"""

from __future__ import annotations

from typing import Optional

from repro.conformance.gen import (
    gen_tree_spec,
    pick,
    spec_to_elem,
    strict_diff,
    valid_tree_spec,
)
from repro.util.rng import SeededRng
from repro.xmlkit.element import XElem
from repro.xmlkit.names import QName
from repro.xmlkit.parser import MAX_DEPTH, XmlParseError, parse_xml
from repro.xmlkit.writer import serialize_xml

# pre-escaped fragments safe to splice into raw markup text slots
_ESCAPED_POOL = ("t", "a b", "&amp;", "&lt;", "&#9;", "&#10;", "&#13;", "x&gt;y", "é", "")
# raw character data for CDATA sections ("]]>" would close the section;
# "\r" would be eaten by XML line-end normalization before the parser)
_CDATA_POOL = ("x", "a & b < c", "<not><markup>", " two]]brackets ", "line\nbreak", "")


# nesting depths around the parser's cap, plus one no recursive walker survives
_DEPTH_POOL = (1, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 2 * MAX_DEPTH, 3000)
_REJECT_POOL = (
    '<!DOCTYPE r [<!ENTITY a "expanded">]><r>&a;</r>',
    '<!DOCTYPE r [<!ENTITY a "aaaa"><!ENTITY b "&a;&a;&a;&a;">]><r>&b;</r>',
    '<!DOCTYPE r SYSTEM "http://repro.invalid/r.dtd"><r/>',
    "<!DOCTYPE r><r/>",
    '<?xml version="1.0" encoding="no-such-codec"?><r/>',
    '<?xml version="1.0" encoding="shift_jis"?><r/>',
)


def _gen_raw_xml(rng: SeededRng) -> str:
    kind = rng.randrange(7)
    fill = lambda: pick(rng, _ESCAPED_POOL)  # noqa: E731 — local shorthand
    if kind == 0:  # CDATA round-trip
        return f"<r a=\"{fill()}\"><![CDATA[{pick(rng, _CDATA_POOL)}]]></r>"
    if kind == 1:  # prefix shadowing: p rebinds mid-document
        return (
            f'<p:a xmlns:p="urn:one"><p:b xmlns:p="urn:two">{fill()}</p:b>'
            f'<p:c at="{fill()}"/></p:a>'
        )
    if kind == 2:  # one namespace, two prefixes, prefixed attribute
        return f'<a:x xmlns:a="urn:s" xmlns:b="urn:s" b:k="{fill()}"><b:y/></a:x>'
    if kind == 3:  # default namespace, undeclared again on a child
        return f'<x xmlns="urn:d" a="1"><y xmlns="">{fill()}</y><z/></x>'
    if kind == 4:  # entity and character references, attrs and text
        return f"<r a=\"&#9;{fill()}&#13;\">&amp;&lt;&#13;{fill()}&#10;</r>"
    if kind == 5:  # mixed content with interleaved text
        return f"<r>{fill()}<i>{fill()}</i>{fill()}<i/>{fill()}</r>"
    # comments and PIs are structure the parser deliberately drops; the
    # property holds on the parsed tree, which must stay stable thereafter
    return f"<r><!-- note -->{fill()}<?pi data?><i>{fill()}</i></r>"


class CodecEngine:
    name = "codec"

    def generate(self, rng: SeededRng) -> dict:
        roll = rng.randrange(30)
        if roll == 0:
            return {"kind": "deep", "depth": pick(rng, _DEPTH_POOL)}
        if roll == 1:
            return {"kind": "reject", "xml": pick(rng, _REJECT_POOL)}
        if roll % 3 == 0:
            return {"kind": "raw", "xml": _gen_raw_xml(rng)}
        return {"kind": "tree", "tree": gen_tree_spec(rng)}

    def check(self, case: object) -> Optional[str]:
        if not isinstance(case, dict):
            return None
        if case.get("kind") == "raw" and isinstance(case.get("xml"), str):
            return self._check_raw(case["xml"])
        if case.get("kind") == "tree" and valid_tree_spec(case.get("tree")):
            return self._check_tree(case["tree"])
        depth = case.get("depth")
        if case.get("kind") == "deep" and isinstance(depth, int) and 0 < depth <= 100_000:
            return self._check_raw("<a>" * depth + "</a>" * depth)
        if case.get("kind") == "reject" and isinstance(case.get("xml"), str):
            return self._check_rejected(case["xml"])
        return None  # not a case (shrinker wandered): vacuously passing

    # --- properties ------------------------------------------------------

    def _check_raw(self, xml: str) -> Optional[str]:
        try:
            first = parse_xml(xml)
        except XmlParseError:
            return None  # generator emitted well-formed XML; shrunk forms may not be
        return self._roundtrip(first, "raw")

    def _check_rejected(self, xml: str) -> Optional[str]:
        try:
            parse_xml(xml.encode("utf-8"))
        except XmlParseError:
            return None
        return f"reject: parsed a document the parser must refuse: {xml!r}"

    def _check_tree(self, spec: dict) -> Optional[str]:
        elem = spec_to_elem(spec)
        failure = self._roundtrip(elem, "tree")
        if failure is not None:
            return failure
        return self._check_frozen(spec, serialize_xml(elem))

    def _roundtrip(self, elem: XElem, label: str) -> Optional[str]:
        text = serialize_xml(elem)
        try:
            parsed = parse_xml(text)
        except XmlParseError as exc:
            return f"{label}: serialized form does not re-parse: {exc} in {text!r}"
        diff = strict_diff(elem, parsed)
        if diff is not None:
            return f"{label}: parse(serialize(x)) != x at {diff} (wire: {text!r})"
        again = serialize_xml(parsed)
        if again != text:
            return f"{label}: serialize not a fixpoint: {text!r} -> {again!r}"
        return None

    def _check_frozen(self, spec: dict, expected: str) -> Optional[str]:
        frozen = spec_to_elem(spec).freeze()
        first = serialize_xml(frozen)
        if first != expected:
            return f"frozen: differs from mutable serialization: {first!r} != {expected!r}"
        if serialize_xml(frozen) != expected:
            return f"frozen: splice-cache replay differs from first serialization"
        # graft under a wrapper that claims the first allocated prefix: the
        # cached splice must be re-rendered under the new prefix mapping
        wrapper = XElem(QName("urn:conf:wrap", "Wrap"), children=[frozen])
        wire = serialize_xml(wrapper)
        try:
            reparsed = parse_xml(wire)
        except XmlParseError as exc:
            return f"frozen: wrapped form does not re-parse: {exc} in {wire!r}"
        inner = next(reparsed.elements(), None)
        if inner is None:
            return f"frozen: wrapped payload vanished on re-parse: {wire!r}"
        diff = strict_diff(spec_to_elem(spec), inner)
        if diff is not None:
            return f"frozen: wrapped round-trip mismatch at {diff} (wire: {wire!r})"
        return None
