"""Frozen-element semantics and the writer's frozen-subtree splice cache."""

import pytest

from repro.xmlkit.element import FrozenElementError, XElem, element, text_element
from repro.xmlkit.names import QName
from repro.xmlkit.parser import parse_xml
from repro.xmlkit.writer import WRITER_STATS, serialize_xml

NS = "urn:freeze-test"


def _payload() -> XElem:
    root = XElem(QName(NS, "report"), {QName("", "id"): "r-1"})
    root.append(text_element(QName(NS, "value"), "41 < 42 & \"quoted\""))
    root.append(element(QName(NS, "empty")))
    return root


class TestFreezeSemantics:
    def test_freeze_returns_self_and_marks_tree(self):
        root = _payload()
        assert not root.frozen
        assert root.freeze() is root
        assert root.frozen
        for child in root.elements():
            assert child.frozen

    def test_freeze_is_idempotent(self):
        root = _payload().freeze()
        assert root.freeze() is root

    def test_append_on_frozen_raises(self):
        root = _payload().freeze()
        with pytest.raises(FrozenElementError):
            root.append(text_element(QName(NS, "extra"), "x"))

    def test_set_on_frozen_raises(self):
        root = _payload().freeze()
        with pytest.raises(FrozenElementError):
            root.set(QName("", "id"), "r-2")

    def test_frozen_child_mutation_raises(self):
        root = _payload().freeze()
        child = next(root.elements())
        with pytest.raises(FrozenElementError):
            child.append("more")

    def test_frozen_error_is_a_type_error(self):
        # callers that guard mutation with TypeError keep working
        assert issubclass(FrozenElementError, TypeError)

    def test_copy_of_frozen_is_mutable_and_equal(self):
        root = _payload().freeze()
        dup = root.copy()
        assert not dup.frozen
        assert dup == root
        dup.append(text_element(QName(NS, "extra"), "x"))  # no raise
        assert dup != root

    def test_frozen_equals_unfrozen_twin(self):
        assert _payload().freeze() == _payload()

    def test_navigation_still_works_when_frozen(self):
        root = _payload().freeze()
        assert root.find(QName(NS, "value")) is not None
        assert root.full_text().startswith("41")
        assert len(list(root.descendants())) == 2

    def test_appending_frozen_child_to_mutable_parent_is_allowed(self):
        frozen = _payload().freeze()
        parent = XElem(QName(NS, "wrapper"))
        parent.append(frozen)
        assert next(parent.elements()) is frozen


class TestFrozenSerialization:
    def test_frozen_tree_serializes_identically(self):
        plain = serialize_xml(_payload())
        frozen = serialize_xml(_payload().freeze())
        assert frozen == plain

    def test_splice_inside_wrapper_is_byte_identical(self):
        wrapper_name = QName("urn:other", "Envelope")
        plain = serialize_xml(XElem(wrapper_name, children=[_payload()]))
        frozen_payload = _payload().freeze()
        first = serialize_xml(XElem(wrapper_name, children=[frozen_payload]))
        second = serialize_xml(XElem(wrapper_name, children=[frozen_payload]))
        assert first == plain
        assert second == plain

    def test_second_write_is_a_cache_splice(self):
        frozen_payload = _payload().freeze()
        wrapper_name = QName("urn:other", "Envelope")
        WRITER_STATS.reset()
        serialize_xml(XElem(wrapper_name, children=[frozen_payload]))
        assert WRITER_STATS.frozen_serializations == 1
        assert WRITER_STATS.frozen_splices == 0
        serialize_xml(XElem(wrapper_name, children=[frozen_payload]))
        assert WRITER_STATS.frozen_serializations == 1
        assert WRITER_STATS.frozen_splices == 1

    def test_a_frozen_root_written_standalone_touches_no_splice_cache(self):
        # the event log writes a door-frozen payload on its own: its children
        # must not be spliced (and re-primed) under the log's prefixes
        frozen_payload = _payload().freeze()
        WRITER_STATS.reset()
        assert serialize_xml(frozen_payload) == serialize_xml(_payload())
        assert serialize_xml(frozen_payload) == serialize_xml(_payload())
        assert (WRITER_STATS.frozen_serializations, WRITER_STATS.frozen_splices) == (0, 0)
        assert all(child._fcache[2] is None for child in frozen_payload.elements())

    def test_prefix_context_change_refills_cache_correctly(self):
        # first wrapper gives the payload namespace prefix ns1; a wrapper in
        # the payload's own namespace gives it ns0 — the cache must miss and
        # re-serialize under the new assignment, still byte-correct
        frozen_payload = _payload().freeze()
        neutral = QName("urn:other", "Envelope")
        colliding = QName(NS, "Outer")
        serialize_xml(XElem(neutral, children=[frozen_payload]))
        WRITER_STATS.reset()
        got = serialize_xml(XElem(colliding, children=[frozen_payload]))
        want = serialize_xml(XElem(colliding, children=[_payload()]))
        assert got == want
        assert WRITER_STATS.frozen_serializations == 1  # cache miss, refilled

    def test_indented_output_bypasses_the_cache(self):
        frozen_payload = _payload().freeze()
        wrapper = XElem(QName("urn:other", "Envelope"), children=[frozen_payload])
        want = serialize_xml(
            XElem(QName("urn:other", "Envelope"), children=[_payload()]), indent=True
        )
        assert serialize_xml(wrapper, indent=True) == want

    def test_parse_roundtrip_of_spliced_output(self):
        frozen_payload = _payload().freeze()
        wrapper = XElem(QName("urn:other", "Envelope"), children=[frozen_payload])
        serialize_xml(wrapper)  # prime the cache
        reparsed = parse_xml(serialize_xml(wrapper))
        assert reparsed == wrapper
