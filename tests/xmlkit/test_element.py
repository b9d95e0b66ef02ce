"""Tests for the XElem element tree."""

import pytest

from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import QName

A = QName("urn:t", "a")
B = QName("urn:t", "b")
C = QName("urn:t", "c")


def make_tree():
    root = XElem(A)
    root.append(text_element(B, "one"))
    root.append("gap")
    root.append(text_element(B, "two"))
    root.append(XElem(C, children=[text_element(B, "nested")]))
    return root


class TestConstruction:
    def test_name_must_be_qname(self):
        with pytest.raises(TypeError):
            XElem("a")  # type: ignore[arg-type]

    def test_child_type_checked(self):
        with pytest.raises(TypeError):
            XElem(A).append(42)  # type: ignore[arg-type]

    def test_append_chains(self):
        root = XElem(A).append("x").append(XElem(B))
        assert len(root.children) == 2

    def test_set_attribute(self):
        root = XElem(A).set(QName("", "id"), "7")
        assert root.attrs[QName("", "id")] == "7"


class TestNavigation:
    def test_find_first(self):
        tree = make_tree()
        assert tree.find(B).text() == "one"

    def test_find_missing_is_none(self):
        assert make_tree().find(QName("urn:t", "zzz")) is None

    def test_find_all(self):
        assert [e.text() for e in make_tree().find_all(B)] == ["one", "two"]

    def test_require_raises(self):
        with pytest.raises(KeyError):
            make_tree().require(QName("urn:t", "zzz"))

    def test_descendants_depth_first(self):
        names = [e.name.local for e in make_tree().descendants()]
        assert names == ["b", "b", "c", "b"]

    def test_elements_skips_text(self):
        assert all(isinstance(e, XElem) for e in make_tree().elements())


class TestText:
    def test_direct_text(self):
        assert make_tree().text() == "gap"

    def test_full_text_includes_descendants(self):
        assert make_tree().full_text() == "onegaptwonested"


class TestEqualityAndCopy:
    def test_structural_equality(self):
        assert make_tree() == make_tree()

    def test_whitespace_insensitive_equality(self):
        left = XElem(A, children=[text_element(B, "x")])
        right = XElem(A, children=["  \n ", text_element(B, "x"), "\t"])
        assert left == right

    def test_adjacent_text_merged_for_equality(self):
        left = XElem(A, children=["ab"])
        right = XElem(A, children=["a", "b"])
        assert left == right

    def test_attr_difference_breaks_equality(self):
        left = make_tree()
        right = make_tree()
        right.set(QName("", "x"), "1")
        assert left != right

    def test_copy_is_deep(self):
        original = make_tree()
        dup = original.copy()
        assert dup == original
        dup.find(C).append(text_element(B, "extra"))
        assert dup != original
