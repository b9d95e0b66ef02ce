"""Property-based tests for the XML and XPath substrates."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.xmlkit import XPath, parse_xml, serialize_xml
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import QName
from repro.xmlkit.writer import XmlCharacterError
from repro.xmlkit.xpath.values import to_boolean, to_number, to_string

# --- generators ---------------------------------------------------------------

_locals = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,8}", fullmatch=True)
_namespaces = st.sampled_from(["", "urn:one", "urn:two"])
_qnames = st.builds(QName, _namespaces, _locals)
_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="\r"),
    max_size=20,
)


@st.composite
def elements(draw, depth=2):
    name = draw(_qnames)
    elem = XElem(name)
    for attr in draw(st.lists(_qnames, max_size=2, unique_by=lambda q: (q.namespace, q.local))):
        elem.attrs[attr] = draw(_texts)
    n_children = draw(st.integers(0, 3)) if depth > 0 else 0
    for _ in range(n_children):
        if depth > 0 and draw(st.booleans()):
            elem.append(draw(elements(depth=depth - 1)))
        else:
            text = draw(_texts)
            if text:
                if elem.children and isinstance(elem.children[-1], str):
                    # adjacent text siblings merge on re-parse (the split is
                    # unobservable on the wire), so generate them pre-merged
                    elem.children[-1] += text
                else:
                    elem.append(text)
    return elem


def _xml_char(c: str) -> bool:
    """XML 1.0's ``Char`` production, stated apart from the writer's check."""
    return c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"


def _writable(elem: XElem) -> bool:
    """Whether every attribute value and text of ``elem`` is XML 1.0 ``Char``s
    (the names come from an ASCII pattern)."""
    texts = list(elem.attrs.values())
    texts += [child for child in elem.children if isinstance(child, str)]
    return all(map(_xml_char, "".join(texts))) and all(
        _writable(child) for child in elem.children if isinstance(child, XElem)
    )


#: the strategy leaves out categories Cs and Cc only, so it can draw U+FFFF
_NONCHARACTER = text_element(QName("urn:one", "a"), "\uffff")


class TestSerializationRoundTrip:
    @given(elements())
    @example(_NONCHARACTER)
    @settings(max_examples=150, deadline=None)
    def test_parse_of_serialize_is_identity(self, elem):
        """The writer writes only what the parser reads back as written: a
        tree holding a character XML 1.0 forbids is refused, not written."""
        if not _writable(elem):
            with pytest.raises(XmlCharacterError):
                serialize_xml(elem)
            return
        assert parse_xml(serialize_xml(elem)) == elem

    @given(elements())
    @example(_NONCHARACTER)
    @settings(max_examples=60, deadline=None)
    def test_indented_serialization_equal_modulo_whitespace(self, elem):
        if not _writable(elem):
            with pytest.raises(XmlCharacterError):
                serialize_xml(elem, indent=True)
            return
        assert parse_xml(serialize_xml(elem, indent=True)) == elem

    @given(elements())
    @settings(max_examples=60, deadline=None)
    def test_copy_equals_original(self, elem):
        assert elem.copy() == elem


class TestXPathCoercions:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_number_string_roundtrip(self, x):
        assert to_number(to_string(float(x))) == float(x)

    @given(st.text(max_size=10))
    def test_string_boolean_is_nonempty(self, s):
        assert to_boolean(s) == (len(s) > 0)

    @given(st.floats())
    def test_number_boolean(self, x):
        expected = not (x == 0.0 or math.isnan(x))
        assert to_boolean(x) == expected

    @given(st.booleans())
    def test_boolean_number_string_identities(self, b):
        assert to_number(b) == (1.0 if b else 0.0)
        assert to_string(b) == ("true" if b else "false")


class TestXPathAgainstGeneratedTrees:
    @given(elements())
    @settings(max_examples=80, deadline=None)
    def test_star_counts_children(self, elem):
        expected = float(sum(1 for _ in elem.elements()))
        assert XPath("count(/*/*)").evaluate(elem) == expected

    @given(elements())
    @settings(max_examples=80, deadline=None)
    def test_descendant_count_matches_walk(self, elem):
        expected = float(1 + sum(1 for _ in elem.descendants()))
        assert XPath("count(//*) ").evaluate(elem) == expected

    @given(elements())
    @settings(max_examples=50, deadline=None)
    def test_string_value_matches_full_text(self, elem):
        assert XPath("string(/*)").evaluate(elem) == elem.full_text()

    @given(elements(), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_positional_predicate_within_bounds(self, elem, pos):
        result = XPath(f"/*/*[{pos}]").evaluate(elem)
        children = list(elem.elements())
        if pos <= len(children):
            assert result == [children[pos - 1]]
        else:
            assert result == []


class TestXPathParserTotality:
    @given(st.text(max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_never_crashes_with_unexpected_exception(self, text):
        from repro.xmlkit.xpath.errors import XPathError

        try:
            XPath(text)
        except XPathError:
            pass  # rejection is fine; anything else would fail the test
