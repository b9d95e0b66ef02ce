"""The direct-build expat parser against the parser it replaced.

``_oracle_parse`` is the retired implementation, kept here as the reference:
let ElementTree build its own tree, then convert it recursively.  The
product parser must give the same tree -- names, attribute order, the exact
text chunks -- and the same :class:`XmlParseError` text, for everything the
old one accepted or refused.  What the new one refuses on purpose (DOCTYPE,
runaway nesting, unusable encoding declarations) is pinned at the end.
"""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.conformance.codec_engine import CodecEngine
from repro.conformance.gen import spec_to_elem, strict_diff
from repro.util.rng import SeededRng
from repro.xmlkit import parser
from repro.xmlkit.element import XElem
from repro.xmlkit.names import QName
from repro.xmlkit.parser import MAX_DEPTH, XmlParseError, parse_xml
from repro.xmlkit.writer import XmlCharacterError, serialize_xml
from repro.xmlkit.xpath import XPath


def _oracle_parse(text) -> XElem:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlParseError(f"malformed XML: {exc}") from exc
    return _convert(root)


def _convert(node: ET.Element) -> XElem:
    elem = XElem(QName.from_clark(node.tag))
    for key, value in node.attrib.items():
        elem.attrs[QName.from_clark(key)] = value
    if node.text:
        elem.append(node.text)
    for child in node:
        elem.append(_convert(child))
        if child.tail:
            elem.append(child.tail)
    return elem


def _exact(elem: XElem):
    """The tree as nested tuples: attribute order and text-chunk boundaries
    included, which ``strict_diff`` (adjacent text merged) does not see."""
    return (
        elem.name,
        tuple(elem.attrs.items()),
        tuple(child if isinstance(child, str) else _exact(child) for child in elem.children),
    )


def assert_same_tree(text) -> XElem:
    expected, actual = _oracle_parse(text), parse_xml(text)
    assert strict_diff(expected, actual) is None
    assert _exact(actual) == _exact(expected)
    return actual


def _engine_raw_pool() -> list[str]:
    engine = CodecEngine()
    rng = SeededRng(2006)
    cases = (engine.generate(rng.fork(f"raw/{index}")) for index in range(1500))
    return sorted({case["xml"] for case in cases if case["kind"] == "raw"})


HANDWRITTEN = [
    "<r/>",
    "<r></r>",
    "<r> </r>",
    "<r>a<![CDATA[<b> & ]]>c</r>",
    "<r><![CDATA[]]></r>",
    "<r>a<!-- note -->b<?pi data?>c<i/>d<!-- tail -->e</r>",
    "<!-- before --><r/><!-- after -->",
    "<?xml version='1.0'?>\n<r>\n  <i>x</i>\n  <i/>\n</r>\n",
    '<p:a xmlns:p="urn:one"><p:b xmlns:p="urn:two">t</p:b><p:c at="v"/></p:a>',
    '<a:x xmlns:a="urn:s" xmlns:b="urn:s" b:k="v" a:j="w" plain="p"><b:y/></a:x>',
    '<x xmlns="urn:d" a="1"><y xmlns="">t</y><z/></x>',
    '<r a="&#9;x&#13;&lt;&quot;">&amp;&lt;&gt;&#13;&#10;&#x20AC;</r>',
    '<r xml:lang="en" xml:space="preserve"> kept </r>',
    '<r a=" two  spaces\tand\nnewline "/>',
    "<r>line\r\nend\rmixed</r>",
    "<r>" + "x" * 70_000 + "</r>",  # longer than expat's text buffer
    " \n<!-- before -->\n<r> <i/> </r>\n<!-- after --> \n",
    "<r>a&amp;b&#65;c&#x42;d&lt;<i/>e&gt;&#10;f&#x20AC;g</r>",  # runs split by references
    "<r><a/>" + "line\n" * 4000 + "<b/></r>",  # a many-line run longer than expat's default buffer
    "<r><a/>" + "\U0001F600\n" * 3000 + "<b/></r>",  # its UTF-8 outgrows the document
    "<r>" + "<i>t</i>tail" * 300 + "</r>",
]


class TestSameTreeAsTheRetiredParser:
    @pytest.mark.parametrize("xml", HANDWRITTEN)
    def test_handwritten_documents(self, xml):
        assert_same_tree(xml)
        assert_same_tree(xml.encode("utf-8"))

    def test_codec_engine_raw_pool(self):
        pool = _engine_raw_pool()
        assert len(pool) > 100
        for xml in pool:
            assert_same_tree(xml)

    def test_text_split_by_comments_and_cdata_is_one_chunk(self):
        root = assert_same_tree("<r>a<!-- c -->b<![CDATA[c]]>d<?p?>e<i/>f<!-- c -->g</r>")
        assert [c for c in root.children if isinstance(c, str)] == ["abcde", "fg"]

    @pytest.mark.parametrize(
        "encoding, codec",
        [
            ("utf-8", "utf-8"),
            ("iso-8859-1", "latin-1"),
            ("windows-1252", "cp1252"),
            ("utf-16", "utf-16"),
            ("us-ascii", "ascii"),
        ],
    )
    def test_bytes_with_an_encoding_declaration(self, encoding, codec):
        content = "café" if codec != "ascii" else "cafe"
        xml = f'<?xml version="1.0" encoding="{encoding}"?><r a="{content}">{content}</r>'
        root = assert_same_tree(xml.encode(codec))
        assert root.text() == content

    def test_str_input_ignores_the_encoding_declaration(self):
        root = assert_same_tree('<?xml version="1.0" encoding="iso-8859-1"?><r>€é</r>')
        assert root.text() == "€é"

    def test_utf8_byte_order_mark(self):
        assert assert_same_tree(b"\xef\xbb\xbf<r>x</r>").text() == "x"


_names = st.sampled_from(["a", "b", "Item", "x-y", "_u", "n1"])
_namespaces = st.sampled_from(["", "urn:one", "urn:two", "http://example.org/ns?a=1&b=2"])
_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="\r"),
    max_size=12,
) | st.sampled_from([" ", "\n\t", "a & b < c", "]]>", "&amp;"])


def _specs(children):
    return st.fixed_dictionaries(
        {
            "ns": _namespaces,
            "local": _names,
            "attrs": st.lists(
                st.tuples(_namespaces, _names, _texts).map(list),
                max_size=3,
                unique_by=lambda attr: (attr[0], attr[1]),
            ),
            "children": st.lists(children, max_size=4),
        }
    )


_tree_specs = st.recursive(_specs(_texts), lambda inner: _specs(inner | _texts), max_leaves=12)


def _xml_char(c: str) -> bool:
    """XML 1.0's ``Char`` production, stated apart from the writer's check."""
    return c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"


def _writable(spec) -> bool:
    """Whether every text and attribute value of ``spec`` is XML 1.0 ``Char``s
    (names and namespaces come from fixed ASCII lists)."""
    if isinstance(spec, str):
        return all(map(_xml_char, spec))
    return all(_writable(value) for _, _, value in spec["attrs"]) and all(
        map(_writable, spec["children"])
    )


class TestHypothesisTrees:
    @given(_tree_specs)
    # the text strategy leaves out categories Cs and Cc only, so it can draw U+FFFF
    @example({"ns": "", "local": "a", "attrs": [["", "b", "\uffff"]], "children": []})
    @settings(max_examples=200, deadline=None)
    def test_serialized_trees_parse_identically(self, spec):
        """A tree holding a character XML 1.0 forbids is refused, not written."""
        if not _writable(spec):
            with pytest.raises(XmlCharacterError):
                serialize_xml(spec_to_elem(spec), xml_declaration=True)
            return
        wire = serialize_xml(spec_to_elem(spec), xml_declaration=True)
        assert_same_tree(wire)
        assert_same_tree(wire.encode("utf-8"))


MALFORMED = [
    "",
    b"",
    "   ",
    "<r>",
    "<r><i></r>",
    "<r a='1'",
    "<r></s>",
    "<p:r/>",
    '<r p:a="1"/>',
    "<r/><r/>",
    "<r/>junk",
    '<r a="1" a="2"/>',
    '<a:x xmlns:a="urn:s" xmlns:b="urn:s" a:k="1" b:k="2"/>',
    "<r>&nbsp;</r>",
    "<r>\x00</r>",
    b"<r>\xff</r>",
    '<?xml version="1.0" encoding="utf-8"?><r>'.encode("utf-8"),
    '<?xml version="1.0" encoding="utf-16"?><r/>'.encode("utf-8"),
]


class TestSameErrors:
    @pytest.mark.parametrize("text", MALFORMED, ids=[repr(text)[:24] for text in MALFORMED])
    def test_same_parse_error(self, text):
        with pytest.raises(XmlParseError) as expected:
            _oracle_parse(text)
        with pytest.raises(XmlParseError) as actual:
            parse_xml(text)
        assert str(actual.value) == str(expected.value)


class TestRefusedOnPurpose:
    """Where the parser deliberately parts with the retired one."""

    @pytest.mark.parametrize(
        "xml",
        [
            '<!DOCTYPE r [<!ENTITY a "expanded">]><r>&a;</r>',
            '<?xml version="1.0"?>\n<!DOCTYPE r SYSTEM "http://repro.invalid/r.dtd">\n<r/>',
            "<!DOCTYPE r><r/>",
        ],
    )
    def test_doctype_is_rejected_before_any_entity_is_expanded(self, xml):
        assert _oracle_parse(xml).name.local == "r"  # the old parser took it
        with pytest.raises(XmlParseError, match="Document Type Declaration"):
            parse_xml(xml)

    def test_nesting_at_the_cap_parses_and_survives_every_recursive_walker(self):
        root = assert_same_tree("<a>" * MAX_DEPTH + "x" + "</a>" * MAX_DEPTH)
        assert root.full_text() == "x"
        assert len(list(root.descendants())) == MAX_DEPTH - 1
        assert root.copy() == root
        frozen = root.copy().freeze()
        assert parse_xml(serialize_xml(frozen)) == root
        assert XPath("count(//a)").evaluate(frozen) == MAX_DEPTH

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 3000, 50_000])
    def test_nesting_beyond_the_cap_is_a_parse_error(self, depth):
        with pytest.raises(XmlParseError, match="nested deeper"):
            parse_xml("<a>" * depth + "</a>" * depth)

    def test_siblings_do_not_count_towards_the_cap(self):
        wide = "<r>" + "<i><j/></i>" * (4 * MAX_DEPTH) + "</r>"
        assert len(assert_same_tree(wide).children) == 4 * MAX_DEPTH

    @pytest.mark.parametrize(
        "wire",
        [
            b'<?xml version="1.0" encoding="no-such-codec"?><r/>',
            b'<?xml version="1.0" encoding="shift_jis"?><r/>',
            "<r>\ud800</r>",
        ],
    )
    def test_an_unusable_encoding_is_a_parse_error(self, wire):
        # the retired parser let LookupError / a bare ValueError through
        with pytest.raises(XmlParseError):
            parse_xml(wire)


class TestNameTable:
    def test_table_is_bounded_and_results_survive_a_clear(self):
        cap = parser.NAME_TABLE_CAP
        for index in range(10 * cap):
            root = parse_xml(f'<n{index} xmlns="urn:t{index % 7}" a{index}="v"/>')
            assert root.name == QName(f"urn:t{index % 7}", f"n{index}")
            assert root.attrs == {QName("", f"a{index}"): "v"}
            assert len(parser._NAMES) <= cap
        # the table was cleared several times along the way; a name interned
        # before a clear and one interned after it are the same value
        before = parse_xml('<keep xmlns="urn:k"/>').name
        parser._NAMES.clear()
        after = parse_xml('<keep xmlns="urn:k"/>').name
        assert before == after and hash(before) == hash(after)
        assert {before: 1}[after] == 1

    def test_repeated_names_share_one_instance(self):
        root = parse_xml('<r xmlns="urn:s"><i/><i/></r>')
        first, second = root.elements()
        assert first.name is second.name
