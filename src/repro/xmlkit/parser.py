"""Parse XML text into :class:`~repro.xmlkit.element.XElem` trees.

The tokenizer is expat (the stdlib ``pyexpat`` binding, with namespace
processing on); its callbacks build the ``XElem`` tree directly, so there is
no intermediate tree and no recursion, and the rest of the stack never sees
prefixes or Clark strings; an element's slots are filled in place
(``XElem.__new__``).  Comments and processing instructions are dropped; the
text around them (and CDATA sections) is one chunk per run, as
``xml.etree.ElementTree`` makes it: expat hands a run over whole unless it
overflows the buffer, which is never shorter than the document.

Two limits guard the ingest side against hostile input: a document nested
deeper than :data:`MAX_DEPTH` is refused (the tree's own walkers --
``freeze``, ``copy``, the serializer -- recurse per level), and so is any
Document Type Declaration, before an entity it declares can be expanded
(SOAP 1.1 section 3 and SOAP 1.2 Part 1 section 5 forbid one anyway).
"""

from __future__ import annotations

from xml.parsers import expat

from repro.xmlkit.element import XElem
from repro.xmlkit.names import QName

#: deepest element nesting accepted: far above any SOAP message (the
#: deepest this stack produces is about 15), well under the interpreter's
#: recursion limit even when a walker spends several frames per level
MAX_DEPTH = 128

#: most distinct expat names remembered in :data:`_NAMES`; the table is
#: cleared when full, so a peer sending unbounded distinct names costs
#: re-interning, never memory
NAME_TABLE_CAP = 4096

#: expat name (``uri}local`` or bare ``local``) -> the QName it denotes
_NAMES: dict[str, QName] = {}


class XmlParseError(ValueError):
    """Raised when a wire payload is not well-formed XML."""


def _intern(tag: str) -> QName:
    uri, brace, local = tag.partition("}")
    name = QName(uri, local) if brace else QName("", tag)
    if len(_NAMES) >= NAME_TABLE_CAP:
        _NAMES.clear()
    _NAMES[tag] = name
    return name


def _reject_doctype(*_declaration) -> None:
    raise XmlParseError("malformed XML: a Document Type Declaration is not allowed")


def parse_xml(text: str | bytes) -> XElem:
    """Parse an XML document and return its root element."""
    names = _NAMES
    new = XElem.__new__
    open_children: list[list] = []  # children lists of the open elements
    roots: list[XElem] = []

    def start(tag: str, attributes: list[str]) -> None:
        elem = new(XElem)
        elem.name = names.get(tag) or _intern(tag)
        elem._frozen = False
        elem._fcache = None
        children = elem.children = []
        attrs = elem.attrs = {}
        if attributes:
            pairs = iter(attributes)
            for key in pairs:
                attrs[names.get(key) or _intern(key)] = next(pairs)
        if open_children:
            open_children[-1].append(elem)
            if len(open_children) >= MAX_DEPTH:
                raise XmlParseError(
                    f"malformed XML: elements nested deeper than {MAX_DEPTH}"
                )
        else:
            roots.append(elem)
        open_children.append(children)

    def end(_tag: str) -> None:
        open_children.pop()

    def data(chunk: str) -> None:
        children = open_children[-1]
        if children and children[-1].__class__ is str:
            children[-1] += chunk  # the rest of a run that overflowed the buffer
        else:
            children.append(chunk)

    parser = expat.ParserCreate(None, "}")
    parser.buffer_text = True
    parser.ordered_attributes = True
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = data
    parser.StartDoctypeDeclHandler = _reject_doctype
    if len(text) > parser.buffer_size:
        parser.buffer_size = len(text)
    try:
        parser.Parse(text, True)
    except XmlParseError:
        raise  # the nesting or DOCTYPE refusal of a handler above
    except (expat.ExpatError, LookupError, ValueError) as exc:
        # not ExpatError: an encoding declaration naming a codec that is
        # unknown (LookupError) or multi-byte (ValueError), a lone surrogate
        raise XmlParseError(f"malformed XML: {exc}") from exc
    return roots[0]
