"""XPath 1.0 lexer: one :class:`~repro.util.grammar.Scanner` pattern and one
pass over its tokens.

The pattern marks a name followed by ``(`` as a function call or node type
and a name followed by ``::`` as an axis.  The pass applies the spec's
disambiguation (section 3.7): ``*`` is the multiply operator, and
``and``/``or``/``div``/``mod`` are operators rather than name tests, exactly
when the preceding token could end an operand.  Punctuation tokens are of
the kind of their own text (``(``, ``]``, ``..``, ...).
"""

from __future__ import annotations

from repro.util.grammar import Scanner, Token
from repro.xmlkit.xpath.errors import XPathSyntaxError

# ASCII digits only: unicode "digits" pass isdigit() but not float()
_scan = Scanner(
    r"""
      (?P<number>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)
    | (?P<literal>"[^"]*"|'[^']*')
    | (?P<axis>[^\W\d][\w.-]*)\s*::
    | (?P<nodetype>(?:node|text|comment|processing-instruction)(?=\s*\())
    | (?P<function>[^\W\d][\w.-]*)(?=\s*\()
    | (?P<name>[^\W\d][\w.-]*)
    | (?P<operator>//|!=|<=|>=|[/|+=<>-])
    | (?P<punctuation>\.\.|[()\[\]@,:.*])
    """,
    frozenset(),
)

_NAMES = {"axis", "function", "name"}
_OPERATOR_NAMES = {"and", "or", "div", "mod"}
# token kinds after which '*' and the operator names are operators
_OPERAND_ENDERS = {"number", "literal", "name", "star", ")", "]", ".", ".."}


def tokenize(expression: str) -> list[Token]:
    """Tokenize an XPath expression, raising :class:`XPathSyntaxError`."""

    def error(message: str, position: int) -> XPathSyntaxError:
        return XPathSyntaxError(message, expression, position)

    tokens: list[Token] = []
    after_operand = False
    for token in _scan(expression, error):
        kind, value = token.kind, token.value
        if kind in _NAMES:
            if not (value[0].isalpha() or value[0] == "_"):
                raise error(f"unexpected character {value[0]!r}", token.position)
            # an axis name stays one, so "1 and::x" is refused, not read as "1 and x"
            if after_operand and kind != "axis" and value in _OPERATOR_NAMES:
                kind = "operator"
                token = Token(kind, value, token.position)
        elif kind == "punctuation":
            kind = ("operator" if after_operand else "star") if value == "*" else value
            token = Token(kind, value, token.position)
        elif kind == "literal":
            token = Token(kind, value[1:-1], token.position)
        tokens.append(token)
        after_operand = kind in _OPERAND_ENDERS
    return tokens
