"""XPath 1.0 lexer.

Implements the XPath 1.0 lexical rules including the spec's disambiguation:
``*`` is the multiply operator (and ``and``/``or``/``div``/``mod`` are
operators rather than name tests) exactly when the preceding token could end
an operand.
"""

from __future__ import annotations

import re
from enum import Enum, auto

from repro.util.grammar import Token
from repro.xmlkit.xpath.errors import XPathSyntaxError


class TokenKind(Enum):
    NUMBER = auto()
    LITERAL = auto()
    NAME = auto()          # NCName, possibly part of a QName
    STAR = auto()          # wildcard name test
    OPERATOR = auto()      # = != < <= > >= + - * div mod and or | / //
    LPAREN = auto()
    RPAREN = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    AT = auto()
    COMMA = auto()
    COLON = auto()
    DOT = auto()
    DOTDOT = auto()
    AXIS = auto()          # name:: (axis specifier)
    NODETYPE = auto()      # node( / text( / comment( / processing-instruction(
    FUNC = auto()          # name( (function call)
    EOF = auto()


#: fixed punctuation: text -> kind (two-character tokens are tried first)
_PUNCTUATION = {
    **dict.fromkeys(("//", "!=", "<=", ">=", "/", "|", "+", "-", "=", "<", ">"), TokenKind.OPERATOR),
    "..": TokenKind.DOTDOT, "(": TokenKind.LPAREN, ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET, "]": TokenKind.RBRACKET, "@": TokenKind.AT,
    ",": TokenKind.COMMA, ":": TokenKind.COLON, ".": TokenKind.DOT,
}
_OPERATOR_NAMES = {"and", "or", "div", "mod"}
_NODE_TYPES = {"node", "text", "comment", "processing-instruction"}
# token kinds after which '*' and the operator names are operators
_OPERAND_ENDERS = {
    TokenKind.NUMBER,
    TokenKind.LITERAL,
    TokenKind.NAME,
    TokenKind.STAR,
    TokenKind.RPAREN,
    TokenKind.RBRACKET,
    TokenKind.DOT,
    TokenKind.DOTDOT,
}


# ASCII digits only: unicode "digits" pass isdigit() but not float()
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+")
# after a letter or '_': letters, digits, '_', '-', '.'
_NAME_REST = re.compile(r"[\w.-]*")


def tokenize(expression: str) -> list[Token]:
    """Tokenize an XPath expression, raising :class:`XPathSyntaxError`."""
    tokens: list[Token] = []
    i = 0
    n = len(expression)

    def prev_kind() -> TokenKind | None:
        return tokens[-1].kind if tokens else None

    while i < n:
        ch = expression[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if number := _NUMBER.match(expression, i):
            tokens.append(Token(TokenKind.NUMBER, number.group(), start))
            i = number.end()
        elif (pair := expression[i : i + 2]) in _PUNCTUATION:
            tokens.append(Token(_PUNCTUATION[pair], pair, start))
            i += 2
        elif ch in _PUNCTUATION:
            tokens.append(Token(_PUNCTUATION[ch], ch, start))
            i += 1
        elif ch == "*":
            kind = TokenKind.OPERATOR if prev_kind() in _OPERAND_ENDERS else TokenKind.STAR
            tokens.append(Token(kind, "*", start))
            i += 1
        elif ch in "'\"":
            end = expression.find(ch, i + 1)
            if end < 0:
                raise XPathSyntaxError("unterminated string literal", expression, start)
            tokens.append(Token(TokenKind.LITERAL, expression[i + 1 : end], start))
            i = end + 1
        elif ch.isalpha() or ch == "_":
            j = _NAME_REST.match(expression, i + 1).end()
            name = expression[i:j]
            # operator-name disambiguation (XPath 1.0 section 3.7)
            if name in _OPERATOR_NAMES and prev_kind() in _OPERAND_ENDERS:
                tokens.append(Token(TokenKind.OPERATOR, name, start))
                i = j
                continue
            # look ahead past whitespace for '(' or '::'
            k = j
            while k < n and expression[k].isspace():
                k += 1
            if k + 1 < n and expression[k] == ":" and expression[k + 1] == ":":
                tokens.append(Token(TokenKind.AXIS, name, start))
                i = k + 2
            elif k < n and expression[k] == "(":
                kind = TokenKind.NODETYPE if name in _NODE_TYPES else TokenKind.FUNC
                tokens.append(Token(kind, name, start))
                tokens.append(Token(TokenKind.LPAREN, "(", k))
                i = k + 1
            else:
                tokens.append(Token(TokenKind.NAME, name, start))
                i = j
        else:
            raise XPathSyntaxError(f"unexpected character {ch!r}", expression, start)
    tokens.append(Token(TokenKind.EOF, "", n))
    return tokens
