"""Tokenizer for the SQL subset the front-end accepts.

The estimator operates on conjunctive SPJ queries, so the lexer covers
exactly what those need: identifiers (optionally qualified), numeric
literals, comparison operators, parentheses, commas, ``*`` and the
keyword set of SELECT/FROM/WHERE/AND/BETWEEN/AS.  Errors carry the
offending position for readable messages.

One compiled scanner does the work.  ``tests/sql/test_lexer_parity.py``
holds the character-at-a-time loop it replaced and checks the two agree
token for token and error for error.  A served statement of a shape seen
before never gets here: :mod:`repro.sql.template` splits it with a regex
built from the token patterns below and binds it from a cached template,
so on the server's event-loop thread the lexer runs once per shape.
"""

from __future__ import annotations

import re
from enum import Enum


class TokenType(Enum):
    IDENTIFIER = "identifier"
    NUMBER = "number"
    KEYWORD = "keyword"
    OPERATOR = "operator"  # = <> < <= > >=
    COMMA = ","
    DOT = "."
    STAR = "*"
    LPAREN = "("
    RPAREN = ")"
    END = "end"


KEYWORDS = frozenset(
    ("select", "from", "where", "and", "between", "as", "on", "statistics", "create")
)

OPERATORS = frozenset(("=", "<", "<=", ">", ">=", "<>", "!="))

_PUNCTUATION = {
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    "*": TokenType.STAR,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
}


class Token:
    """One lexeme: its type, its source text and where it starts."""

    __slots__ = ("type", "text", "position")

    def __init__(self, type: TokenType, text: str, position: int):
        self.type = type
        self.text = text
        self.position = position

    @property
    def lowered(self) -> str:
        return self.text.lower()

    def _key(self) -> tuple:
        return (self.type, self.text, self.position)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Token) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Token(type={self.type!r}, text={self.text!r}, "
            f"position={self.position!r})"
        )

    def __str__(self) -> str:
        return f"{self.text!r}@{self.position}"


class SQLSyntaxError(ValueError):
    """Raised on malformed SQL, with the source position."""

    def __init__(self, message: str, position: int, source: str):
        pointer = " " * position + "^"
        super().__init__(f"{message} at position {position}\n  {source}\n  {pointer}")
        self.position = position


#: numeric characters that are neither letters nor decimal digits (``½``,
#: ``Ⅷ``) may continue an identifier but not start one; :func:`_folded`
#: maps them all to this one so the scanner can say so
_NUMERIC = "\u00bd"

#: the grammar's four token kinds, as ``re`` source.  A number is digits,
#: at most one ``.`` and at most one exponent marker (``e`` and a sign or
#: digit), in that order — whether the result is a number is ``float``'s
#: call.  :mod:`repro.sql.template` builds its splitter from the same four.
IDENTIFIER_RE = rf"[^\W\d{_NUMERIC}]\w*"  # or a keyword
NUMBER_RE = r"[+-]?\d+(?:\.\d*)?(?:[eE][+\-\d]\d*)?"
OPERATOR_RE = r"[=<>!]+"
PUNCTUATION_RE = r"[,.*()]"

#: one token per match, leading whitespace skipped; the group that
#: matched (``lastindex``) says which kind.
_SCANNER = re.compile(
    r"\s*(?:"
    rf"({IDENTIFIER_RE})"  # 1
    rf"|({NUMBER_RE})"  # 2
    rf"|({OPERATOR_RE})"  # 3
    rf"|({PUNCTUATION_RE})"  # 4
    r"|(\S)"  # 5: nothing the grammar has
    r"|\Z)"
)


def _folded(source: str) -> str:
    """``source`` with every digit ``re`` does not call one (``²``:
    ``str.isdigit`` but not decimal) as ``0`` and every other non-letter
    numeric as :data:`_NUMERIC`, character for character — after which
    ``\\d`` and ``\\w`` draw the lines ``str.isdigit``, ``str.isalpha`` and
    ``str.isalnum`` draw.  Only non-ASCII sources need it."""
    return "".join(
        char
        if char.isalpha() or char.isdecimal() or not char.isnumeric()
        else ("0" if char.isdigit() else _NUMERIC)
        for char in source
    )


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; always ends with an END token."""
    tokens: list[Token] = []
    append = tokens.append
    folded = not source.isascii()
    for match in _SCANNER.finditer(_folded(source) if folded else source):
        kind = match.lastindex
        if kind is None:  # the end of the source
            break
        start = match.start(kind)
        text = match[kind]
        if folded:
            text = source[start : start + len(text)]
        if kind == 1:
            token_type = (
                TokenType.KEYWORD if text.lower() in KEYWORDS else TokenType.IDENTIFIER
            )
            append(Token(token_type, text, start))
        elif kind == 2:
            try:
                float(text)
            except ValueError:
                raise SQLSyntaxError(f"bad numeric literal {text!r}", start, source)
            append(Token(TokenType.NUMBER, text, start))
        elif kind == 3:
            if text not in OPERATORS:
                raise SQLSyntaxError(f"unknown operator {text!r}", start, source)
            append(Token(TokenType.OPERATOR, text, start))
        elif kind == 4:
            append(Token(_PUNCTUATION[text], text, start))
        else:
            raise SQLSyntaxError(f"unexpected character {text!r}", start, source)
    append(Token(TokenType.END, "", len(source)))
    return tokens
