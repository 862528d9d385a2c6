"""The compiled scanner against the loop it replaced.

``reference_tokenize`` is the character-at-a-time tokenizer ``repro.sql``
shipped until the scanner took over, kept here as the oracle: on any
input the two must give the same ``(type, text, position)`` stream, or
raise ``SQLSyntaxError`` with the same message at the same position.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sql.lexer import KEYWORDS, SQLSyntaxError, Token, TokenType, tokenize

OPERATOR_CHARS = frozenset("=<>!")


def reference_tokenize(source: str) -> list[tuple[TokenType, str, int]]:
    tokens: list[tuple[TokenType, str, int]] = []
    index = 0
    length = len(source)
    while index < length:
        char = source[index]
        if char.isspace():
            index += 1
            continue
        if char == ",":
            tokens.append((TokenType.COMMA, char, index))
            index += 1
        elif char == ".":
            tokens.append((TokenType.DOT, char, index))
            index += 1
        elif char == "*":
            tokens.append((TokenType.STAR, char, index))
            index += 1
        elif char == "(":
            tokens.append((TokenType.LPAREN, char, index))
            index += 1
        elif char == ")":
            tokens.append((TokenType.RPAREN, char, index))
            index += 1
        elif char in OPERATOR_CHARS:
            stop = index + 1
            while stop < length and source[stop] in OPERATOR_CHARS:
                stop += 1
            text = source[index:stop]
            if text not in ("=", "<", "<=", ">", ">=", "<>", "!="):
                raise SQLSyntaxError(f"unknown operator {text!r}", index, source)
            tokens.append((TokenType.OPERATOR, text, index))
            index = stop
        elif char.isdigit() or (
            char in "+-" and index + 1 < length and source[index + 1].isdigit()
        ):
            stop = index + 1
            seen_dot = False
            seen_exponent = False
            while stop < length:
                nxt = source[stop]
                if nxt.isdigit():
                    stop += 1
                elif nxt == "." and not seen_dot and not seen_exponent:
                    seen_dot = True
                    stop += 1
                elif nxt in "eE" and not seen_exponent and stop + 1 < length:
                    follow = source[stop + 1]
                    if follow.isdigit() or follow in "+-":
                        seen_exponent = True
                        stop += 2
                    else:
                        break
                else:
                    break
            text = source[index:stop]
            try:
                float(text)
            except ValueError:
                raise SQLSyntaxError(f"bad numeric literal {text!r}", index, source)
            tokens.append((TokenType.NUMBER, text, index))
            index = stop
        elif char.isalpha() or char == "_":
            stop = index + 1
            while stop < length and (source[stop].isalnum() or source[stop] == "_"):
                stop += 1
            text = source[index:stop]
            token_type = (
                TokenType.KEYWORD if text.lower() in KEYWORDS else TokenType.IDENTIFIER
            )
            tokens.append((token_type, text, index))
            index = stop
        else:
            raise SQLSyntaxError(f"unexpected character {char!r}", index, source)
    tokens.append((TokenType.END, "", length))
    return tokens


def outcome(lexer, source: str):
    """The token stream, or the error's message and position."""
    try:
        return [
            token if isinstance(token, tuple) else (token.type, token.text, token.position)
            for token in lexer(source)
        ]
    except SQLSyntaxError as exc:
        return (str(exc), exc.position)


#: what SQL is made of, and what trips a tokenizer: number fragments,
#: operator runs, every whitespace kind, and Unicode that ``str`` and
#: ``re`` classify differently (``²`` is a digit to one, ``½`` numeric
#: but no digit, ``١`` a decimal digit ``float`` accepts, ``Ⅷ`` a
#: numeral that may continue a name, ``一`` a letter with a value)
FRAGMENTS = (
    ["1.", ".5", "1e+", "1e5x", "-3", "a-3", "<>", "!==", "=<", ">=", "!="]
    + ["1.2.3", "1e5.3", "1.e5", "1e", "1e-", "+7", "- 3", "3.2E-2"]
    + ["select", "FROM", "Between", "and", "t.c", "_x", "a1", "(", ")", ",", "*"]
    + [" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003"]
    + ["²", "1²", "-²", "1e²", "x²", "½", "½x", "x½", "١٢", "Ⅷ", "xⅧ", "一", "é", "ß", "İ"]
    + [";", "#", "'", '"', "e", "E", "+", "-"]
)

sources = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join),
    st.text(max_size=24),
    st.text(alphabet="0123456789.eE+- ²½x", max_size=12),
)


@settings(max_examples=1500, deadline=None)
@given(sources)
@example("")
@example("   \t\n ")
@example("SELECT * FROM r, s WHERE r.x = s.y AND r.a BETWEEN 1e1 AND 4.0E+1")
def test_scanner_agrees_with_the_character_loop(source):
    assert outcome(tokenize, source) == outcome(reference_tokenize, source)


@pytest.mark.parametrize("fragment", FRAGMENTS)
def test_every_fragment_alone_and_between_names(fragment):
    for source in (fragment, f"a{fragment}b", f"1 {fragment} x", f"{fragment}{fragment}"):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)


class TestToken:
    def test_equality_and_hash_are_by_value(self):
        one = Token(TokenType.IDENTIFIER, "orders", 7)
        same = Token(TokenType.IDENTIFIER, "orders", 7)
        assert one == same and hash(one) == hash(same)
        assert len({one, same}) == 1
        assert one != Token(TokenType.IDENTIFIER, "orders", 8)
        assert one != Token(TokenType.KEYWORD, "orders", 7)
        assert one != (TokenType.IDENTIFIER, "orders", 7)

    def test_str_and_lowered(self):
        token = Token(TokenType.KEYWORD, "SeLeCt", 3)
        assert str(token) == "'SeLeCt'@3"
        assert token.lowered == "select"

    def test_is_slotted(self):
        token = Token(TokenType.STAR, "*", 0)
        assert not hasattr(token, "__dict__")
        with pytest.raises(AttributeError):
            token.extra = 1
