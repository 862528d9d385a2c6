"""The template front end against ``parse_query``, values and errors.

``parse_query`` is the oracle: for any statement, a
:class:`~repro.sql.template.TemplateFrontEnd` — cold, and once the
statement's skeleton is cached — returns an equal ``Query`` or raises
the same exception type with the same message.  Statements come from a
small grammar with holes for the literals (so one skeleton is seen with
many constant sets), from a mutation corpus of everything a number can
look like, and from ``test_lexer_parity``'s token soup.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sql import parser as parser_module
from repro.sql import template as template_module
from repro.sql.binder import BindingError, parse_query
from repro.sql.lexer import SQLSyntaxError
from repro.sql.template import TemplateFrontEnd

from tests.sql.test_lexer_parity import FRAGMENTS, sources


@pytest.fixture(scope="module")
def schema(two_table_db):
    return two_table_db.schema


def outcome(parse, sql: str):
    """The ``Query``, or the error's type and message."""
    try:
        return parse(sql)
    except Exception as exc:  # the oracle decides what is an error
        return (type(exc), str(exc))


def assert_same_outcome(schema, shared: TemplateFrontEnd, sql: str) -> None:
    """Both spellings — ``parse``'s ``Query`` and ``parse_predicates``'
    ``(predicates, tables)``, which the service admits without building
    the ``Query`` — cold, cached and long-lived."""
    expected = outcome(lambda s: parse_query(s, schema), sql)
    failed = isinstance(expected, tuple)
    pair = expected if failed else (expected.predicates, expected.tables)
    assert outcome(TemplateFrontEnd(schema).parse_predicates, sql) == pair, (
        "unbuilt, cold"
    )
    fresh = TemplateFrontEnd(schema)
    assert outcome(fresh.parse, sql) == expected, "cold"
    assert outcome(fresh.parse, sql) == expected, "same statement again"
    assert outcome(fresh.parse_predicates, sql) == pair, "unbuilt, cached"
    # a front end that has seen every earlier statement of the test
    assert outcome(shared.parse, sql) == expected, "long-lived"
    assert outcome(shared.parse_predicates, sql) == pair, "unbuilt, long-lived"
    if not failed and sql.isascii():
        assert (fresh.hits, fresh.misses) == (2, 1)
    else:  # an error is never cached, non-ASCII never split
        assert (fresh.hits, fresh.misses, len(fresh)) == (0, 3, 0)


# ----------------------------------------------------------------------
# statements with holes
# ----------------------------------------------------------------------
#: everything a literal can look like to the lexer, the splitter and
#: ``float`` — and a few things that are no literal at all
LITERALS = (
    ["0", "7", "42", "-5", "+7", "007", "3.5", "1.", "1e1", "1E+1", "2.5e-1"]
    + ["1e5", "1e999", "-1e999", "9" * 400, "0." + "3" * 400]
    + ["1e+", "1e", "5x", "3-5", "+-1", "- 3", ".5", "1.2.3", "1_0", "0x10"]
    + ["½", "²", "1²", "١٢", "inf", "nan", "Infinity", "", "a", "S.b"]
)
GAPS = ["", " ", "  ", "\t", "\n", "\r\n"]
#: FROM clauses, each with columns that resolve in it
_BOTH = ["a", "b", "x", "y", "R.a", "S.b", "R.x", "S.y"]
FROMS = [
    ("R", ["a", "x", "R.a", "R.x"]),
    ("R, S", _BOTH),
    ("R,S", _BOTH),
    ("S, R", _BOTH),
    ("R AS r1, S", ["a", "b", "r1.a", "S.b", "r1.x", "S.y"]),
    ("R r1, S s1", ["a", "b", "r1.a", "s1.b", "r1.x", "s1.y"]),
]
FAULTY_FROMS = ["R, R", "R r1, S r1", "missing", "R AS", "R,"]
FAULTY_COLUMNS = ["nosuch", "R.nosuch", "T.a", "S.b", "R.a", "r1.a", "a.", "select"]
OPERATORS = ["=", "<", "<=", ">", ">="]
FAULTY_OPERATORS = ["<>", "!=", "==", "=<", ""]
KEYWORD_CASE = [str.upper, str.lower, str.title]


def mostly(draw, usual, faulty):
    """One of ``usual``; one time in ten, one of ``faulty``."""
    return draw(st.sampled_from(faulty if draw(st.integers(0, 9)) == 0 else usual))


@st.composite
def predicates(draw, columns):
    """``(text with {} holes, hole count)``."""
    kind = draw(st.integers(0, 4))
    gap = draw(st.sampled_from(GAPS))
    column = mostly(draw, columns, FAULTY_COLUMNS)
    operator = mostly(draw, OPERATORS, FAULTY_OPERATORS)
    if kind == 0:
        return f"{column}{gap}{operator}{gap}{{}}", 1
    if kind == 1:  # literal first
        return f"{{}}{gap}{operator}{gap}{column}", 1
    if kind == 2:
        case = draw(st.sampled_from(KEYWORD_CASE))
        return f"{column} {case('between')} {{}}{gap or ' '}{case('and')} {{}}", 2
    if kind == 3:
        return f"{column}{gap}={gap}{mostly(draw, columns, FAULTY_COLUMNS)}", 0
    return f"{column}{gap}{operator}{{}}", 1  # a sign would be glued on


@st.composite
def shapes(draw):
    """A statement with holes, and how many."""
    case = draw(st.sampled_from(KEYWORD_CASE))
    gap = draw(st.sampled_from(GAPS)) or " "
    projection = mostly(draw, ["*", "*", "a"], ["nosuch", "*, a", "R.a, b", ""])
    tables, columns = draw(st.sampled_from(FROMS))
    tables = mostly(draw, [tables], FAULTY_FROMS)
    drawn = draw(st.lists(predicates(columns), max_size=4))
    text = f"{case('select')} {projection}{gap}{case('from')} {tables}"
    if drawn:
        glue = f" {case('and')}{gap}"
        text += f"{gap}{case('where')} " + glue.join(p for p, _ in drawn)
    text += mostly(draw, ["", "", " ", "\n"], [";", " x", " 5", " AND", "#"])
    return text, sum(holes for _, holes in drawn)


NUMBERS = st.one_of(
    st.integers(-50, 150).map(str),
    st.floats(-50, 150, allow_nan=False).map(repr),
    st.sampled_from(LITERALS[:16]),
)


@st.composite
def shape_and_constant_sets(draw):
    text, holes = draw(shapes())
    fill = st.lists(
        st.one_of(NUMBERS, NUMBERS, NUMBERS, st.sampled_from(LITERALS)),
        min_size=holes,
        max_size=holes,
    )
    return [text.format(*draw(fill)) for _ in range(draw(st.integers(1, 4)))]


class TestDifferential:
    @settings(max_examples=1000, deadline=None)
    @given(shape_and_constant_sets())
    def test_one_shape_many_constant_sets(self, schema, statements):
        shared = TemplateFrontEnd(schema)
        for sql in statements:
            assert_same_outcome(schema, shared, sql)

    @settings(max_examples=400, deadline=None)
    @given(sources)
    @example("")
    @example("SELECT * FROM R WHERE a BETWEEN 1e1 AND 4.0E+1")
    def test_token_soup(self, schema, source):
        shared = TemplateFrontEnd(schema)
        assert_same_outcome(schema, shared, source)
        assert_same_outcome(schema, shared, "SELECT * FROM R WHERE a > " + source)

    @pytest.mark.parametrize("literal", LITERALS + FRAGMENTS)
    def test_mutation_corpus(self, schema, literal):
        shared = TemplateFrontEnd(schema)
        # the skeletons the mutations are cut from, cached first
        for sql in (
            "SELECT * FROM R WHERE a > 5",
            "SELECT * FROM R WHERE a>5",
            "SELECT * FROM R WHERE 5 < a",
            "SELECT * FROM R WHERE a BETWEEN 1 AND 9",
            "SELECT * FROM R, S WHERE R.x = S.y AND a >= 2 AND a <= 9",
            "SELECT * FROM R WHERE a > 5 ",
        ):
            assert_same_outcome(schema, shared, sql)
        for sql in (
            f"SELECT * FROM R WHERE a > {literal}",
            f"SELECT * FROM R WHERE a>{literal}",
            f"SELECT * FROM R WHERE a >{literal}",
            f"SELECT * FROM R WHERE {literal} < a",
            f"SELECT * FROM R WHERE {literal}<a",
            f"SELECT * FROM R WHERE a BETWEEN {literal} AND 9",
            f"SELECT * FROM R WHERE a BETWEEN 1 AND {literal}",
            f"SELECT * FROM R WHERE a BETWEEN 1 AND 9{literal}",
            f"SELECT * FROM R, S WHERE R.x = S.y AND a >= {literal} AND a <= 9",
            f"SELECT * FROM R, S WHERE R.x = S.y AND a >= 2 AND a <= {literal}",
            f"SELECT * FROM R WHERE a > 5 {literal}",
            f"SELECT * FROM R WHERE a > 5{literal}",
            f"{literal}SELECT * FROM R WHERE a > 5",
        ):
            assert_same_outcome(schema, shared, sql)


class TestErrorPrecedence:
    """Of two faults the earlier one in the WHERE clause is reported —
    names resolve and ranges assemble a predicate at a time."""

    CASES = [
        ("SELECT * FROM R WHERE R.a BETWEEN 9 AND 1 AND nosuch = 3", "empty range for R.a"),
        ("SELECT * FROM R WHERE nosuch = 3 AND R.a BETWEEN 9 AND 1", "unknown column 'nosuch'"),
        ("SELECT * FROM R WHERE a BETWEEN 9 AND 1 AND R.x = T.y", "empty range for R.a"),
        ("SELECT * FROM R WHERE R.x = T.y AND a BETWEEN 9 AND 1", "unknown table or alias 'T'"),
        ("SELECT nosuch FROM R WHERE a BETWEEN 9 AND 1", "empty range for R.a"),
        ("SELECT * FROM R WHERE a BETWEEN 9 AND 1 AND x BETWEEN 5 AND 2", "empty range for R.a"),
    ]

    @pytest.mark.parametrize("sql, message", CASES)
    def test_first_fault_wins(self, schema, sql, message):
        front = TemplateFrontEnd(schema)
        for parse in (lambda s: parse_query(s, schema), front.parse, front.parse):
            with pytest.raises(BindingError) as raised:
                parse(sql)
            assert str(raised.value).startswith(message)

    def test_a_hit_reports_the_first_empty_range(self, schema):
        front = TemplateFrontEnd(schema)
        front.parse("SELECT * FROM R WHERE a BETWEEN 1 AND 9 AND x BETWEEN 2 AND 5")
        sql = "SELECT * FROM R WHERE a BETWEEN 1 AND 9 AND x BETWEEN 5 AND 2"
        assert outcome(front.parse, sql) == outcome(lambda s: parse_query(s, schema), sql)
        assert front.hits == 1
        assert "empty range for R.x" in outcome(front.parse, sql)[1]


class TestWhatAHitCosts:
    @pytest.fixture()
    def calls(self, monkeypatch):
        """Counts of the lexer runs and splitter passes made."""
        counts = {"tokenize": 0, "split": 0}
        tokenize, split = parser_module.tokenize, template_module._split

        def counting_tokenize(source):
            counts["tokenize"] += 1
            return tokenize(source)

        def counting_split(source):
            counts["split"] += 1
            return split(source)

        monkeypatch.setattr(parser_module, "tokenize", counting_tokenize)
        monkeypatch.setattr(template_module, "_split", counting_split)
        return counts

    def test_a_hit_never_tokenizes_and_a_miss_tokenizes_once(self, schema, calls):
        front = TemplateFrontEnd(schema)
        template = "SELECT * FROM R, S WHERE R.x = S.y AND a BETWEEN {} AND {} AND b < {}"
        first = front.parse(template.format(1, 9, 50))
        assert calls == {"tokenize": 1, "split": 1}
        assert first == parse_query(template.format(1, 9, 50), schema)
        calls.update(tokenize=0, split=0)
        for low in range(40):
            sql = template.format(low, low + 7.5, f"{low}e1")
            assert front.parse(sql).predicates  # (the oracle would tokenize)
        assert calls == {"tokenize": 0, "split": 40}
        assert (front.hits, front.misses) == (40, 1)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM R WHERE a > ½",  # non-ASCII: not even split
            "SELECT * FROM R WHERE a > 5 # 1",  # a character in no chunk
            "SELECT * FROM R WHERE a > 1e+",  # float says no
            "SELECT * FROM R WHERE nosuch > 1",  # splits, does not bind
        ],
    )
    def test_a_statement_that_fails_costs_one_parse_and_stores_nothing(
        self, schema, calls, sql
    ):
        front = TemplateFrontEnd(schema)
        for _ in range(2):
            with pytest.raises((SQLSyntaxError, BindingError)):
                front.parse(sql)
        assert calls["tokenize"] == 2 and calls["split"] <= 2
        assert len(front) == 0 and front.skeleton_bytes == 0
        assert (front.hits, front.misses) == (0, 2)

    def test_literal_count_is_part_of_the_shape(self, schema):
        front = TemplateFrontEnd(schema)
        front.parse("SELECT * FROM R r1 WHERE a > 1")  # ends in a literal
        # the same skeleton runs, one literal fewer: `1` is now an alias
        with pytest.raises(SQLSyntaxError):
            front.parse("SELECT * FROM R r1 WHERE a > ")
        assert front.hits == 0

    def test_same_attribute_merges(self, schema):
        front = TemplateFrontEnd(schema)
        template = "SELECT * FROM R WHERE a >= {} AND a <= {} AND {} > a"
        for fill in [(2, 9, 7), (2, 9, 1), (9, 2, 50), (1, 1, 2), (3, 3, 3)]:
            sql = template.format(*fill)
            assert front.parse(sql) == parse_query(sql, schema)
        assert front.hits == 4
        satisfiable = front.parse(template.format(2, 9, 7))
        assert len(satisfiable.predicates) == 1
        assert len(front.parse(template.format(9, 2, 50)).predicates) == 2
