"""The template table is bounded in entries and in skeleton bytes, and a
statement is split in time linear in its length — a peer chooses the
text, and a line may run to 64 KiB."""

from __future__ import annotations

import time

import pytest

from repro.sql import template as template_module
from repro.sql.binder import parse_query
from repro.sql.lexer import SQLSyntaxError
from repro.sql.template import SKELETON_BYTES_LIMIT, TEMPLATE_LIMIT, TemplateFrontEnd


@pytest.fixture()
def front(two_table_db) -> TemplateFrontEnd:
    return TemplateFrontEnd(two_table_db.schema)


def stored_bytes(front: TemplateFrontEnd) -> int:
    return sum(len(run) for skeleton in front._templates for run in skeleton)


class TestBounded:
    def test_ten_thousand_skeletons_stay_under_both_bounds(self, front):
        hot = "SELECT * FROM R WHERE a BETWEEN {} AND {}"
        for i in range(10_000):
            front.parse(f"SELECT * FROM R t{i} WHERE t{i}.a > {i}")
            front.parse(hot.format(i, i + 1))
            assert len(front) <= TEMPLATE_LIMIT
            assert front.skeleton_bytes <= SKELETON_BYTES_LIMIT
        assert front.skeleton_bytes == stored_bytes(front)
        assert front.misses >= 10_000  # every alias is a shape of its own
        # the hot shape is re-parsed once per start-over, not once per call
        assert front.hits >= 10_000 - 2 * (10_000 // TEMPLATE_LIMIT + 1)

    def test_long_skeletons_meet_the_byte_bound_first(self, front, two_table_db):
        padding = " " * 60_000
        for i in range(60):
            sql = f"SELECT * FROM R t{i}{padding}WHERE t{i}.a > 1"
            assert front.parse(sql) == parse_query(sql, two_table_db.schema)
            assert front.skeleton_bytes <= SKELETON_BYTES_LIMIT
            assert front.skeleton_bytes == stored_bytes(front)
        assert 0 < len(front) <= SKELETON_BYTES_LIMIT // 60_000

    def test_a_skeleton_over_the_byte_bound_is_not_kept(self, front):
        sql = "SELECT * FROM R" + " " * SKELETON_BYTES_LIMIT + "WHERE a > 1"
        assert front.parse(sql) == front.parse(sql)
        assert (len(front), front.skeleton_bytes, front.hits) == (0, 0, 0)


#: a 64 KiB line each, all chunk boundaries, all one chunk, or nothing
#: the grammar has — what a backtracking splitter would choke on
ADVERSARIAL = {
    "numbers": "1 " * 32_000,
    "signs": "+ " * 32_000,
    "spaces then junk": " " * 65_000 + "#",
    "names": "a " * 32_000,
    "operators": "=" * 65_000,
    "dots and digits": "1." * 32_000,
    "exponents": "1e" * 32_000,
}


class TestLinearTime:
    @pytest.mark.parametrize("line", ADVERSARIAL.values(), ids=ADVERSARIAL.keys())
    def test_a_64k_adversarial_line_is_split_at_once(self, front, line):
        started = time.perf_counter()
        template_module._split(line)
        elapsed = time.perf_counter() - started
        # measured 3-44 ms; quadratic in 64 KiB would be minutes
        assert elapsed < 2.0
        with pytest.raises(SQLSyntaxError) as raised:
            front.parse(line)
        with pytest.raises(SQLSyntaxError) as expected:
            parse_query(line, front.schema)
        assert str(raised.value) == str(expected.value)
