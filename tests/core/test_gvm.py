"""Tests for the greedy view-matching baseline."""

import pytest

from repro.core.gvm import GreedyViewMatching, _compatible
from repro.core.predicates import Attribute, FilterPredicate, JoinPredicate
from repro.engine.expressions import Query
from repro.histograms.base import Bucket, Histogram
from repro.stats.pool import SITPool
from repro.stats.sit import SIT

RA = Attribute("R", "a")
RX = Attribute("R", "x")
SY = Attribute("S", "y")
SB = Attribute("S", "b")
ST = Attribute("S", "t")
TZ = Attribute("T", "z")

JOIN_RS = JoinPredicate(RX, SY)
JOIN_ST = JoinPredicate(ST, TZ)


def uniform():
    return Histogram([Bucket(0, 100, 1000, 100)])


def make_sit(attribute, expression=frozenset(), diff=0.0):
    return SIT(attribute, frozenset(expression), uniform(), diff=diff)


def base_pool(*extra):
    return SITPool([*(make_sit(a) for a in (RA, RX, SY, SB, ST, TZ)), *extra])


class TestCompatibility:
    def test_nested_expressions_compatible(self):
        small = make_sit(RA, {JOIN_RS})
        large = make_sit(SB, {JOIN_RS, JOIN_ST})
        assert _compatible(small, large)
        assert _compatible(large, small)

    def test_table_disjoint_compatible(self):
        one = make_sit(RA, {JOIN_RS})
        f_uv = JoinPredicate(Attribute("U", "u"), Attribute("V", "v"))
        other = make_sit(Attribute("U", "a"), {f_uv})
        assert _compatible(one, other)

    def test_figure1_conflict(self):
        """The paper's Figure 1: SIT over L⋈O and SIT over O⋈C share the
        orders table but neither expression contains the other — they
        cannot be combined in one rewritten plan."""
        j_lo = JoinPredicate(Attribute("L", "ok"), Attribute("O", "ok"))
        j_oc = JoinPredicate(Attribute("O", "ck"), Attribute("C", "ck"))
        sit_lo = make_sit(Attribute("O", "price"), {j_lo})
        sit_oc = make_sit(Attribute("C", "nation"), {j_oc})
        assert not _compatible(sit_lo, sit_oc)

    def test_base_sits_always_compatible(self):
        assert _compatible(make_sit(RA), make_sit(SB, {JOIN_RS}))


class TestGreedySelection:
    def test_prefers_larger_expression(self):
        better = make_sit(RA, {JOIN_RS, JOIN_ST})
        worse = make_sit(RA, {JOIN_RS})
        pool = base_pool(worse, better)
        gvm = GreedyViewMatching(pool)
        query = Query.of(JOIN_RS, JOIN_ST, FilterPredicate(RA, 0, 10))
        estimate = gvm.estimate(query)
        assert estimate.assignment[RA] == better

    def test_conflicting_sits_cannot_both_be_used(self):
        sit_a = make_sit(RA, {JOIN_RS})
        j_su = JoinPredicate(SB, Attribute("U", "b"))
        sit_u = make_sit(Attribute("U", "c"), {j_su})
        pool = base_pool(
            sit_a,
            sit_u,
            make_sit(Attribute("U", "b")),
            make_sit(Attribute("U", "c")),
        )
        query = Query.of(
            JOIN_RS, j_su, FilterPredicate(RA, 0, 10),
            FilterPredicate(Attribute("U", "c"), 0, 10),
        )
        gvm = GreedyViewMatching(pool)
        assignment = gvm.estimate(query).assignment
        used = [s for s in assignment.values() if not s.is_base]
        # R⋈S and S⋈U overlap on S and are not nested: at most one of the
        # two conditioned SITs survives the compatibility constraint.
        assert len(used) <= 1

    def test_join_operand_never_conditioned_on_its_own_join(self):
        pool = base_pool(make_sit(RX, {JOIN_RS}))  # pathological SIT
        gvm = GreedyViewMatching(pool)
        query = Query.of(JOIN_RS)
        assignment = gvm.estimate(query).assignment
        assert JOIN_RS not in assignment[RX].expression

    def test_counts_view_matching_calls(self):
        pool = base_pool()
        gvm = GreedyViewMatching(pool)
        query = Query.of(JOIN_RS, FilterPredicate(RA, 0, 10))
        gvm.estimate(query)
        # 3 attributes, assigned one per round: 3 + 2 + 1 lookups.
        assert gvm.matcher.calls == 6

    def test_empty_query(self):
        gvm = GreedyViewMatching(base_pool())
        assert gvm.estimate(Query(frozenset())).selectivity == 1.0

    def test_estimate_selectivity_wrapper(self):
        gvm = GreedyViewMatching(base_pool())
        predicates = frozenset({FilterPredicate(RA, 0, 10)})
        assert gvm.estimate_selectivity(predicates) == pytest.approx(
            0.1, rel=0.2
        )


class TestGVMvsTruth:
    def test_two_table_estimate_reasonable(
        self, two_table_db, two_table_pool, two_table_join, two_table_attrs
    ):
        gvm = GreedyViewMatching(two_table_pool)
        query = Query.of(
            two_table_join, FilterPredicate(two_table_attrs["Ra"], 0, 20)
        )
        selectivity = gvm.estimate(query).selectivity
        from repro.engine.executor import Executor

        true = Executor(two_table_db).selectivity(query.predicates)
        assert selectivity == pytest.approx(true, rel=0.35)
