"""Tests for SIT pools and the paper's J_i pool generation."""

import pytest

from repro.core.predicates import Attribute, FilterPredicate, JoinPredicate
from repro.engine.expressions import Query
from repro.histograms.base import Bucket, Histogram
from repro.stats.builder import SITBuilder
from repro.stats.pool import (
    SITPool,
    build_workload_pool,
    connected_join_subsets,
    workload_sit_requests,
)
from repro.stats.sit import SIT

RA = Attribute("R", "a")
RX = Attribute("R", "x")
SY = Attribute("S", "y")
SB = Attribute("S", "b")
ST = Attribute("S", "t")
TZ = Attribute("T", "z")
UV = Attribute("U", "v")
TU = Attribute("T", "u")

JOIN_RS = JoinPredicate(RX, SY)
JOIN_ST = JoinPredicate(ST, TZ)
JOIN_TU = JoinPredicate(TU, UV)


def uniform():
    return Histogram([Bucket(0, 10, 100, 10)])


def make_sit(attribute, expression=frozenset(), diff=0.0):
    return SIT(attribute, frozenset(expression), uniform(), diff=diff)


class TestSITPool:
    def test_find_by_attribute(self):
        base = make_sit(RA)
        conditioned = make_sit(RA, {JOIN_RS})
        pool = SITPool([base, conditioned, make_sit(SB)])
        assert set(pool.find(RA)) == {base, conditioned}
        assert pool.find(Attribute("Z", "q")) == []

    def test_find_base(self):
        base = make_sit(RA)
        pool = SITPool([make_sit(RA, {JOIN_RS}), base])
        assert pool.find_base(RA) == base
        assert pool.find_base(SB) is None

    def test_base_only_restriction(self):
        pool = SITPool([make_sit(RA), make_sit(RA, {JOIN_RS})])
        restricted = pool.base_only()
        assert len(restricted) == 1
        assert all(s.is_base for s in restricted)

    def test_restrict_joins(self):
        pool = SITPool(
            [
                make_sit(RA),
                make_sit(RA, {JOIN_RS}),
                make_sit(SB, {JOIN_RS, JOIN_ST}),
            ]
        )
        assert len(pool.restrict_joins(0)) == 1
        assert len(pool.restrict_joins(1)) == 2
        assert len(pool.restrict_joins(2)) == 3

    def test_find_by_expression_member(self):
        conditioned = make_sit(RA, {JOIN_RS})
        pool = SITPool([make_sit(RA), conditioned])
        assert pool.find(expression_member=JOIN_RS) == [conditioned]
        assert pool.find(expression_member=JOIN_ST) == []

    def test_invalidate_derived_bumps_version_only(self):
        sit = make_sit(RA)
        pool = SITPool([sit])
        before = pool.version
        pool.invalidate_derived()
        assert pool.version == before + 1
        assert list(pool) == [sit]

    def test_membership_is_fixed_when_built(self):
        sits = [make_sit(RA), make_sit(RA, {JOIN_RS}), make_sit(SB, {JOIN_RS})]
        pool = SITPool(sits)
        assert not hasattr(pool, "add")
        assert isinstance(pool.sits, tuple)
        assert pool.sits == tuple(sits)
        sits.append(make_sit(RX))  # the caller's list is not the pool's
        assert len(pool) == 3
        indexes = (
            dict(pool._by_attribute),
            dict(pool._by_member),
            dict(pool._expressions_by_attribute),
        )
        derived = [pool.restrict_joins(0), pool.base_only()]
        assert [len(narrowed) for narrowed in derived] == [1, 1]
        assert all(isinstance(narrowed.sits, tuple) for narrowed in derived)
        assert pool.sits == tuple(sits[:3])
        assert indexes == (
            pool._by_attribute,
            pool._by_member,
            pool._expressions_by_attribute,
        )

    def test_contains_and_iter(self):
        sit = make_sit(RA)
        pool = SITPool([sit])
        assert sit in pool
        assert list(pool) == [sit]


class TestConnectedJoinSubsets:
    def test_chain_subsets(self):
        subsets = connected_join_subsets(frozenset({JOIN_RS, JOIN_ST}), 2)
        assert frozenset({JOIN_RS}) in subsets
        assert frozenset({JOIN_ST}) in subsets
        assert frozenset({JOIN_RS, JOIN_ST}) in subsets

    def test_disconnected_pairs_excluded(self):
        far = JoinPredicate(Attribute("X", "x"), Attribute("Y", "y"))
        subsets = connected_join_subsets(frozenset({JOIN_RS, far}), 2)
        assert frozenset({JOIN_RS, far}) not in subsets
        assert len(subsets) == 2

    def test_size_cap(self):
        joins = frozenset({JOIN_RS, JOIN_ST, JOIN_TU})
        subsets = connected_join_subsets(joins, 1)
        assert all(len(s) == 1 for s in subsets)


class TestWorkloadRequests:
    def make_query(self):
        return Query.of(
            JOIN_RS,
            JOIN_ST,
            FilterPredicate(RA, 0, 10),
            FilterPredicate(TZ, 0, 5),
        )

    def test_base_histograms_for_all_attributes(self):
        requests = workload_sit_requests([self.make_query()], max_joins=0)
        assert requests[frozenset()] == {RA, RX, SY, ST, TZ}

    def test_expressions_limited_by_join_count(self):
        requests = workload_sit_requests([self.make_query()], max_joins=1)
        expressions = [e for e in requests if e]
        assert all(len(e) == 1 for e in expressions)

    def test_attributes_require_table_in_expression(self):
        requests = workload_sit_requests([self.make_query()], max_joins=1)
        attrs = requests[frozenset({JOIN_RS})]
        # R.a, R.x, S.y, S.t are on tables of R⋈S; T.z is not.
        assert TZ not in attrs
        assert RA in attrs

    def test_j2_contains_two_join_expressions(self):
        requests = workload_sit_requests([self.make_query()], max_joins=2)
        assert frozenset({JOIN_RS, JOIN_ST}) in requests


class TestBuildWorkloadPool:
    def test_pool_counts_grow_with_join_limit(self, two_table_db, two_table_attrs):
        builder = SITBuilder(two_table_db)
        query = Query.of(
            JoinPredicate(two_table_attrs["Rx"], two_table_attrs["Sy"]),
            FilterPredicate(two_table_attrs["Ra"], 0, 20),
        )
        j0 = build_workload_pool(builder, [query], max_joins=0)
        j1 = build_workload_pool(builder, [query], max_joins=1)
        assert len(j0) < len(j1)
        assert all(s.is_base for s in j0)

    def test_restriction_equals_rebuild(self, two_table_db, two_table_attrs):
        builder = SITBuilder(two_table_db)
        query = Query.of(
            JoinPredicate(two_table_attrs["Rx"], two_table_attrs["Sy"]),
            FilterPredicate(two_table_attrs["Ra"], 0, 20),
        )
        j1 = build_workload_pool(builder, [query], max_joins=1)
        j0_again = j1.restrict_joins(0)
        j0 = build_workload_pool(builder, [query], max_joins=0)
        assert {str(s) for s in j0_again} == {str(s) for s in j0}

    def test_no_duplicate_sits(self, two_table_db, two_table_attrs):
        builder = SITBuilder(two_table_db)
        query = Query.of(
            JoinPredicate(two_table_attrs["Rx"], two_table_attrs["Sy"]),
            FilterPredicate(two_table_attrs["Ra"], 0, 20),
        )
        pool = build_workload_pool(builder, [query, query], max_joins=1)
        names = [str(s) for s in pool]
        assert len(names) == len(set(names))
