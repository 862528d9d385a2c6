"""Static SIT selection: the one ranker, applied by the catalog path.

``StatisticsCatalog.build(...)`` builds the ``J_n`` candidates and
``refresh(RefreshPolicy(max_sits=, min_diff=), queries)`` keeps the best
of them in :func:`repro.stats.pool.rank_sits` order — what the deleted
``repro.stats.advisor.SITAdvisor`` did with a second config class.
"""

import dataclasses

import pytest

from repro.__main__ import main
from repro.catalog import RefreshPolicy, StatisticsCatalog
from repro.estimators import make_gs_diff
from repro.core.predicates import Attribute, FilterPredicate
from repro.engine.executor import Executor
from repro.engine.expressions import Query
from repro.stats.pool import SITPool, build_workload_pool, rank_sits
from repro.stats.builder import SITBuilder
from repro.workload.fixture import snowflake_fixture

#: below this a SIT gives no benefit over the base histogram (Example 4)
MIN_DIFF = 0.01


@pytest.fixture()
def workload(two_table_join, two_table_attrs):
    return [
        Query.of(two_table_join, FilterPredicate(two_table_attrs["Ra"], 0, 20)),
        Query.of(two_table_join, FilterPredicate(two_table_attrs["Sb"], 10, 40)),
    ]


def selected_pool(database, queries, max_sits, min_diff=MIN_DIFF) -> SITPool:
    """The catalog path: build ``J_2``, keep the best ``max_sits``."""
    catalog = StatisticsCatalog.build(database, queries, max_joins=2)
    catalog.refresh(RefreshPolicy(max_sits=max_sits, min_diff=min_diff), queries)
    return catalog.pool


def conditioned_names(pool) -> set[str]:
    return {str(sit) for sit in pool if not sit.is_base}


class TestAdvisorConfig:
    """Static selection has no config class of its own: the budget is
    ``RefreshPolicy.max_sits`` and the benefit floor ``.min_diff``."""

    def test_validation(self):
        with pytest.raises(ValueError):
            RefreshPolicy(max_sits=-1)
        assert RefreshPolicy(max_sits=0, min_diff=MIN_DIFF).max_sits == 0


class TestRecommendations:
    def test_high_diff_sits_rank_first(self, two_table_db, workload):
        catalog = StatisticsCatalog.build(two_table_db, workload, max_joins=2)
        ranked = rank_sits(catalog, (query.joins for query in workload))
        assert ranked
        scores = [score for _, score, _ in ranked]
        assert scores == sorted(scores, reverse=True)
        # The skew-reweighted S-side attributes are the valuable picks
        # (S.y: the Zipfian join key; S.b: reweighted by it).
        top_attributes = {sit.attribute for sit, _, _ in ranked[:2]}
        assert top_attributes == {Attribute("S", "y"), Attribute("S", "b")}

    def test_zero_diff_sits_excluded(self, two_table_db, workload):
        # R.a's distribution is unchanged by the join (diff ~ 0): the
        # budget must not be wasted on it (Example 4's lesson).
        kept = conditioned_names(selected_pool(two_table_db, workload, 20))
        assert kept
        assert "SIT(R.a | R.x=S.y)" not in kept

    def test_budget_respected(self, two_table_db, workload):
        assert len(conditioned_names(selected_pool(two_table_db, workload, 1))) == 1

    def test_applicability_counts_queries(self, two_table_db, workload):
        catalog = StatisticsCatalog.build(two_table_db, workload, max_joins=2)
        ranked = rank_sits(catalog, (query.joins for query in workload))
        assert {applicability for _, _, applicability in ranked} == {2}
        # no workload says nothing about applicability: every SIT counts once
        assert {applicability for _, _, applicability in rank_sits(catalog)} == {1}

    def test_ranker_skips_base_histograms(self, two_table_db, workload):
        catalog = StatisticsCatalog.build(two_table_db, workload, max_joins=2)
        assert all(not sit.is_base for sit, _, _ in rank_sits(catalog))


class TestAdvisorPool:
    def test_pool_contains_base_histograms(self, two_table_db, workload):
        # budget 0 = base histograms only
        pool = selected_pool(two_table_db, workload, 0)
        assert conditioned_names(pool) == set()
        for query in workload:
            for predicate in query.filters:
                assert pool.find_base(predicate.attribute) is not None

    def test_small_budget_matches_full_pool_on_key_query(
        self, two_table_db, workload
    ):
        """One well-chosen SIT captures most of the full pool's benefit."""
        advisor_pool = selected_pool(two_table_db, workload, 2)
        full_pool = build_workload_pool(
            SITBuilder(two_table_db), workload, max_joins=1
        )
        executor = Executor(two_table_db)
        query = workload[1]  # the S.b-filter query (the skewed one)
        true = executor.cardinality(query.predicates)
        advisor_error = abs(
            make_gs_diff(two_table_db, advisor_pool).cardinality(query) - true
        )
        full_error = abs(
            make_gs_diff(two_table_db, full_pool).cardinality(query) - true
        )
        assert advisor_error <= full_error * 1.5 + 1.0

    def test_selected_pool_no_worse_than_arbitrary_at_equal_budget(self):
        database, queries, catalog, _ = snowflake_fixture(
            0.05, 11, 4, join_count=3, filter_count=3, max_joins=2
        )
        full = catalog.pool
        catalog.refresh(RefreshPolicy(max_sits=4, min_diff=MIN_DIFF), queries)
        arbitrary = SITPool(
            [sit for sit in full if sit.is_base]
            + sorted((s for s in full if not s.is_base), key=str)[:4]
        )
        executor = Executor(database)

        def total_error(pool) -> float:
            estimator = make_gs_diff(database, pool)
            return sum(
                abs(
                    estimator.cardinality(query)
                    - executor.cardinality(query.predicates)
                )
                for query in queries
            )

        assert total_error(catalog.pool) <= total_error(arbitrary)

    def test_empty_workload(self, two_table_db):
        assert len(selected_pool(two_table_db, [], 20)) == 0


CS = "customer.customer_id=sales.customer_id"
CN = "customer.nation_id=nation.nation_id"
NR = "nation.region_id=region.region_id"


def name(attribute: str, *joins: str) -> str:
    return f"SIT({attribute} | {', '.join(joins)})"


#: the ten candidates with ``diff_H >= 0.45``
HIGH_DIFF = [
    name("customer.customer_id", CS),
    name("customer.customer_id", CS, CN),
    name("customer.customer_id", CS, "promotion.promotion_id=sales.promotion_id"),
    name("customer.customer_id", CS, "sales.store_id=store.store_id"),
    name("region.area", CN, NR),
    name("region.area", NR),
    name("region.climate", CN, NR),
    name("region.climate", NR),
    name("region.region_id", CN, NR),
    name("region.region_id", NR),
]
#: (budget, min_diff) -> the conditioned SITs that
#: ``SITAdvisor(SITBuilder(db), AdvisorConfig(budget, 2, min_diff))
#: .build_pool(queries)`` returned at the parent commit (``cf22c2f``),
#: next to the 17 base histograms, on the fixture below
PARENT_PICKS = {
    (0, 0.01): [],
    (0, 0.45): [],
    (3, 0.01): [
        name("customer.customer_id", CS),
        name("customer.income", CS),
        name("customer.segment", CS),
    ],
    (3, 0.45): [
        name("customer.customer_id", CS),
        name("region.area", NR),
        name("region.climate", NR),
    ],
    (12, 0.01): sorted(
        HIGH_DIFF + [name("customer.income", CS), name("customer.segment", CS)]
    ),
    (12, 0.45): HIGH_DIFF,
}


class TestSamePicksAsTheDeletedAdvisor:
    @pytest.fixture(scope="class")
    def fixture(self):
        return snowflake_fixture(
            0.05, 11, 4, join_count=3, filter_count=3, max_joins=0
        )

    @pytest.mark.parametrize("min_diff", [0.01, 0.45])
    @pytest.mark.parametrize("budget", [0, 3, 12])
    def test_pool_is_the_recorded_one(self, fixture, budget, min_diff):
        database, queries, _, _ = fixture
        pool = selected_pool(database, queries, budget, min_diff)
        assert sum(1 for sit in pool if sit.is_base) == 17
        assert sorted(conditioned_names(pool)) == PARENT_PICKS[budget, min_diff]


class TestOneOrder:
    """The refresh filter and ``catalog advise`` rank with one function:
    given the same SITs and workload — two candidates tying on score —
    both give one order (ties by name, not by pool position)."""

    ARGS = ["--scale", "0.05", "--seed", "11", "--queries", "3"]

    @pytest.fixture()
    def tied(self):
        database, queries, catalog, _ = snowflake_fixture(0.05, 11, 3)
        ranked = rank_sits(catalog, (query.joins for query in queries))
        top_sit, top_score, _ = ranked[0]
        # lift a later SIT of the same expression to the top score, and
        # put it first in the pool so position and name disagree
        twin = next(
            sit
            for sit, _, _ in reversed(ranked)
            if sit.expression == top_sit.expression and str(sit) > str(top_sit)
        )
        lifted = dataclasses.replace(twin, diff=top_sit.diff)
        pool = SITPool(
            [lifted] + [sit for sit in catalog if sit is not twin]
        )
        expected = [
            str(sit)
            for sit, _, _ in rank_sits(pool, (q.joins for q in queries))
        ]
        assert expected[:2] == [str(top_sit), str(lifted)]
        return database, queries, pool, expected

    def test_refresh_and_cli_agree(self, tied, tmp_path, capsys):
        database, queries, pool, expected = tied

        def kept(budget: int) -> set[str]:
            catalog = StatisticsCatalog.from_pool(pool, database)
            catalog.refresh(RefreshPolicy(max_sits=budget), queries)
            return conditioned_names(catalog)

        by_refresh = [
            (kept(budget) - kept(budget - 1)).pop()
            for budget in range(1, len(expected) + 1)
        ]
        assert by_refresh == expected

        path = tmp_path / "catalog.json"
        StatisticsCatalog.from_pool(pool, database).save(path)
        assert main(["catalog", "advise", "--path", str(path), *self.ARGS]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(None, 2)[2] for row in rows] == expected
