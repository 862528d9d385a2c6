"""``EXPLAIN ESTIMATE`` tests: golden files, parity and structure.

The golden files under ``tests/obs/golden/`` pin the text tree and JSON
payload of a fixed snowflake query.  Regenerate them (after an intended
rendering change) with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_explain.py
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.core.errors import DiffError, NIndError
from repro.estimators import SITEstimator, make_gs_diff
from repro.obs.explain import (
    AttributeExplanation,
    ExplainResult,
    build_explain,
)
from repro.sql import parse_query
from repro.stats.builder import SITBuilder
from repro.stats.pool import build_workload_pool
from tests.conftest import with_reference_engine

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: the fixed snowflake query the golden files pin
GOLDEN_SQL = (
    "SELECT * FROM sales, customer, nation "
    "WHERE sales.customer_id = customer.customer_id "
    "AND customer.nation_id = nation.nation_id "
    "AND customer.age BETWEEN 20 AND 40"
)


@pytest.fixture(scope="module")
def golden_setup(tiny_snowflake):
    query = parse_query(GOLDEN_SQL, tiny_snowflake.schema)
    pool = build_workload_pool(
        SITBuilder(tiny_snowflake), [query], max_joins=2
    )
    return tiny_snowflake, pool, query


def _approx_equal(left, right, rel=1e-9):
    """Structural equality with approximate floats (golden JSON check)."""
    if isinstance(left, float) or isinstance(right, float):
        return left == pytest.approx(right, rel=rel)
    if isinstance(left, dict) and isinstance(right, dict):
        return set(left) == set(right) and all(
            _approx_equal(left[k], right[k], rel) for k in left
        )
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(
            _approx_equal(a, b, rel) for a, b in zip(left, right)
        )
    return left == right


def _check_golden(path: pathlib.Path, actual: str) -> None:
    if os.environ.get("REGEN_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(actual + "\n")
        return
    assert path.exists(), (
        f"missing golden file {path}; regenerate with REGEN_GOLDEN=1"
    )
    expected = path.read_text().rstrip("\n")
    if path.suffix == ".json":
        assert _approx_equal(json.loads(actual), json.loads(expected))
    else:
        assert actual == expected


class TestGoldenExplain:
    def test_text_tree_matches_golden(self, golden_setup):
        database, pool, query = golden_setup
        estimator = make_gs_diff(database, pool)
        result = estimator.explain(query)
        _check_golden(
            GOLDEN_DIR / "explain_snowflake.txt", result.render_text()
        )

    def test_json_matches_golden(self, golden_setup):
        database, pool, query = golden_setup
        estimator = make_gs_diff(database, pool)
        result = estimator.explain(query)
        _check_golden(
            GOLDEN_DIR / "explain_snowflake.json",
            result.to_json(include_stats=False),
        )


class TestExplainParity:
    @pytest.mark.parametrize("engine", ["bitmask", "legacy"])
    def test_explain_equals_estimate_exactly(self, golden_setup, engine):
        database, pool, query = golden_setup
        estimator = SITEstimator(database, pool, DiffError(pool))
        if engine == "legacy":
            with_reference_engine(estimator)
        expected = estimator.estimate(query).selectivity
        result = estimator.explain(query)
        assert result.selectivity == expected  # exact, not approx
        assert result.engine == engine

    def test_engines_agree_factor_by_factor(self, golden_setup):
        database, pool, query = golden_setup
        bitmask = SITEstimator(database, pool, NIndError()).explain(query)
        legacy = with_reference_engine(
            SITEstimator(database, pool, NIndError())
        ).explain(query)
        assert bitmask.selectivity == pytest.approx(legacy.selectivity)
        assert [f.factor for f in bitmask.factors] == [
            f.factor for f in legacy.factors
        ]

    def test_explain_accepts_sql_text(self, golden_setup):
        database, pool, query = golden_setup
        estimator = make_gs_diff(database, pool)
        from_sql = estimator.explain(GOLDEN_SQL)
        from_query = estimator.explain(query)
        assert from_sql.selectivity == from_query.selectivity


class TestExplainStructure:
    def test_factor_product_reconstructs_selectivity(self, golden_setup):
        database, pool, query = golden_setup
        result = make_gs_diff(database, pool).explain(query)
        product = 1.0
        for factor in result.factors:
            product *= factor.selectivity
        assert product == pytest.approx(result.selectivity)

    def test_cardinality_is_selectivity_times_cross_product(self, golden_setup):
        database, pool, query = golden_setup
        result = make_gs_diff(database, pool).explain(query)
        assert result.cardinality == pytest.approx(
            result.selectivity * database.cross_product_size(query.tables)
        )

    def test_attributes_document_their_sits(self, golden_setup):
        database, pool, query = golden_setup
        result = make_gs_diff(database, pool).explain(query)
        attributes = [a for f in result.factors for a in f.attributes]
        assert attributes, "every factor explains at least one attribute"
        for attribute in attributes:
            assert attribute.sit.startswith("SIT(")
            if attribute.is_base:
                assert attribute.covered == ()

    def test_independence_fallback_flag(self):
        fallback = AttributeExplanation(
            attribute="R.a",
            weight=1.0,
            sit="SIT(R.a)",
            is_base=True,
            diff=0.0,
            conditioning=("R.x=S.y",),
            covered=(),
            assumed=("R.x=S.y",),
        )
        assert fallback.independence_fallback
        exact = AttributeExplanation(
            attribute="R.a",
            weight=1.0,
            sit="SIT(R.a | R.x=S.y)",
            is_base=False,
            diff=0.1,
            conditioning=("R.x=S.y",),
            covered=("R.x=S.y",),
            assumed=(),
        )
        assert not exact.independence_fallback

    def test_stats_snapshot_attached(self, golden_setup):
        database, pool, query = golden_setup
        estimator = make_gs_diff(database, pool)
        result = build_explain(estimator, query)
        assert result.stats.caches["memo_entries"] > 0
        assert result.stats.meta["estimator"] == "GS-Diff"

    def test_str_is_text_tree(self, golden_setup):
        database, pool, query = golden_setup
        result = make_gs_diff(database, pool).explain(query)
        assert str(result) == result.render_text()
        assert isinstance(result, ExplainResult)

    def test_render_text_with_stats_appends_namespaces(self, golden_setup):
        database, pool, query = golden_setup
        result = make_gs_diff(database, pool).explain(query)
        rendered = result.render_text(include_stats=True)
        assert "stats:" in rendered
        assert "caches.memo_entries" in rendered
