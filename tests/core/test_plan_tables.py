"""A compiled plan knows its tables: ``CompiledPlan.tables``, read off
the fingerprint when the plan is built, is ``tables_of`` the predicates
that compiled it, for every plan of the plan-cache parity workloads
(snowflake and TPC-H, nInd and Diff) and for every constant set of its
shape — the service stamps a hit's staleness over it."""

from __future__ import annotations

import random

import pytest

from repro.core.predicates import tables_of
from repro.estimators import SITEstimator
from tests.core.test_plan_cache_parity import (
    ERROR_FACTORIES,
    VARIANTS,
    constant_variants,
    snowflake_setup,
    tpch_setup,
)

__all__ = ["snowflake_setup", "tpch_setup"]  # the fixtures, re-exported


@pytest.mark.parametrize("error_name", sorted(ERROR_FACTORIES))
@pytest.mark.parametrize("setup", ["snowflake_setup", "tpch_setup"])
def test_every_plans_tables_are_its_predicates(request, setup, error_name):
    database, templates, pool = request.getfixturevalue(setup)
    warm = SITEstimator(
        database, pool, ERROR_FACTORIES[error_name](pool), plan_cache=True
    )
    rng = random.Random(20261020)
    checked = set()
    for template in templates:
        base = frozenset(template.predicates)
        for variant in [base, *constant_variants(rng, base, VARIANTS - 1)]:
            warm.estimate_predicates(variant)
            plan, _ = warm.plan_cache.plan_for(variant)
            assert plan is not None
            assert plan.tables == tables_of(variant)
            assert type(plan.tables) is frozenset
            checked.add(id(plan))
    plans = list(warm.plan_cache._plans.values())
    assert plans and {id(plan) for plan in plans} <= checked
