"""Plan-cache parity suite: cached replay vs the cold full DP.

The compiled-plan cache (:mod:`repro.core.plancache`) promises that a
template *hit* is bit-identical to running the full ``getSelectivity``
DP from scratch.  This suite holds it to that across 400 (shape,
constants) workload pairs — snowflake and TPC-H schemas, nInd and Diff
error functions — by generating template queries with the workload
generator, re-instantiating each template with fresh random constants,
and asserting exact (``==``, no tolerance) equality of selectivity,
error, coverage, decomposition and matches against an estimator that
has the cache disabled.

It also pins the resilience contract: degraded (ladder level > 0)
results are never compiled or served from the cache, and ``strict=True``
raises through the cache path without poisoning it.

And it pins what a replay returns: the number at once, ``decomposition``
and ``matches`` when first read — equal to the eager construction kept
here as the reference, and never built on the request path.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random
import threading

import pytest

from repro.catalog import EstimationSession, StatisticsCatalog
from repro.core import plancache
from repro.core.errors import DiffError, NIndError
from repro.core.get_selectivity import (
    EstimationResult,
    GetSelectivity,
    NoApplicableStatisticsError,
)
from repro.core.matching import AttributeMatch, FactorMatch
from repro.core.plancache import PlanCache, shape_fingerprint
from repro.core.predicates import FilterPredicate
from repro.core.selectivity import Decomposition, Factor
from repro.engine.expressions import Query
from repro.estimators import SITEstimator, make_gs_diff
from repro.obs import StalenessTracker
from repro.sql import parse_query
from repro.stats.builder import SITBuilder
from repro.stats.pool import SITPool, build_workload_pool
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from tests.core.test_predicate_keys import legacy_fingerprint
from tests.obs.test_explain import GOLDEN_DIR, GOLDEN_SQL, _approx_equal

#: templates per (database, error function) and constant instantiations
#: per template — 10 x 10 x 2 error functions x 2 databases = 400 pairs
TEMPLATES = 10
VARIANTS = 10

ERROR_FACTORIES = {
    "nInd": lambda pool: NIndError(),
    "Diff": lambda pool: DiffError(pool),
}


def build_setup(database, seed: int):
    generator = WorkloadGenerator(
        database,
        WorkloadConfig(join_count=2, filter_count=2, seed=seed),
    )
    templates = generator.generate(TEMPLATES)
    pool = build_workload_pool(SITBuilder(database), templates, max_joins=2)
    return templates, pool


@pytest.fixture(scope="module")
def snowflake_setup(tiny_snowflake):
    templates, pool = build_setup(tiny_snowflake, seed=13)
    return tiny_snowflake, templates, pool


@pytest.fixture(scope="module")
def tpch_setup(tpch_db):
    templates, pool = build_setup(tpch_db, seed=17)
    return tpch_db, templates, pool


# ----------------------------------------------------------------------
def constant_variants(
    rng: random.Random, predicates: frozenset, count: int
) -> list[frozenset]:
    """``count`` re-instantiations of one template with fresh constants.

    ``FilterPredicate.__str__`` leads with the constants, so a large
    enough perturbation permutes the positional ``str`` order and — by
    the fingerprint's deliberate design — lands in a *different*
    template (see :func:`test_order_permuting_constants_change_shape`).
    Here we want same-shape variants, so draws that flip the order are
    rejected and retried at a shrinking perturbation scale (scale → 0
    reproduces the template's own order, guaranteeing convergence).
    """
    joins = {p for p in predicates if p.is_join}
    filters = [p for p in predicates if not p.is_join]
    base_fingerprint = shape_fingerprint(predicates)[0]
    variants = []
    while len(variants) < count:
        for attempt in range(64):
            scale = 0.6 * (0.7**attempt)
            fresh: set = set(joins)
            for old in filters:
                span = max(1.0, old.high - old.low)
                low = round(old.low + rng.uniform(-scale, scale) * span, 3)
                if old.low == old.high:
                    # point filters render attribute-first (``a=c``);
                    # keep them points so the rendering class matches
                    high = low
                else:
                    high = round(low + span * rng.uniform(0.4, 1.8), 3)
                fresh.add(FilterPredicate(old.attribute, low, high))
            variant = frozenset(fresh)
            if shape_fingerprint(variant)[0] == base_fingerprint:
                variants.append(variant)
                break
        else:  # pragma: no cover - the scale decay makes this unreachable
            raise AssertionError("could not re-instantiate the template")
    return variants


def assert_bit_identical(cached, cold):
    assert cached.selectivity == cold.selectivity
    assert cached.error == cold.error
    assert cached.coverage == cold.coverage
    assert cached.decomposition == cold.decomposition
    assert cached.matches == cold.matches
    assert cached.degradation_level == 0 == cold.degradation_level


def run_parity(database, templates, pool, error_name: str) -> None:
    factory = ERROR_FACTORIES[error_name]
    warm = SITEstimator(
        database, pool, factory(pool), plan_cache=True
    )
    assert warm.plan_cache is not None, "plan-stable error fn must enable it"
    rng = random.Random(20260807)
    pairs = 0
    hits = 0
    for template in templates:
        base = frozenset(template.predicates)
        assert any(not p.is_join for p in base)  # constants exist to vary
        # a fresh DP per template is the cold baseline; its memo is
        # shared across the template's variants exactly like the
        # uncached estimator path would share it
        cold = SITEstimator(
            database, pool, factory(pool), plan_cache=False
        )
        assert cold.plan_cache is None
        for variant in [base, *constant_variants(rng, base, VARIANTS - 1)]:
            cached = warm.estimate_predicates(variant)
            assert_bit_identical(cached, cold.estimate_predicates(variant))
            pairs += 1
            hits += cached.plan_cache_hit
    assert pairs == TEMPLATES * VARIANTS
    # every variant after a template's first must replay (templates may
    # even share a shape, which only increases the hit count)
    status = warm.plan_cache.status()
    assert hits == status["hits"] >= pairs - TEMPLATES
    assert 0 < status["plans"] <= TEMPLATES
    assert status["compiles"] == status["plans"]


class TestReplayParity:
    @pytest.mark.parametrize("error_name", ["nInd", "Diff"])
    def test_snowflake(self, snowflake_setup, error_name):
        run_parity(*snowflake_setup, error_name)

    @pytest.mark.parametrize("error_name", ["nInd", "Diff"])
    def test_tpch(self, tpch_setup, error_name):
        run_parity(*tpch_setup, error_name)

    def test_suite_covers_200_pairs(self):
        """The documented floor: >=200 (shape, constants) pairs overall."""
        assert TEMPLATES * VARIANTS * len(ERROR_FACTORIES) * 2 >= 200


@pytest.mark.parametrize("error_name", ["nInd", "Diff"])
def test_sub_masks_solved_but_never_realized_compile_and_replay(
    snowflake_setup, error_name
):
    """A first request solves its sub-masks and realizes only its own
    chain; a second request for one of the others realizes it then, and
    its compiled plan replays the cold answer — for its own constants
    and for fresh ones."""
    _, templates, pool = snowflake_setup
    factory = ERROR_FACTORIES[error_name]
    rng = random.Random(31)
    compiled = 0
    for template in templates:
        algorithm = GetSelectivity(pool, factory(pool))
        algorithm(frozenset(template.predicates))
        for mask in list(algorithm._memo):
            subset = algorithm.universe.set_of(mask)
            if isinstance(algorithm._memo[mask], EstimationResult) or all(
                p.is_join for p in subset
            ):
                continue  # read already, or no constants to vary
            cache = PlanCache(pool)
            result = algorithm(subset)
            assert cache.compile(subset, algorithm, result) is not None
            for variant in [subset, *constant_variants(rng, subset, 2)]:
                cold = GetSelectivity(pool, factory(pool))
                assert_bit_identical(cache.estimate(variant), cold(variant))
            compiled += 1
    assert compiled >= len(templates)


def order_permuted(templates) -> tuple[frozenset, frozenset]:
    """A two-filter template, and it with the two filters' constant
    blocks swapped: the ``str`` order permutes."""
    template = next(
        t
        for t in templates
        if sum(1 for p in t.predicates if not p.is_join) >= 2
    )
    base = frozenset(template.predicates)
    joins = {p for p in base if p.is_join}
    filters = sorted((p for p in base if not p.is_join), key=str)
    first, second = filters[0], filters[1]
    swapped = frozenset(
        joins
        | {
            FilterPredicate(first.attribute, second.low, second.high),
            FilterPredicate(second.attribute, first.low, first.high),
        }
    )
    return base, swapped


def test_order_permuting_constants_change_shape(snowflake_setup):
    """The deliberate hit-rate-for-bit-identity trade: constants that
    permute the positional ``str`` order land in a *different*
    fingerprint, and the second ordering compiles its own plan — both
    still bit-identical to the cold DP."""
    database, templates, pool = snowflake_setup
    base, swapped = order_permuted(templates)
    assert shape_fingerprint(base)[0] != shape_fingerprint(swapped)[0]

    warm = SITEstimator(database, pool, NIndError(), plan_cache=True)
    warm.estimate_predicates(base)
    result = warm.estimate_predicates(swapped)
    assert not result.plan_cache_hit  # a different template: compile, no hit
    assert warm.plan_cache.status()["plans"] == 2
    cold = SITEstimator(database, pool, NIndError())
    assert_bit_identical(result, cold.estimate_predicates(swapped))
    # and each ordering replays behind its own plan from here on
    assert warm.estimate_predicates(base).plan_cache_hit
    assert warm.estimate_predicates(swapped).plan_cache_hit


def test_order_permuting_fingerprints_are_the_str_formatted_ones(snowflake_setup):
    """Keys and tokens built with the predicate leave both orderings'
    fingerprints — and the permutation between them — exactly as the
    ``str``-formatting fingerprint had them."""
    _, templates, _ = snowflake_setup
    for predicates in order_permuted(templates):
        assert shape_fingerprint(predicates) == legacy_fingerprint(predicates)


# ----------------------------------------------------------------------
@pytest.fixture()
def uncovered_pool(two_table_pool, two_table_attrs) -> SITPool:
    """The two-table pool without any statistic on ``S.b``: a filter on it
    walks the degradation ladder."""
    sb = two_table_attrs["Sb"]
    return SITPool([sit for sit in two_table_pool if sit.attribute != sb])


class TestLadderBypass:
    def test_degraded_results_are_never_compiled(
        self, two_table_db, uncovered_pool, two_table_attrs, two_table_join
    ):
        warm = SITEstimator(
            two_table_db, uncovered_pool, NIndError(), plan_cache=True
        )
        uncovered = Query.of(
            two_table_join, FilterPredicate(two_table_attrs["Sb"], 20.0, 70.0)
        )
        degraded = warm.estimate(uncovered)
        assert degraded.degradation_level > 0
        assert not degraded.plan_cache_hit
        assert len(warm.plan_cache) == 0
        assert warm.plan_cache.status()["compiles"] == 0

        # a covered query on the same estimator compiles (a miss, not a
        # poisoned hit) and matches a cache-less estimator exactly
        covered = Query.of(
            two_table_join, FilterPredicate(two_table_attrs["Ra"], 10.0, 40.0)
        )
        clean = warm.estimate(covered)
        assert clean.degradation_level == 0
        assert not clean.plan_cache_hit
        assert warm.plan_cache.status()["compiles"] == 1
        cold = SITEstimator(two_table_db, uncovered_pool, NIndError())
        assert_bit_identical(clean, cold.estimate(covered))
        assert warm.estimate(uncovered).degradation_level > 0

    def test_strict_raises_through_the_cache_path(
        self, two_table_db, uncovered_pool, two_table_attrs, two_table_join
    ):
        strict = SITEstimator(
            two_table_db, uncovered_pool, NIndError(), plan_cache=True, strict=True
        )
        uncovered = Query.of(
            two_table_join, FilterPredicate(two_table_attrs["Sb"], 20.0, 70.0)
        )
        with pytest.raises(NoApplicableStatisticsError):
            strict.estimate(uncovered)
        assert strict.plan_cache.status()["compiles"] == 0
        assert len(strict.plan_cache) == 0


# ----------------------------------------------------------------------
# What a replay returns: the number now, its provenance when read
# ----------------------------------------------------------------------
def eager_result(plan, ordered, selectivity) -> EstimationResult:
    """A replayed result with its provenance built up front — the
    construction every hit used to pay for, kept as the reference."""
    matches = tuple(
        FactorMatch(
            Factor(
                frozenset(ordered[i] for i in template.p_positions),
                frozenset(ordered[i] for i in template.q_positions),
            ),
            tuple(
                AttributeMatch(
                    attribute=at.attribute,
                    weight=at.weight,
                    sit=at.sit,
                    conditioning=frozenset(
                        ordered[i] for i in at.conditioning_positions
                    ),
                    assumed=frozenset(ordered[i] for i in at.assumed_positions),
                )
                for at in template.attribute_templates
            ),
        )
        for template in plan.templates
    )
    return EstimationResult(
        selectivity,
        plan.error,
        Decomposition(tuple(m.factor for m in matches)),
        matches,
        plan.coverage,
        plan_cache_hit=True,
    )


def matched_sit_names(result) -> tuple[str, ...]:
    """Sorted names of the conditioned (non-base) SITs that
    ``result.matches`` reads."""
    return tuple(
        sorted(
            {
                str(match.sit)
                for factor_match in result.matches
                for match in factor_match.attribute_matches
                if not match.sit.is_base
            }
        )
    )


@pytest.fixture()
def rebuilds(monkeypatch):
    """Counts ``_rebuild_match`` calls (one per factor of a built result)."""
    calls = []
    real = plancache._rebuild_match

    def spy(template, ordered):
        calls.append(template)
        return real(template, ordered)

    monkeypatch.setattr(plancache, "_rebuild_match", spy)
    return calls


def cold_batch(templates) -> list[frozenset]:
    """Two constant sets per template, one right behind the other: in a
    fresh session's batch the second member replays the plan the first
    one compiled."""
    rng = random.Random(20261016)
    batch = []
    for template in templates[:4]:
        base = frozenset(template.predicates)
        batch += [base, *constant_variants(rng, base, 1)]
    return batch


def wired_session(catalog, tracked: bool, **options):
    """A session with the staleness tracker a served one carries."""
    session = EstimationSession(catalog, NIndError(), **options)
    if tracked:
        tracker = StalenessTracker(clock=lambda: 100.0)
        for table in sorted(catalog.database.tables):
            tracker.note_write(table, when=97.5)
        session.staleness_tracker = tracker
    return session


def hot_requests(templates, per_template: int) -> list[frozenset]:
    rng = random.Random(20261003)
    requests = []
    for template in templates:
        base = frozenset(template.predicates)
        requests += [base, *constant_variants(rng, base, per_template - 1)]
    return requests


class TestDeferredProvenance:
    @pytest.mark.parametrize(
        "tracked", [False, True], ids=["untracked", "tracker"]
    )
    def test_hot_answers_build_nothing(self, snowflake_setup, rebuilds, tracked):
        database, templates, pool = snowflake_setup
        catalog = StatisticsCatalog.from_pool(pool, database=database)
        session = EstimationSession(catalog, NIndError())
        cold = EstimationSession(catalog, NIndError(), plan_cache=False)
        if tracked:
            session.staleness_tracker = StalenessTracker()
        requests = hot_requests(templates, 10)
        for request in requests:  # every shape compiles
            session.estimate(request)
        del rebuilds[:]

        answers = []
        for _ in range(5):
            answers += [session.estimate(request) for request in requests]
            answers += session.estimate_batch(requests)
        assert len(answers) == 1000
        assert all(answer.plan_cache_hit for answer in answers)
        if tracked:
            assert all(answer.staleness_s == 0.0 for answer in answers)
        assert rebuilds == []

        # one build on the first read of either field, none after
        first, second = answers[0], answers[1]
        assert len(first.matches) == len(rebuilds) > 0
        built = len(rebuilds)
        assert first.decomposition == cold.estimate(requests[0]).decomposition
        assert first.matches is first.matches
        assert len(rebuilds) == built
        assert second.factor_count == len(rebuilds) - built
        built = len(rebuilds)
        assert second.matches == cold.estimate(requests[1]).matches
        assert len(rebuilds) == built
        # a replay's matches read the conditioned SITs the cold answer's do
        for request, answer in zip(requests, answers[-len(requests):]):
            assert matched_sit_names(answer) == matched_sit_names(
                cold.estimate(request)
            )

        # a cold batch is one estimate per member, on every path: with
        # the cache on a later member replays the plan an earlier member
        # of the same batch compiled; off, or on another backend, it
        # solves again
        batch = cold_batch(templates)
        for options in ({}, {"plan_cache": False}, {"backend": "bn"}):
            batched = wired_session(catalog, tracked, **options)
            single = wired_session(catalog, tracked, **options)
            answers = batched.estimate_batch(batch)
            expected = [single.estimate(request) for request in batch]
            assert answers == expected
            for answer, one in zip(answers, expected):
                assert answer.plan_cache_hit == one.plan_cache_hit
                assert answer.staleness_s == one.staleness_s
                assert (answer.staleness_s == 2.5) is tracked
            assert answers[1].plan_cache_hit is (options == {})

    def test_deferred_equals_eager(self, snowflake_setup):
        database, templates, pool = snowflake_setup
        warm = SITEstimator(database, pool, DiffError(pool), plan_cache=True)
        for template in templates:
            predicates = frozenset(template.predicates)
            cold = warm.estimate_predicates(predicates)
            plan, ordered = warm.plan_cache.plan_for(predicates)
            eager = eager_result(plan, ordered, cold.selectivity)
            assert eager == cold
            # a fresh replay per check: each one is the first to read
            assert plan.replay(ordered) == eager
            assert eager == plan.replay(ordered)
            assert repr(plan.replay(ordered)) == repr(eager)
            assert hash(plan.replay(ordered)) == hash(eager)
            assert matched_sit_names(plan.replay(ordered)) == matched_sit_names(
                eager
            )

            replaced = dataclasses.replace(plan.replay(ordered), staleness_s=1.5)
            assert replaced == eager and repr(replaced) == repr(
                dataclasses.replace(eager, staleness_s=1.5)
            )
            assert copy.copy(plan.replay(ordered)) == eager
            # (an unpickled SIT is a new SIT: compare what has value equality)
            thawed = pickle.loads(pickle.dumps(plan.replay(ordered)))
            assert repr(thawed) == repr(pickle.loads(pickle.dumps(eager)))
            assert thawed.decomposition == eager.decomposition
            assert thawed.selectivity == eager.selectivity
            stamped = plan.replay(ordered).with_staleness(2.5)
            assert stamped.staleness_s == 2.5 and stamped.plan_cache_hit
            assert stamped == eager
            assert hash(stamped) == hash(eager)
            # stamping a result that was already read keeps what was built
            read = plan.replay(ordered)
            assert read.matches == eager.matches
            assert read.with_staleness(0.0).matches is read.matches

    def test_result_outlives_its_evicted_plan(self, snowflake_setup):
        database, templates, pool = snowflake_setup
        catalog = StatisticsCatalog.from_pool(pool, database=database)
        session = EstimationSession(catalog, NIndError())
        cold = EstimationSession(catalog, NIndError(), plan_cache=False)
        query = templates[0]
        session.estimate(query)
        held = session.estimate(query)
        assert held.plan_cache_hit
        expected = cold.estimate(query)
        table = sorted(query.tables)[0]
        catalog.notify_table_update(table)
        assert not session.estimate(query).plan_cache_hit  # the plan is gone
        assert session.plan_cache.status()["evictions"] >= 1
        assert held.matches == expected.matches
        assert held.decomposition == expected.decomposition
        assert held == expected

    def test_two_readers_get_equal_matches(self, snowflake_setup):
        database, templates, pool = snowflake_setup
        warm = SITEstimator(database, pool, NIndError(), plan_cache=True)
        cold = SITEstimator(database, pool, NIndError())
        for template in templates:
            warm.estimate(template)
            result = warm.estimate(template)
            assert result.plan_cache_hit
            barrier = threading.Barrier(2)
            seen = []

            def read():
                barrier.wait(timeout=10.0)
                seen.append((result.matches, result.decomposition))

            threads = [threading.Thread(target=read) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in threads)
            expected = cold.estimate(template)
            assert seen == [(expected.matches, expected.decomposition)] * 2
            assert result.matches == expected.matches

    def test_explain_of_a_hit_matches_the_goldens(self, tiny_snowflake):
        query = parse_query(GOLDEN_SQL, tiny_snowflake.schema)
        pool = build_workload_pool(
            SITBuilder(tiny_snowflake), [query], max_joins=2
        )
        estimator = make_gs_diff(tiny_snowflake, pool, plan_cache=True)
        estimator.estimate(query)  # compiles; the EXPLAIN below is a hit
        explained = estimator.explain(query)
        assert explained.plan_cache_hit
        text = explained.render_text().splitlines()
        text.remove("plan cache:  hit (replayed compiled plan)")
        golden_text = (GOLDEN_DIR / "explain_snowflake.txt").read_text()
        assert "\n".join(text) + "\n" == golden_text
        payload = json.loads(explained.to_json(include_stats=False))
        assert payload.pop("plan_cache_hit") is True
        golden = json.loads((GOLDEN_DIR / "explain_snowflake.json").read_text())
        assert golden.pop("plan_cache_hit") is False
        assert _approx_equal(payload, golden)
