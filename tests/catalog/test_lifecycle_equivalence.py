"""Lifecycle equivalence: a long-lived session answers as a fresh one.

A SIT pool's membership is fixed when it is built, so every answer over
it is a pure function of the pool and the predicates.  Whatever
sequence of ``notify_table_update`` / ``refresh`` / ``add`` / ``remove``
the catalog goes through, a session that has been answering all along
must give the answer a fresh session over the *same pinned snapshot*
gives, with its plan cache on or off; and every plan still held in a
cache must replay as a fresh compile of its shape does.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog import EstimationSession, StatisticsCatalog
from repro.core.plancache import compile_plan, shape_fingerprint
from repro.core.predicates import FilterPredicate
from repro.estimators import create_estimator
from repro.stats.builder import SITBuilder
from repro.stats.pool import SITPool

#: live sessions kept besides the first: each step pins one more
KEPT_SESSIONS = 3

OPERATIONS = st.one_of(
    st.tuples(st.just("notify"), st.sampled_from(["R", "S"])),
    st.tuples(st.just("refresh"), st.just(0)),
    st.tuples(st.just("add"), st.integers(0, 3)),
    st.tuples(st.just("remove"), st.integers(0, 3)),
)


def queries(attrs, join) -> list[frozenset]:
    """Four shapes, each at two constant sets."""
    ra, sb = attrs["Ra"], attrs["Sb"]
    out = []
    for low, high in ((10.0, 40.0), (0.0, 25.0)):
        out += [
            frozenset({join, FilterPredicate(ra, low, high)}),
            frozenset({join, FilterPredicate(sb, low, high)}),
            frozenset(
                {join, FilterPredicate(ra, low, high), FilterPredicate(sb, low, high)}
            ),
            frozenset({FilterPredicate(ra, low, high)}),
        ]
    return out


def fresh_answer(snapshot, predicates):
    return EstimationSession(snapshot, plan_cache=False).estimate(predicates)


def check_kept_plans(session, workload) -> None:
    """Each plan the session's cache still holds replays as a fresh
    compile over the pinned pool does, on every constant set."""
    cache = session.plan_cache
    for predicates in workload:
        fingerprint, ordered = shape_fingerprint(predicates)
        kept = cache._plans.get(fingerprint)
        if kept is None:
            continue
        estimator = create_estimator("sit", session.database, session.snapshot)
        algorithm = estimator.algorithm
        fresh = compile_plan(algorithm, predicates, algorithm(predicates))
        assert fresh is not None
        assert (kept.tree, kept.templates, kept.error, kept.coverage) == (
            fresh.tree,
            fresh.templates,
            fresh.error,
            fresh.coverage,
        )
        assert kept.replay(ordered) == fresh.replay(ordered)


def check_sessions(live, workload) -> None:
    for cached, uncached in live:
        check_kept_plans(cached, workload)
        for predicates in workload:
            expected = fresh_answer(cached.snapshot, predicates)
            assert cached.estimate(predicates) == expected
            assert uncached.estimate(predicates) == expected
        check_kept_plans(cached, workload)


@settings(max_examples=20, deadline=None)
@given(steps=st.lists(OPERATIONS, min_size=1, max_size=6))
# the stale-candidate case: a session solves R⋈S ∧ 10 ≤ R.a ≤ 40 over
# base histograms, then a notify, then SIT(R.a | R⋈S) joins the catalog
@example(steps=[("notify", "R"), ("add", 0)])
def test_long_lived_sessions_answer_as_fresh_ones(
    two_table_db, two_table_attrs, two_table_join, steps
):
    builder = SITBuilder(two_table_db)
    base = [builder.build_base(attribute) for attribute in two_table_attrs.values()]
    conditioned = builder.build_many(
        frozenset({two_table_join}),
        [two_table_attrs[name] for name in ("Ra", "Sb", "Rx", "Sy")],
    )
    catalog = StatisticsCatalog.from_pool(SITPool(base), database=two_table_db)
    workload = queries(two_table_attrs, two_table_join)

    def pin() -> tuple[EstimationSession, EstimationSession]:
        return (
            EstimationSession(catalog, plan_cache=True),
            EstimationSession(catalog, plan_cache=False),
        )

    first = pin()
    live = [first]
    check_sessions(live, workload)
    for operation, argument in steps:
        if operation == "notify":
            catalog.notify_table_update(argument)
        elif operation == "refresh":
            catalog.refresh()
        elif operation == "add":
            catalog.add(conditioned[argument])
        else:
            catalog.remove(conditioned[argument])
        live = [first, *live[1:][-(KEPT_SESSIONS - 1):], pin()]
        check_sessions(live, workload)
    # the first session never moved off the pool it pinned
    first[0].assert_pinned()
    first[1].assert_pinned()
    # while a session pinned now reads the catalog's latest pool
    assert EstimationSession(catalog).pool is catalog.pool
