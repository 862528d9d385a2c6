"""An :class:`~repro.catalog.EstimationSession` answer, backend by backend.

A session's answered request is the backend's estimate plus its
staleness stamp, nothing else: the stamp names the worst pending write
over the tables the predicates touch, and never changes the estimate.
The same holds for a batch, for ``explain`` through the session and for
``cardinality`` of a bare predicate set, on every backend of
:data:`repro.estimators.BACKENDS`.
"""

from __future__ import annotations

import pytest

from repro.catalog import EstimationSession, StatisticsCatalog
from repro.core.predicates import FilterPredicate
from repro.engine.expressions import Query
from repro.estimators import BACKENDS, create_estimator
from repro.obs.staleness import StalenessTracker


class Clock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def catalog(two_table_db, two_table_pool) -> StatisticsCatalog:
    return StatisticsCatalog.from_pool(two_table_pool, database=two_table_db)


@pytest.fixture()
def r_only(two_table_attrs) -> Query:
    return Query.of(FilterPredicate(two_table_attrs["Ra"], 10.0, 40.0))


@pytest.fixture()
def s_only(two_table_attrs) -> Query:
    return Query.of(FilterPredicate(two_table_attrs["Sb"], 20.0, 60.0))


@pytest.fixture()
def joined(two_table_attrs, two_table_join) -> Query:
    return Query.of(
        two_table_join, FilterPredicate(two_table_attrs["Ra"], 10.0, 40.0)
    )


@pytest.fixture()
def stale_r():
    """A tracker whose table ``R`` has one write 2.5 s old pending."""
    clock = Clock()
    tracker = StalenessTracker(clock=clock)
    tracker.note_write("R", when=clock.now)
    clock.now += 2.5
    return tracker


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_answer_is_the_estimate_plus_its_stamp(
    backend, catalog, two_table_db, stale_r, r_only, s_only, joined
):
    bare = create_estimator(backend, two_table_db, catalog)
    session = EstimationSession(catalog, backend=backend)
    session.staleness_tracker = stale_r
    for query, staleness in ((r_only, 2.5), (s_only, 0.0), (joined, 2.5)):
        result = session.estimate(query)
        assert result.staleness_s == pytest.approx(staleness)
        assert result.selectivity == bare.estimate(query).selectivity
        assert result.backend == backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_batch_is_stamped_member_by_member(
    backend, catalog, stale_r, r_only, s_only, joined
):
    session = EstimationSession(catalog, backend=backend)
    single = [
        session.estimate(query).selectivity for query in (r_only, s_only, joined)
    ]
    session.staleness_tracker = stale_r
    results = session.estimate_batch(
        [query.predicates for query in (r_only, s_only, joined)]
    )
    assert [result.selectivity for result in results] == single
    assert [result.staleness_s for result in results] == pytest.approx(
        [2.5, 0.0, 2.5]
    )
    assert session.queries == 6


@pytest.mark.parametrize("backend", BACKENDS)
def test_explain_goes_through_the_sessions_backend(backend, catalog, joined):
    session = EstimationSession(catalog, backend=backend)
    explained = session.explain(joined)
    assert explained.backend == backend
    assert explained.selectivity == session.estimate(joined).selectivity
    sql = "SELECT * FROM R, S WHERE R.x = S.y AND R.a BETWEEN 10 AND 40"
    assert session.explain(sql).tables == ("R", "S")


@pytest.mark.parametrize("backend", BACKENDS)
def test_cardinality_of_a_bare_predicate_set(
    backend, catalog, two_table_db, joined
):
    session = EstimationSession(catalog, backend=backend)
    from_query = session.cardinality(joined)
    from_set = session.cardinality(set(joined.predicates))
    assert from_set == from_query
    assert from_query == pytest.approx(
        session.selectivity(joined) * two_table_db.cross_product_size({"R", "S"})
    )
