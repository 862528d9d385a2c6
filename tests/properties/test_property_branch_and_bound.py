"""The bitmask DP's branch and bound against the exhaustive oracle.

For a priced error function (nInd, Diff) the DP visits a node's ``P'``
in the order of its unconditioned error and stops scoring pairs that
cannot win.  That is sound only because the unconditioned error bounds
every conditioning of ``P'`` from below; these properties check the
bound over *every* pair the exhaustive enumeration visits, and the
answer against :class:`LegacyGetSelectivity`, on random pools with full
and with partial base coverage (an attribute without a base histogram
keeps its nodes on the exhaustive, tail-first search).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DiffError, NIndError
from repro.core.get_selectivity import (
    GetSelectivity,
    LegacyGetSelectivity,
    NoApplicableStatisticsError,
)
from repro.core.predicates import (
    Attribute,
    FilterPredicate,
    JoinPredicate,
    attributes_of,
)
from repro.core.universe import iter_submasks
from repro.histograms.base import Bucket, Histogram
from repro.stats.pool import SITPool
from repro.stats.sit import SIT

TABLES = ("T0", "T1", "T2", "T3")
COLUMNS = ("a", "b")
ERRORS = {"nInd": lambda pool: NIndError(), "Diff": DiffError}
#: one shared histogram makes ties; drawn ones break them
SHARED = Histogram([Bucket(0.0, 100.0, 1000.0, 50.0)])


@st.composite
def histograms(draw):
    if draw(st.booleans()):
        return SHARED
    low = float(draw(st.integers(0, 80)))
    width = float(draw(st.integers(1, 40)))
    frequency = float(draw(st.integers(10, 1000)))
    return Histogram([Bucket(low, low + width, frequency, min(frequency, width))])


@st.composite
def workloads(draw, partial: bool):
    """A connected or separable predicate set over up to four tables, and
    a pool of base histograms (one dropped when ``partial``) plus SITs
    conditioned on subsets of its joins."""
    tables = draw(st.lists(st.sampled_from(TABLES), min_size=2, max_size=4, unique=True))
    joins = [
        JoinPredicate(
            Attribute(tables[draw(st.integers(0, i - 1))], draw(st.sampled_from(COLUMNS))),
            Attribute(tables[i], draw(st.sampled_from(COLUMNS))),
        )
        for i in range(1, len(tables))
    ]
    if len(joins) > 1 and draw(st.booleans()):
        joins.pop(draw(st.integers(0, len(joins) - 1)))  # separable
    filters = [
        FilterPredicate(
            Attribute(draw(st.sampled_from(tables)), draw(st.sampled_from(COLUMNS))),
            float(low),
            float(low + draw(st.integers(0, 30))),
        )
        for low in draw(st.lists(st.integers(0, 90), min_size=1, max_size=3))
    ]
    predicates = frozenset(joins + filters)
    attributes = sorted(attributes_of(predicates))
    based = list(attributes)
    ordered_joins = sorted(joins, key=str)
    sits = []
    if partial:
        unbased = draw(st.sampled_from(attributes))
        based.remove(unbased)
        # often conditioned where it has no base: a pair may then match
        # under some Q while the exhaustive search still raises elsewhere
        if draw(st.booleans()):
            expression = frozenset({draw(st.sampled_from(ordered_joins))})
            sits.append(SIT(unbased, expression, draw(histograms()), diff=0.5))
    sits += [SIT(a, frozenset(), draw(histograms()), diff=0.0) for a in based]
    for _ in range(draw(st.integers(0, 5))):
        expression = frozenset(
            draw(st.lists(st.sampled_from(ordered_joins), min_size=1, max_size=2))
        )
        diff = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)))
        sits.append(
            SIT(draw(st.sampled_from(attributes)), expression, draw(histograms()), diff=diff)
        )
    return predicates, SITPool(sits)


def answer(algorithm, predicates):
    try:
        result = algorithm(predicates)
    except NoApplicableStatisticsError:
        return NoApplicableStatisticsError
    return (
        result.selectivity,
        result.error,
        result.coverage,
        result.decomposition,
        result.matches,
    )


@pytest.mark.parametrize("coverage", ["full", "partial"])
@pytest.mark.parametrize("error_name", sorted(ERRORS))
class TestBranchAndBound:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_no_conditioning_scores_under_the_bound(self, error_name, coverage, data):
        predicates, pool = data.draw(workloads(coverage == "partial"))
        algorithm = GetSelectivity(pool, ERRORS[error_name](pool))
        universe = algorithm.universe
        scorer = algorithm._scorer
        for node in iter_submasks(universe.intern(predicates)):
            if not universe.is_connected(node):
                continue  # a separable node scores no pair of its own
            for p_mask in iter_submasks(node):
                q_mask = node ^ p_mask
                if q_mask:
                    error, _, _ = scorer.score(p_mask, q_mask)
                    assert error >= algorithm._bound(p_mask)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), pruning=st.booleans())
    def test_the_answer_is_the_exhaustive_oracles(
        self, error_name, coverage, data, pruning
    ):
        predicates, pool = data.draw(workloads(coverage == "partial"))
        make_error = ERRORS[error_name]
        bounded = GetSelectivity(pool, make_error(pool), sit_driven_pruning=pruning)
        # bits in arrival order, as a universe grown over many requests
        # has them: the order the bounded search visits ties in
        for predicate in data.draw(st.permutations(sorted(predicates, key=str))):
            bounded.universe.intern([predicate])
        oracle = LegacyGetSelectivity(pool, make_error(pool), sit_driven_pruning=pruning)
        assert answer(bounded, predicates) == answer(oracle, predicates)
        if coverage == "full":
            # every attribute has a base histogram: each node is searched
            # bounded, and each invocation is an explored pair or a bound
            assert bounded.matcher.calls == (
                bounded.explored_decompositions + bounded.bound_scores
            )
            assert bounded.explored_decompositions <= oracle.explored_decompositions
