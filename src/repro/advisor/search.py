"""Configuration search over conditioned SITs, scored by *measured* q-error.

Static selection (:func:`repro.stats.pool.rank_sits`, applied by the
catalog's budgeted refresh) ranks candidates by a build-time score.
That ranking is the right prior, but it knows nothing about how the
deployed estimator actually performs on live traffic.  This module
closes the loop: a *configuration* is a subset of conditioned SIT
names, and it is evaluated by replaying the candidate-split feedback
records against an estimator built from exactly that subset (plus the
always-kept base histograms), scoring the median q-error against
engine-exact truth (:func:`replay_q_errors`).

The search is a bounded greedy: walk the candidates in ranker order —
applicability measured against the feedback records' join sets —
trial-adding each (kept only if the measured median improves and the
space budget still holds), then one drop pass removing anything whose
absence doesn't hurt.  Every step is deterministic — tie-breaks by
rank then name — so the same records and candidates always produce the
same configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.advisor.feedback import FeedbackRecord
from repro.core.predicates import join_predicates, tables_of
from repro.engine.database import Database
from repro.estimators.sit import SITEstimator
from repro.stats.pool import SITPool, rank_sits
from repro.stats.sit import SIT

#: guard against exact zeros in the q-error ratio
EPSILON = 1e-9
#: minimum median improvement for an add move to be kept
IMPROVEMENT_TOLERANCE = 1e-9


def q_error(estimated: float, true: float) -> float:
    """``max(est, true) / min(est, true)``, epsilon-guarded."""
    high = max(estimated, true) + EPSILON
    low = min(estimated, true) + EPSILON
    return high / low


def median(values: Sequence[float]) -> float:
    """Deterministic median (mean of middle pair on even length)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass(frozen=True)
class MeasuredRecord:
    """A feedback record with its engine-exact truth resolved."""

    record: FeedbackRecord
    true_cardinality: int


def replay_q_errors(
    database: Database,
    base_sits: Sequence[SIT],
    chosen_sits: Sequence[SIT],
    records: Sequence[MeasuredRecord],
) -> list[float]:
    """Per-record q-errors of an estimator over ``base + chosen``: what
    the search scores a configuration by on the candidate split and the
    safety gate checks on the held-out split."""
    estimator = SITEstimator(database, SITPool([*base_sits, *chosen_sits]))
    errors = []
    for measured in records:
        predicates = measured.record.predicates
        result = estimator.estimate_predicates(predicates)
        estimated = result.selectivity * database.cross_product_size(
            tables_of(predicates)
        )
        errors.append(q_error(estimated, float(measured.true_cardinality)))
    return errors


@dataclass
class ConfigurationSearch:
    """Greedy add/drop search over conditioned-SIT subsets."""

    database: Database
    #: always-kept base histograms
    base_sits: Sequence[SIT]
    #: conditioned candidates (any order; ranked internally)
    candidates: Sequence[SIT]
    #: candidate-split records with resolved truth
    records: Sequence[MeasuredRecord]
    space_budget_bytes: float | None = None
    max_moves: int = 24
    #: configuration evaluations actually spent (for observability)
    evaluations: int = field(init=False, default=0)

    def evaluate(self, chosen: frozenset[str]) -> list[float]:
        """Replay the records against ``base + chosen``; per-record q-errors."""
        self.evaluations += 1
        return replay_q_errors(
            self.database,
            self.base_sits,
            [sit for sit in self.candidates if str(sit) in chosen],
            self.records,
        )

    def ranked_candidates(self) -> list[SIT]:
        """Candidates in ranker order, applicability measured against
        the records: how many of their join sets make the SIT a match
        candidate."""
        ranked = rank_sits(
            self.candidates,
            (join_predicates(m.record.predicates) for m in self.records),
        )
        return [sit for sit, _, _ in ranked]

    def greedy(self) -> tuple[frozenset[str], float]:
        """The search; returns ``(chosen names, candidate-split median)``."""
        if not self.records:
            return frozenset(), float("inf")
        spaces = {str(sit): sit.space_bytes for sit in self.candidates}
        chosen: set[str] = set()
        used_space = 0.0
        best = median(self.evaluate(frozenset()))
        budget = self.space_budget_bytes
        # add pass: static-prior order, keep a move only if measured
        # median q-error improves and the space budget still holds
        for sit in self.ranked_candidates():
            if self.evaluations >= self.max_moves:
                break
            name = str(sit)
            if budget is not None and used_space + spaces[name] > budget:
                continue
            trial_median = median(self.evaluate(frozenset(chosen | {name})))
            if trial_median < best - IMPROVEMENT_TOLERANCE:
                chosen.add(name)
                used_space += spaces[name]
                best = trial_median
        # drop pass: anything whose absence doesn't hurt goes (smaller
        # configurations are cheaper to hold and to refresh)
        for name in sorted(chosen):
            if self.evaluations >= self.max_moves:
                break
            trial_median = median(self.evaluate(frozenset(chosen - {name})))
            if trial_median <= best + IMPROVEMENT_TOLERANCE:
                chosen.discard(name)
                used_space -= spaces[name]
                best = trial_median
        return frozenset(chosen), best


__all__ = [
    "EPSILON",
    "ConfigurationSearch",
    "MeasuredRecord",
    "median",
    "q_error",
    "replay_q_errors",
]
