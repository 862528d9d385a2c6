"""Safety-constrained, feedback-driven SIT self-tuning (:mod:`repro.advisor`).

The one advisor.  Static selection is the catalog path —
``StatisticsCatalog.build(...)`` then ``refresh(RefreshPolicy(max_sits=,
min_diff=), queries)``, which keeps the best SITs in
:func:`repro.stats.pool.rank_sits` order — and picks SITs once, from a
build-time score.  This package closes the loop at run time, starting
from that same ranking:

* :mod:`~repro.advisor.feedback` — the one feedback store: a bounded
  window of served estimates (predicates, estimated cardinality,
  matched SITs) plus engine-exact truth per predicate set, and the
  LEO-style :class:`FeedbackEstimator` that answers from that truth;
* :mod:`~repro.advisor.split` — deterministic, leak-free candidate /
  safety partitioning of the feedback (seeded hash, no RNG state);
* :mod:`~repro.advisor.search` — greedy configuration search in ranker
  order, scored by *measured* q-error against engine-exact truth;
* :mod:`~repro.advisor.safety` — the gate verifying worst-case q-error,
  space and refresh-cost bounds on the held-out safety split; any
  violation yields ``no-solution-found`` and the current configuration
  stands;
* :mod:`~repro.advisor.loop` — :class:`SelfTuningAdvisor`, the tick
  orchestration, applying accepted configurations through the catalog's
  refresh path.

The service layer (:mod:`repro.service`) runs the loop between batches
when ``ServiceConfig.advisor`` is set; it is equally usable standalone
(see ``python -m repro advisor``).
"""

from repro.advisor.config import AdvisorConfig
from repro.advisor.feedback import (
    FeedbackEstimator,
    FeedbackRecord,
    FeedbackStore,
)
from repro.advisor.loop import SelfTuningAdvisor, TuningReport
from repro.advisor.safety import NO_SOLUTION_FOUND, SafetyDecision, SafetyGate
from repro.advisor.search import ConfigurationSearch, MeasuredRecord
from repro.advisor.split import assign_split, split_records

__all__ = [
    "AdvisorConfig",
    "ConfigurationSearch",
    "FeedbackEstimator",
    "FeedbackRecord",
    "FeedbackStore",
    "MeasuredRecord",
    "NO_SOLUTION_FOUND",
    "SafetyDecision",
    "SafetyGate",
    "SelfTuningAdvisor",
    "TuningReport",
    "assign_split",
    "split_records",
]
