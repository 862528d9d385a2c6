"""repro — a full reproduction of *Conditional Selectivity for Statistics
on Query Expressions* (Bruno & Chaudhuri, SIGMOD 2004).

The public API is re-exported here; the subpackages are:

* :mod:`repro.core` — conditional selectivity, ``getSelectivity``, error
  functions (``nInd``, ``Diff``, ``Opt``) and the GVM baseline;
* :mod:`repro.engine` — the in-memory relational engine used for exact
  ground truth;
* :mod:`repro.histograms` — MaxDiff/equi-depth/equi-width histograms and
  the histogram join;
* :mod:`repro.stats` — SITs: construction, ``diff_H`` and workload pools;
* :mod:`repro.estimators` — the backend-neutral
  :class:`~repro.estimators.Estimator` protocol and its three
  implementations (SIT/DP, Bayesian network, guaranteed sampling),
  selected by name through :func:`~repro.estimators.create_estimator`;
* :mod:`repro.catalog` — the SIT lifecycle behind one versioned,
  snapshot-isolated :class:`~repro.catalog.StatisticsCatalog`
  (build → serve → feedback → invalidate → refresh) plus
  :class:`~repro.catalog.EstimationSession` for cross-query cache reuse;
* :mod:`repro.optimizer` — a Cascades-style memo and the Section 4
  integration;
* :mod:`repro.workload` — the paper's synthetic snowflake database and
  random SPJ query generator;
* :mod:`repro.obs` — observability: per-stage tracing, the metrics
  registry, the unified ``StatsSnapshot`` and ``EXPLAIN ESTIMATE``;
* :mod:`repro.service` — the concurrent estimation-serving subsystem:
  worker pool + micro-batching + admission control behind
  :class:`~repro.service.EstimationService`, the asyncio JSON-lines
  server (``python -m repro serve``) and the one client entrypoint
  :func:`~repro.service.connect`;
* :mod:`repro.bench` — the experiment harness regenerating every figure.
"""

from repro.core import (
    Attribute,
    DiffError,
    FilterPredicate,
    GreedyViewMatching,
    JoinPredicate,
    NIndError,
    OptError,
    make_gs_diff,
    make_gs_nind,
    make_gs_opt,
    make_nosit,
)
from repro.catalog import (
    CatalogSnapshot,
    EstimationSession,
    RefreshPolicy,
    StatisticsCatalog,
)
from repro.engine import Database, Executor, Query, Schema, Table, TableSchema
from repro.estimators import (
    BACKENDS,
    BayesianNetworkEstimator,
    Estimator,
    GuaranteedSampleEstimator,
    SITEstimator,
    create_estimator,
)
from repro.obs import ExplainResult, MetricsRegistry, StatsSnapshot, Trace
from repro.service import (
    EstimationService,
    HealingConfig,
    Overloaded,
    ServedEstimate,
    ServiceConfig,
    connect,
)
from repro.stats import SIT, SITBuilder, SITPool, build_workload_pool

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "BACKENDS",
    "BayesianNetworkEstimator",
    "CatalogSnapshot",
    "Database",
    "DiffError",
    "EstimationService",
    "EstimationSession",
    "Estimator",
    "Executor",
    "ExplainResult",
    "FilterPredicate",
    "GreedyViewMatching",
    "GuaranteedSampleEstimator",
    "HealingConfig",
    "JoinPredicate",
    "MetricsRegistry",
    "NIndError",
    "OptError",
    "Overloaded",
    "Query",
    "RefreshPolicy",
    "SIT",
    "SITBuilder",
    "SITEstimator",
    "SITPool",
    "Schema",
    "ServedEstimate",
    "ServiceConfig",
    "StatisticsCatalog",
    "StatsSnapshot",
    "Table",
    "TableSchema",
    "Trace",
    "build_workload_pool",
    "connect",
    "create_estimator",
    "make_gs_diff",
    "make_gs_nind",
    "make_gs_opt",
    "make_nosit",
    "__version__",
]
