"""Pluggable cardinality-estimation backends behind one protocol.

The package defines the :class:`~repro.estimators.base.Estimator`
contract and three peer implementations:

* ``"sit"`` — :class:`~repro.estimators.sit.SITEstimator`, the paper's
  SIT/DP ``getSelectivity`` path (the default and the reference);
* ``"bn"`` — :class:`~repro.estimators.bn.BayesianNetworkEstimator`,
  per-table Chow-Liu dependency trees (arXiv:1907.06295);
* ``"sample"`` —
  :class:`~repro.estimators.sampling.GuaranteedSampleEstimator`,
  uniform per-table reservoirs with a VC-dimension-derived additive
  error bound (arXiv:1101.5805) surfaced as
  ``EstimationResult.error_bound``.

:func:`create_estimator` is the selector every layer above dispatches
through — ``connect(backend=...)``, ``ServiceConfig.backend`` and the
CLI all route here.
"""

from __future__ import annotations

from repro.estimators.base import Estimator, Statistics, resolve_statistics
from repro.estimators.bn import BayesianNetworkEstimator
from repro.estimators.sampling import GuaranteedSampleEstimator
from repro.estimators.sit import (
    SITEstimator,
    make_gs_diff,
    make_gs_nind,
    make_gs_opt,
    make_nosit,
)

#: the selectable backend identifiers, in preference order
BACKENDS = ("sit", "bn", "sample")

#: constructor kwargs owned by the SIT backend (stripped for peers)
_SIT_ONLY = frozenset(
    {
        "error_function",
        "strict",
        "plan_cache",
        "sit_driven_pruning",
        "fallback_estimator",
    }
)


def create_estimator(
    backend: str,
    database,
    statistics=None,
    **kwargs,
) -> Estimator:
    """Build the estimator for ``backend`` (``"sit"``, ``"bn"``, ``"sample"``).

    For the SIT backend a :class:`GuaranteedSampleEstimator` over the
    same database is wired in as the degradation ladder's level-3
    fallback (pass ``fallback_estimator=None`` explicitly to keep the
    classical magic constants).  SIT-specific kwargs (``strict``,
    ``plan_cache``, ``sit_driven_pruning``, ``error_function``,
    ``fallback_estimator``) are rejected for the
    peer backends, which accept their own tuning knobs
    (``sample_size``/``delta`` for sampling, ``max_bins``/``build_rows``
    for the BN) plus the shared ``name``/``seed``.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown estimator backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "sit":
        if "fallback_estimator" not in kwargs and database is not None:
            kwargs["fallback_estimator"] = GuaranteedSampleEstimator(database)
        error_function = kwargs.pop("error_function", None)
        return SITEstimator(database, statistics, error_function, **kwargs)
    foreign = _SIT_ONLY.intersection(kwargs)
    if foreign:
        raise TypeError(
            f"backend {backend!r} does not accept {sorted(foreign)} "
            "(SIT-only options)"
        )
    if backend == "bn":
        return BayesianNetworkEstimator(database, statistics, **kwargs)
    return GuaranteedSampleEstimator(database, statistics, **kwargs)


__all__ = [
    "BACKENDS",
    "BayesianNetworkEstimator",
    "Estimator",
    "GuaranteedSampleEstimator",
    "SITEstimator",
    "Statistics",
    "create_estimator",
    "make_gs_diff",
    "make_gs_nind",
    "make_gs_opt",
    "make_nosit",
    "resolve_statistics",
]
