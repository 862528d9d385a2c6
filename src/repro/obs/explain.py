"""``EXPLAIN ESTIMATE``: structured explanations of ``getSelectivity``.

When ``nInd`` and ``Diff`` disagree (the heart of the paper's Section 5
experiments) the numbers alone do not say *why*.  :func:`build_explain`
re-walks the winning decomposition of an estimate and captures, per
conditional factor ``Sel(P|Q)``:

* the SIT matched to each attribute (or the base-histogram *independence
  fallback*), with the conditioning it actually covers and the predicates
  it assumes independence from;
* the factor's error contribution under the estimator's error function
  (an ``nInd`` assumption count or a ``diff_H`` weight);
* the factor's estimated selectivity.

The result renders as a text tree (:meth:`ExplainResult.render_text`) and
as JSON (:meth:`ExplainResult.to_json`); ``python -m repro explain``
exposes both.  ``explain`` is a pure *view*: it reuses the DP's memo and
caches, so ``explain(q).selectivity == estimate(q).selectivity`` exactly,
for both engines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.matching import FactorMatch, estimate_factor
from repro.core.selectivity import Factor
from repro.obs.snapshot import StatsSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.expressions import Query
    from repro.estimators.base import Estimator


def _sorted_strs(predicates) -> tuple[str, ...]:
    return tuple(sorted(str(p) for p in predicates))


def _fmt(value: float) -> str:
    """Stable float rendering for the text tree (golden-file friendly)."""
    return f"{value:.6g}"


@dataclass(frozen=True)
class AttributeExplanation:
    """How one attribute of a factor's ``P`` was approximated."""

    attribute: str
    weight: float
    sit: str
    is_base: bool
    diff: float
    conditioning: tuple[str, ...]
    covered: tuple[str, ...]
    assumed: tuple[str, ...]

    @property
    def independence_fallback(self) -> bool:
        """True when a base histogram stands in for a conditioned factor."""
        return self.is_base and bool(self.conditioning)

    def to_dict(self) -> dict:
        return {
            "attribute": self.attribute,
            "weight": self.weight,
            "sit": self.sit,
            "is_base": self.is_base,
            "independence_fallback": self.independence_fallback,
            "diff": self.diff,
            "conditioning": list(self.conditioning),
            "covered": list(self.covered),
            "assumed": list(self.assumed),
        }


@dataclass(frozen=True)
class FactorExplanation:
    """One factor ``Sel(P|Q)`` of the winning decomposition."""

    factor: str
    p: tuple[str, ...]
    q: tuple[str, ...]
    selectivity: float
    error_contribution: float
    attributes: tuple[AttributeExplanation, ...]

    @property
    def conditioned(self) -> bool:
        return bool(self.q)

    def to_dict(self) -> dict:
        return {
            "factor": self.factor,
            "p": list(self.p),
            "q": list(self.q),
            "selectivity": self.selectivity,
            "error_contribution": self.error_contribution,
            "attributes": [a.to_dict() for a in self.attributes],
        }


@dataclass(frozen=True)
class ExplainResult:
    """The full ``EXPLAIN ESTIMATE`` payload for one query."""

    estimator: str
    error_function: str
    engine: str
    query: str
    tables: tuple[str, ...]
    selectivity: float
    error: float
    cardinality: float
    factors: tuple[FactorExplanation, ...]
    #: graceful-degradation ladder level that produced the estimate
    #: (0 = normal; see :mod:`repro.resilience`)
    degradation_level: int = 0
    #: True when the underlying estimate was replayed from a compiled
    #: template plan (:mod:`repro.core.plancache`); replay is
    #: bit-identical, so the explanation itself is unaffected
    plan_cache_hit: bool = False
    #: estimator backend that produced the estimate (``"sit"``, ``"bn"``,
    #: ``"sample"``; see :mod:`repro.estimators`)
    backend: str = "sit"
    #: the sampling backend's distribution-free additive guarantee
    #: (``None`` for backends without one)
    error_bound: float | None = None
    stats: StatsSnapshot = field(default_factory=StatsSnapshot)

    # ------------------------------------------------------------------
    def to_dict(self, include_stats: bool = True) -> dict:
        out = {
            "estimator": self.estimator,
            "error_function": self.error_function,
            "engine": self.engine,
            "query": self.query,
            "tables": list(self.tables),
            "selectivity": self.selectivity,
            "error": self.error,
            "cardinality": self.cardinality,
            "degradation_level": self.degradation_level,
            "plan_cache_hit": self.plan_cache_hit,
            "factors": [f.to_dict() for f in self.factors],
        }
        # emitted conditionally so default-backend payloads (and their
        # golden files) keep the exact pre-plurality key set
        if self.backend != "sit":
            out["backend"] = self.backend
        if self.error_bound is not None:
            out["error_bound"] = self.error_bound
        if include_stats:
            out["stats"] = self.stats.to_dict()
        return out

    def to_json(self, indent: int | None = 2, include_stats: bool = True) -> str:
        return json.dumps(
            self.to_dict(include_stats=include_stats), indent=indent, sort_keys=True
        )

    # ------------------------------------------------------------------
    def render_text(self) -> str:
        """Human-readable tree, deterministic for golden-file testing."""
        lines = [
            f"EXPLAIN ESTIMATE  {self.estimator}  "
            f"(engine={self.engine}, error={self.error_function})",
            f"query:       {self.query}",
            f"tables:      {', '.join(self.tables)}",
            f"selectivity: {_fmt(self.selectivity)}",
            f"cardinality: {_fmt(self.cardinality)}",
            f"error({self.error_function}): {_fmt(self.error)}",
        ]
        if self.degradation_level:
            from repro.resilience import LEVEL_NAMES

            name = LEVEL_NAMES.get(self.degradation_level, "?")
            lines.append(
                f"degraded:    level {self.degradation_level} ({name})"
            )
        if self.backend != "sit":
            line = f"backend:     {self.backend}"
            if self.error_bound is not None:
                line += f"  (guaranteed |est-true| <= {_fmt(self.error_bound)})"
            lines.append(line)
        if self.plan_cache_hit:
            lines.append("plan cache:  hit (replayed compiled plan)")
        lines.append(
            f"decomposition ({len(self.factors)} "
            f"factor{'s' if len(self.factors) != 1 else ''}):"
        )
        for index, factor in enumerate(self.factors):
            last = index == len(self.factors) - 1
            head = "└─" if last else "├─"
            stem = "  " if last else "│ "
            lines.append(
                f"{head} [{index + 1}] {factor.factor}  "
                f"sel={_fmt(factor.selectivity)}  "
                f"error={_fmt(factor.error_contribution)}"
            )
            for attribute in factor.attributes:
                if attribute.independence_fallback:
                    note = "base histogram: independence fallback"
                elif attribute.is_base:
                    note = "base histogram"
                else:
                    note = f"conditioned, diff={_fmt(attribute.diff)}"
                lines.append(
                    f"{stem}    {attribute.attribute} <- {attribute.sit}  [{note}]"
                )
                if attribute.assumed:
                    lines.append(
                        f"{stem}      assumed independent of: "
                        f"{', '.join(attribute.assumed)}"
                    )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render_text()


# ----------------------------------------------------------------------
def _explain_factor(
    factor: Factor, match: FactorMatch, error_function
) -> FactorExplanation:
    attributes = tuple(
        AttributeExplanation(
            attribute=str(am.attribute),
            weight=am.weight,
            sit=str(am.sit),
            is_base=am.sit.is_base,
            diff=am.sit.diff,
            conditioning=_sorted_strs(am.conditioning),
            covered=_sorted_strs(am.sit.expression),
            assumed=_sorted_strs(am.assumed),
        )
        for am in sorted(match.attribute_matches, key=lambda am: str(am.attribute))
    )
    return FactorExplanation(
        factor=str(factor),
        p=_sorted_strs(factor.p),
        q=_sorted_strs(factor.q),
        selectivity=estimate_factor(match),
        error_contribution=error_function.factor_error(match),
        attributes=attributes,
    )


def build_explain(estimator: "Estimator", query: "Query") -> ExplainResult:
    """Explain ``estimator``'s estimate of ``query``.

    For the SIT backend this runs (or re-uses, thanks to the memo) the
    full ``getSelectivity`` DP, then decorates the winning decomposition
    factor by factor — conditional factors first, ending at the
    unconditioned anchors, the order the chain rule multiplies them in.
    Peer backends (:mod:`repro.estimators`) have no decomposition; their
    explanation carries the header fields plus the ``backend`` tag (and
    the sampling backend's ``error_bound``).
    """
    result = estimator.estimate(query)
    error_function = estimator.error_function
    factors = tuple(
        _explain_factor(factor, match, error_function)
        for factor, match in zip(result.decomposition.factors, result.matches)
    )
    return ExplainResult(
        estimator=estimator.name,
        error_function=(
            error_function.name if error_function is not None else "none"
        ),
        engine=estimator.engine,
        query=str(query),
        tables=tuple(sorted(query.tables)),
        selectivity=result.selectivity,
        error=result.error,
        cardinality=result.selectivity
        * estimator.database.cross_product_size(query.tables),
        factors=factors,
        degradation_level=result.degradation_level,
        plan_cache_hit=result.plan_cache_hit,
        backend=result.backend,
        error_bound=result.error_bound,
        stats=estimator.stats_snapshot(),
    )
