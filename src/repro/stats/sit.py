"""SIT: a statistic (histogram) built on a query expression.

``SIT_R(a | p1, ..., pk)`` is a histogram over attribute ``a`` built on the
result of ``sigma_{p1 and ... and pk}(R^x)`` (Section 3.3 notation).  An
empty expression is an ordinary base-table histogram.

Each SIT also stores its ``diff`` value (Section 3.5): the variation
distance between the base-table distribution of ``a`` and the distribution
of ``a`` over the expression result.  ``diff`` is computed once at build
time and drives the ``Diff`` error function at estimation time with no
run-time overhead, exactly as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.predicates import Attribute, PredicateSet, tables_of
from repro.histograms.base import Histogram


@dataclass(frozen=True)
class SIT:
    """A statistic on a query expression."""

    attribute: Attribute
    expression: PredicateSet
    histogram: Histogram
    diff: float = 0.0

    #: tables of the generating expression plus the attribute's own table
    tables: frozenset[str] = field(default=frozenset())

    def __post_init__(self) -> None:
        expression = frozenset(self.expression)
        object.__setattr__(self, "expression", expression)
        tables = tables_of(expression) | {self.attribute.table}
        object.__setattr__(self, "tables", tables)
        if not 0.0 <= self.diff <= 1.0 + 1e-9:
            raise ValueError(f"diff must be in [0, 1], got {self.diff}")

    @property
    def is_base(self) -> bool:
        """True for an ordinary base-table histogram."""
        return not self.expression

    @property
    def join_count(self) -> int:
        return sum(1 for p in self.expression if p.is_join)

    @property
    def space_bytes(self) -> float:
        """Histogram footprint (the bucket arrays) — what a space budget
        counts."""
        return float(sum(a.nbytes for a in self.histogram.bucket_arrays()))

    def __str__(self) -> str:
        # str(sit) is a deterministic tie-breaker inside candidate ranking,
        # so it runs in the matching hot path; cache it on first use.
        cached = self.__dict__.get("_str")
        if cached is None:
            if self.is_base:
                cached = f"SIT({self.attribute})"
            else:
                expr = ", ".join(sorted(str(p) for p in self.expression))
                cached = f"SIT({self.attribute} | {expr})"
            object.__setattr__(self, "_str", cached)
        return cached
