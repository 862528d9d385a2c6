"""Name resolution: SQL AST -> canonical predicates against a schema.

The binder resolves table/column references, normalizes comparison
operators into the library's closed-interval :class:`FilterPredicate`
form, merges satisfiable same-attribute ranges (so estimation does not
double-count one attribute), and rejects what the canonical SPJ form
cannot express (self-joins, non-equi joins).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.predicates import (
    Attribute,
    FilterPredicate,
    JoinPredicate,
    Predicate,
)
from repro.engine.expressions import Query
from repro.engine.schema import Schema
from repro.sql.parser import (
    BetweenPredicate,
    ColumnRef,
    Comparison,
    JoinComparison,
    SelectStatement,
    parse_select,
)


class BindingError(ValueError):
    """Raised when names do not resolve against the schema."""


@dataclass(frozen=True)
class BoundQuery:
    """A resolved query: canonical predicates plus the projection."""

    query: Query
    projection: tuple[Attribute, ...] | None  # None means SELECT *
    #: what binding resolved, for the next statement of the same shape
    template: "BoundTemplate" = field(compare=False, repr=False)


class _Scope:
    """Binding-name -> table-name resolution for one FROM clause."""

    def __init__(self, statement: SelectStatement, schema: Schema):
        self.schema = schema
        self.tables: dict[str, str] = {}
        for ref in statement.tables:
            if ref.name not in schema.tables:
                raise BindingError(f"unknown table {ref.name!r}")
            binding = ref.binding
            if binding in self.tables:
                raise BindingError(f"duplicate table binding {binding!r}")
            self.tables[binding] = ref.name
        names = list(self.tables.values())
        if len(set(names)) != len(names):
            raise BindingError(
                "self-joins (the same table twice) are not supported by the "
                "canonical SPJ form"
            )

    def resolve(self, column: ColumnRef) -> Attribute:
        if column.table is not None:
            table = self.tables.get(column.table)
            if table is None:
                raise BindingError(f"unknown table or alias {column.table!r}")
            if column.column not in self.schema.table(table).columns:
                raise BindingError(f"table {table!r} has no column {column.column!r}")
            return Attribute(table, column.column)
        owners = [
            table
            for table in self.tables.values()
            if column.column in self.schema.table(table).columns
        ]
        if not owners:
            raise BindingError(f"unknown column {column.column!r}")
        if len(owners) > 1:
            raise BindingError(
                f"ambiguous column {column.column!r} "
                f"(in tables {', '.join(sorted(owners))})"
            )
        return Attribute(owners[0], column.column)


def _range_of(operator: str, value: float) -> tuple[float, float]:
    if operator == "=":
        return value, value
    if operator == "<=":
        return -math.inf, value
    if operator == ">=":
        return value, math.inf
    if operator == "<":
        return -math.inf, math.nextafter(value, -math.inf)
    if operator == ">":
        return math.nextafter(value, math.inf), math.inf
    raise AssertionError(f"unexpected operator {operator!r}")


#: the operator of a BETWEEN slot: it reads two literals, the others one
BETWEEN = "between"


class _Assembly:
    """The value-dependent half of binding: filter ranges accumulated per
    attribute, so ``a > 5 AND a < 10`` becomes one predicate; a genuinely
    empty intersection stays two predicates (the query is unsatisfiable,
    and the executor evaluates that exactly).  :func:`bind` feeds it a
    predicate at a time as names resolve; a :class:`BoundTemplate` feeds
    it the names resolved once and a statement's literals."""

    __slots__ = ("ranges", "unsatisfiable")

    def __init__(self) -> None:
        self.ranges: dict[Attribute, tuple[float, float]] = {}
        self.unsatisfiable: list[Predicate] = []

    def add(self, attribute: Attribute, low: float, high: float) -> None:
        if low > high:
            raise BindingError(
                f"empty range for {attribute}: [{low:g}, {high:g}]"
            )
        ranges = self.ranges
        if attribute in ranges:
            old_low, old_high = ranges[attribute]
            merged_low, merged_high = max(old_low, low), min(old_high, high)
            if merged_low > merged_high:
                self.unsatisfiable.append(FilterPredicate(attribute, low, high))
                return
            ranges[attribute] = (merged_low, merged_high)
        else:
            ranges[attribute] = (low, high)

    def predicates(self, joins: frozenset[JoinPredicate]) -> frozenset:
        predicates: set[Predicate] = set(joins)
        predicates.update(self.unsatisfiable)
        for attribute, (low, high) in self.ranges.items():
            predicates.add(FilterPredicate(attribute, low, high))
        return frozenset(predicates)


@dataclass(frozen=True)
class BoundTemplate:
    """Everything :func:`bind` resolved that does not depend on a literal:
    per filter predicate, in source order, its attribute and operator
    (``slots``), the join set and the FROM tables.  :meth:`predicates` is
    the rest of :func:`bind` for another statement of the same shape."""

    slots: tuple[tuple[Attribute, str], ...]
    joins: frozenset[JoinPredicate]
    #: the FROM tables, which cover every predicate's: with
    #: :meth:`predicates`, the statement's ``Query`` unbuilt
    tables: frozenset[str]
    #: literals a statement of this shape carries (two per BETWEEN)
    literals: int

    def predicates(self, literals: Sequence[float]) -> frozenset:
        """The predicate set of this shape with ``literals`` (source
        order, ``len == self.literals``); raises what :func:`bind` raises
        for them."""
        assembly = _Assembly()
        at = 0
        for attribute, operator in self.slots:
            if operator == BETWEEN:
                assembly.add(attribute, literals[at], literals[at + 1])
                at += 2
            else:
                assembly.add(attribute, *_range_of(operator, literals[at]))
                at += 1
        return assembly.predicates(self.joins)


def bind(statement: SelectStatement, schema: Schema) -> BoundQuery:
    """Resolve ``statement`` against ``schema``.

    Names resolve and ranges assemble a predicate at a time, so of two
    faults the one earlier in the WHERE clause is the one reported."""
    scope = _Scope(statement, schema)
    assembly = _Assembly()
    slots: list[tuple[Attribute, str]] = []
    joins: set[JoinPredicate] = set()

    for predicate in statement.predicates:
        if isinstance(predicate, Comparison):
            attribute = scope.resolve(predicate.column)
            slots.append((attribute, predicate.operator))
            assembly.add(
                attribute, *_range_of(predicate.operator, predicate.value)
            )
        elif isinstance(predicate, BetweenPredicate):
            attribute = scope.resolve(predicate.column)
            slots.append((attribute, BETWEEN))
            assembly.add(attribute, predicate.low, predicate.high)
        elif isinstance(predicate, JoinComparison):
            left = scope.resolve(predicate.left)
            right = scope.resolve(predicate.right)
            if left.table == right.table:
                raise BindingError(
                    f"self-join predicate {left} = {right} is not supported"
                )
            joins.add(JoinPredicate(left, right))
        else:  # pragma: no cover - parser produces only the three kinds
            raise AssertionError(f"unexpected predicate AST {predicate!r}")

    template = BoundTemplate(
        tuple(slots),
        frozenset(joins),
        frozenset(scope.tables.values()),
        sum(2 if operator == BETWEEN else 1 for _, operator in slots),
    )
    projection: tuple[Attribute, ...] | None = None
    if statement.projection is not None:
        projection = tuple(scope.resolve(column) for column in statement.projection)
    return BoundQuery(
        Query(assembly.predicates(template.joins), tables=template.tables),
        projection,
        template,
    )


def parse_query(sql: str, schema: Schema) -> Query:
    """One-call convenience: SQL text -> canonical :class:`Query`."""
    return bind(parse_select(sql), schema).query
