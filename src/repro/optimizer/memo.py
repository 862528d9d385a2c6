"""Cascades-style memoization table (Section 4.1).

A :class:`Memo` stores equivalence classes (:class:`Group`) of logically
equivalent sub-plans.  Each group is keyed by the *logical content* of the
sub-plans it contains — the set of tables touched and the set of predicates
applied — and holds a list of :class:`Entry` objects of the form

    [op, {parameters}, {input groups}]

exactly as the paper describes: ``GET`` leaves, ``SELECT`` entries with a
filter-predicate parameter and one input, and ``JOIN`` entries with a
join-predicate parameter and two inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.predicates import (
    FilterPredicate,
    JoinPredicate,
    Predicate,
    PredicateSet,
    tables_of,
)


class Operator(Enum):
    GET = "get"
    SELECT = "select"
    JOIN = "join"


@dataclass(frozen=True)
class GroupKey:
    """Logical identity of an equivalence class."""

    tables: frozenset[str]
    predicates: PredicateSet

    def __str__(self) -> str:
        predicates = ", ".join(sorted(str(p) for p in self.predicates))
        return f"[{'/'.join(sorted(self.tables))} | {predicates}]"


@dataclass(frozen=True)
class Entry:
    """One logical alternative inside a group.

    ``parameter`` is the predicate the operator applies (``None`` for GET,
    whose parameter is the table name instead); ``inputs`` are the keys of
    the input groups.
    """

    operator: Operator
    parameter: Predicate | None
    inputs: tuple[GroupKey, ...]
    table: str | None = None

    def __str__(self) -> str:
        if self.operator is Operator.GET:
            return f"GET({self.table})"
        inputs = ", ".join(str(i) for i in self.inputs)
        return f"{self.operator.name}({self.parameter}; {inputs})"


@dataclass
class Group:
    """An equivalence class of logically equivalent sub-plans."""

    key: GroupKey
    entries: list[Entry] = field(default_factory=list)

    def add(self, entry: Entry) -> bool:
        """Add ``entry`` if new; returns True when the group changed."""
        if entry in self.entries:
            return False
        self.entries.append(entry)
        return True


class Memo:
    """The memoization table: group key -> group."""

    def __init__(self) -> None:
        self.groups: dict[GroupKey, Group] = {}

    def group(self, key: GroupKey) -> Group:
        """The group for ``key``, created on first access."""
        existing = self.groups.get(key)
        if existing is None:
            existing = Group(key)
            self.groups[key] = existing
        return existing

    def __contains__(self, key: GroupKey) -> bool:
        return key in self.groups

    def __len__(self) -> int:
        return len(self.groups)

    def entry_count(self) -> int:
        return sum(len(group.entries) for group in self.groups.values())

    # ------------------------------------------------------------------
    # Initial plan construction
    # ------------------------------------------------------------------
    def add_get(self, table: str) -> GroupKey:
        """Ensure the GET leaf group for ``table``; returns its key."""
        key = GroupKey(frozenset((table,)), frozenset())
        self.group(key).add(Entry(Operator.GET, None, (), table=table))
        return key

    def add_select(self, predicate: FilterPredicate, child: GroupKey) -> GroupKey:
        """Add a SELECT entry above ``child``; returns the new group key."""
        key = GroupKey(child.tables, child.predicates | {predicate})
        self.group(key).add(Entry(Operator.SELECT, predicate, (child,)))
        return key

    def add_join(
        self, predicate: JoinPredicate, left: GroupKey, right: GroupKey
    ) -> GroupKey:
        """Add a JOIN entry over two groups; returns the new group key."""
        key = GroupKey(
            left.tables | right.tables,
            left.predicates | right.predicates | {predicate},
        )
        self.group(key).add(Entry(Operator.JOIN, predicate, (left, right)))
        return key


def initial_plan(memo: Memo, tables: frozenset[str], predicates: PredicateSet) -> GroupKey:
    """Seed ``memo`` with one left-deep plan for the canonical SPJ query.

    Filters are pushed onto their base tables; joins are applied in a
    deterministic connectivity-respecting order.  Exploration rules then
    populate the rest of the search space.
    """
    filters_by_table: dict[str, list[FilterPredicate]] = {}
    joins: list[JoinPredicate] = []
    for predicate in sorted(predicates, key=str):
        if isinstance(predicate, JoinPredicate):
            joins.append(predicate)
        else:
            filters_by_table.setdefault(predicate.attribute.table, []).append(
                predicate
            )

    def base_group(table: str) -> GroupKey:
        key = memo.add_get(table)
        for predicate in filters_by_table.get(table, ()):
            key = memo.add_select(predicate, key)
        return key

    referenced = tables_of(predicates) | tables
    if not joins:
        if len(referenced) != 1:
            raise ValueError(
                "initial_plan supports connected queries only (a join-free "
                "query must reference exactly one table)"
            )
        return base_group(next(iter(referenced)))

    join = joins.pop(0)
    left_table, right_table = sorted(join.tables)
    current = memo.add_join(join, base_group(left_table), base_group(right_table))
    placed = set(join.tables)
    while joins:
        progressed = False
        for index, join in enumerate(joins):
            if not join.tables & placed:
                continue
            incoming = next(iter(join.tables - placed), None)
            if incoming is None:
                # Cyclic join graph: both sides already placed; model the
                # extra join predicate as a selection over the current plan.
                new_key = GroupKey(current.tables, current.predicates | {join})
                memo.group(new_key).add(Entry(Operator.SELECT, join, (current,)))
                current = new_key
            else:
                current = memo.add_join(join, current, base_group(incoming))
                placed.add(incoming)
            joins.pop(index)
            progressed = True
            break
        if not progressed:
            raise ValueError("initial_plan supports connected join graphs only")
    if referenced - current.tables:
        raise ValueError("query references tables unreachable through joins")
    return current
