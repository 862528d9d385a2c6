"""Predicate algebra for canonical SPJ queries.

The paper represents an SPJ query in canonical form as a set of predicates
applied to the cartesian product of the referenced tables (Section 2).  This
module provides the two predicate kinds that canonical form needs:

* :class:`FilterPredicate` -- a (closed) range restriction ``lo <= T.c <= hi``
  on a single attribute.  Point predicates use ``lo == hi``.
* :class:`JoinPredicate` -- an equi-join ``T1.c1 = T2.c2`` between two
  attributes of different tables.

Both are immutable and hashable, so predicate *sets* are plain ``frozenset``
objects everywhere in the code base: memoization tables, SIT expressions and
separability checks all key on them.

The module also provides the graph-structural helpers the framework relies
on: the tables/attributes referenced by a predicate set, the partition of a
predicate set into *connected components* (predicates linked through shared
tables), and therefore the separability test of Definition 2.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from operator import attrgetter
from typing import Iterable, Union


def _ordering(compare):
    """An order comparison of :class:`Attribute`: the pairs' own (C)
    comparison between attributes; against a plain tuple, which the tuple
    base would order by its items, a ``TypeError`` as ever."""

    def method(self, other):
        if other.__class__ is Attribute:
            return compare(self, other)
        if isinstance(other, tuple):
            raise TypeError(f"an Attribute orders only among Attributes, not {other!r}")
        return NotImplemented

    return method


class Attribute(tuple):
    """A fully qualified column reference ``table.column``.

    The pair ``(table, column)`` *is* the object, so hashing an attribute —
    and a shape token or predicate hash that holds one — is the tuple's C
    hash, ``hash((table, column))`` as before, with no Python call: a
    served hit's dict probes hash several.  Equality and order stay the
    former frozen dataclass's: attributes compare as their pairs, and an
    attribute neither equals nor orders against a plain tuple.
    """

    table: str
    column: str

    def __new__(cls, table: str, column: str) -> "Attribute":
        self = tuple.__new__(cls, (table, column))
        # the fields are read as often as ever: plain instance attributes
        self.__dict__.update(table=table, column=column)
        return self

    __hash__ = tuple.__hash__  # the C slot itself, not a Python method
    __lt__ = _ordering(tuple.__lt__)
    __le__ = _ordering(tuple.__le__)
    __gt__ = _ordering(tuple.__gt__)
    __ge__ = _ordering(tuple.__ge__)

    def __eq__(self, other):
        if other.__class__ is Attribute:
            return self[0] == other[0] and self[1] == other[1]
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is Attribute:
            return self[0] != other[0] or self[1] != other[1]
        return True if isinstance(other, tuple) else NotImplemented

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Attribute(table={self[0]!r}, column={self[1]!r})"

    def __str__(self) -> str:
        return f"{self[0]}.{self[1]}"

    def __reduce__(self):
        # copies and pickles are rebuilt from the two fields: the filter
        # pieces hold the attribute itself
        return Attribute, (self[0], self[1])

    def _filter_pieces(self) -> tuple:
        """What every filter on this attribute shares — its table set,
        attribute set, shape token and text — built on the first filter
        and kept, so a filter's construction only formats its bounds."""
        table, column = self
        pieces = (
            frozenset((table,)),
            frozenset((self,)),
            ("F", self),
            f"{table}.{column}",
        )
        object.__setattr__(self, "_pieces", pieces)
        return pieces


def filter_text(name: str, low: float, high: float) -> str:
    """The ``str`` of a filter on ``name``, which canonical sorts order by."""
    if low == high:
        return "%s=%g" % (name, low)
    return "%g<=%s<=%g" % (low, name, high)


@dataclass(frozen=True, order=True, init=False)
class FilterPredicate:
    """Range restriction ``low <= attribute <= high`` (closed interval).

    ``low`` may be ``-inf`` and ``high`` may be ``+inf`` for one-sided
    ranges.  Equality predicates are expressed with ``low == high``.
    NULL values (NaN in the engine) never satisfy a filter.
    """

    attribute: Attribute
    low: float
    high: float

    def __init__(self, attribute: Attribute, low: float, high: float) -> None:
        # Written out rather than generated: a served SQL statement builds
        # its filters on every request, and one ``__dict__`` update costs
        # less than the generated init plus a ``__post_init__`` of
        # ``object.__setattr__`` calls.  The instance is the same either
        # way (tests/properties/test_property_filter_init.py).
        if low > high:
            raise ValueError(f"empty range for {attribute}: [{low}, {high}]")
        try:
            tables, attributes, token, name = attribute._pieces
        except AttributeError:
            tables, attributes, token, name = attribute._filter_pieces()
        # The canonical sort key and the plan cache's shape token are read
        # on every request; built here, a hot answer never formats a float.
        text = filter_text(name, low, high)
        self.__dict__.update(
            attribute=attribute,
            low=low,
            high=high,
            # Predicates live in frozensets throughout the library; caching
            # the hash is a measurable win in the getSelectivity inner loop.
            _hash=hash((attribute, low, high)),
            _tables=tables,
            _attributes=attributes,
            _str=text,
            _token=token,
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def tables(self) -> frozenset[str]:
        return self._tables

    @property
    def attributes(self) -> frozenset[Attribute]:
        return self._attributes

    @property
    def is_join(self) -> bool:
        return False

    def __str__(self) -> str:
        return self._str


@dataclass(frozen=True, order=True)
class JoinPredicate:
    """Equi-join predicate ``left = right`` between attributes of two tables.

    The constructor canonicalizes operand order so ``R.x = S.y`` and
    ``S.y = R.x`` compare and hash equal.
    """

    left: Attribute
    right: Attribute

    def __post_init__(self) -> None:
        if self.left.table == self.right.table:
            raise ValueError("self-joins over a single table alias are not supported")
        if self.right < self.left:
            # Swap into canonical (sorted) order; object is frozen so go
            # through object.__setattr__ as dataclasses do internally.
            left, right = self.right, self.left
            object.__setattr__(self, "left", left)
            object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash((self.left, self.right)))
        object.__setattr__(
            self, "_tables", frozenset((self.left.table, self.right.table))
        )
        object.__setattr__(self, "_attributes", frozenset((self.left, self.right)))
        object.__setattr__(self, "_str", f"{self.left}={self.right}")
        object.__setattr__(self, "_token", ("J", self.left, self.right))

    def __hash__(self) -> int:
        return self._hash

    @property
    def tables(self) -> frozenset[str]:
        return self._tables

    @property
    def attributes(self) -> frozenset[Attribute]:
        return self._attributes

    @property
    def is_join(self) -> bool:
        return True

    def other_side(self, attribute: Attribute) -> Attribute:
        """Return the join operand opposite to ``attribute``."""
        if attribute == self.left:
            return self.right
        if attribute == self.right:
            return self.left
        raise ValueError(f"{attribute} is not an operand of {self}")

    def __str__(self) -> str:
        return self._str


Predicate = Union[FilterPredicate, JoinPredicate]

#: The canonical representation of a set of predicates.
PredicateSet = frozenset

#: ``sorted(predicates, key=by_str)`` orders as ``key=str`` does, reading
#: the text each predicate built at construction instead of calling
#: ``__str__`` once per predicate.
by_str = attrgetter("_str")


def predicate_set(predicates: Iterable[Predicate]) -> PredicateSet:
    """Build the canonical ``frozenset`` representation of ``predicates``."""
    return frozenset(predicates)


def tables_of(predicates: Iterable[Predicate]) -> frozenset[str]:
    """``tables(P)`` from the paper: every table referenced by ``P``."""
    out: set[str] = set()
    for predicate in predicates:
        out.update(predicate.tables)
    return frozenset(out)


def attributes_of(predicates: Iterable[Predicate]) -> frozenset[Attribute]:
    """``attr(P)`` from the paper: every attribute mentioned in ``P``."""
    out: set[Attribute] = set()
    for predicate in predicates:
        out.update(predicate.attributes)
    return frozenset(out)


def join_predicates(predicates: Iterable[Predicate]) -> PredicateSet:
    """The join predicates contained in ``predicates``."""
    return frozenset(p for p in predicates if p.is_join)


def filter_predicates(predicates: Iterable[Predicate]) -> PredicateSet:
    """The filter predicates contained in ``predicates``."""
    return frozenset(p for p in predicates if not p.is_join)


def connected_components(predicates: Iterable[Predicate]) -> list[PredicateSet]:
    """Partition ``predicates`` into table-connected components.

    Two predicates belong to the same component when they are linked by a
    chain of predicates with pairwise overlapping table sets.  The result is
    deterministic (sorted by the string form of each component's smallest
    predicate) so callers can rely on a stable standard decomposition.
    """
    preds = list(predicates)
    if not preds:
        return []
    # Union-find over tables; each predicate unions its tables together.
    parent: dict[str, str] = {}

    def find(table: str) -> str:
        root = table
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[table] != root:  # path compression
            parent[table], table = root, parent[table]
        return root

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for predicate in preds:
        tables = sorted(predicate.tables)
        for table in tables[1:]:
            union(tables[0], table)

    groups: dict[str, set[Predicate]] = {}
    for predicate in preds:
        root = find(next(iter(predicate.tables)))
        groups.setdefault(root, set()).add(predicate)
    components = [frozenset(group) for group in groups.values()]
    components.sort(key=lambda component: min(map(by_str, component)))
    return components


def is_separable(predicates: Iterable[Predicate]) -> bool:
    """Definition 2 for an unconditioned selectivity: ``Sel_R(P)`` is
    separable when ``P`` splits into two non-empty, table-disjoint parts."""
    return len(connected_components(predicates)) > 1
