"""Interned bitmask representation of a query's predicates.

The ``getSelectivity`` DP (Figure 3) spends its time manipulating *sets of
predicates*: memo lookups, submask enumeration, separability tests,
Section 3.4 pruning and the scorer's table keys.  The seed implementation
used Python ``frozenset`` objects for all of these, which makes every DP
node pay hashing, allocation and string-sorting costs that dwarf the
actual algorithm.  :class:`PredicateUniverse` interns the predicates of a
query into consecutive bit indices so the whole hot path runs on plain
``int`` masks:

* ``intern`` maps a predicate set to a mask (growing the universe on first
  sight of a predicate; existing masks stay valid forever);
* ``set_of`` converts a mask back to the canonical ``frozenset`` — only
  needed at the public API boundary and for the factor that wins a node;
* ``components`` computes table-connected components with a bitwise BFS
  over a precomputed bit-adjacency table (replacing per-call union-find);
* ``prune_masks`` precomputes, per predicate, the SIT-expression masks
  that Section 3.4's pruning tests with a single ``expr & ~q == 0``;
* ``attributes`` / ``components_by_table`` are the per-bit and per-``Q``
  facts Section 3.3's matching needs, so a factor can be
  scored without leaving masks (:class:`repro.core.matching.FactorScorer`);
* ``tie_break`` linearizes the legacy deterministic enumeration order
  (subset size, then lexicographic over ``str``-sorted predicates) so the
  DP can break exact ties identically to the reference implementation no
  matter in which order submasks are visited.

Predicates are interned in ``str``-sorted batches and the global ``str``
rank of every bit is re-derived on growth, so the tie-break order is the
*global* string order of the predicates — exactly the order the legacy
implementation sorts by at every DP node.  This is the "sort once per
query, not once per DP node" hoist.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.predicates import Attribute, Predicate, PredicateSet, by_str
from repro.stats.pool import SITPool


def iter_submasks(mask: int) -> Iterator[int]:
    """All non-empty submasks of ``mask``, largest (``mask`` itself) first.

    The classic ``sub = (sub - 1) & mask`` enumeration: visits each of the
    ``2^popcount(mask) - 1`` non-empty submasks exactly once, in
    decreasing numeric order, with O(1) work per step.
    """
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PredicateUniverse:
    """Bidirectional predicate <-> bit-index interning for one query.

    A universe is tied to one :class:`SITPool` (which may be ``None`` for
    pool-independent uses, e.g. tests); it persists across the DP's
    ``reset()`` because the scorer's and the winners' keys reference its
    bit layout,
    and is replaced — with everything keyed by its masks — once it has
    outgrown ``get_selectivity.UNIVERSE_LIMIT``.
    """

    __slots__ = (
        "pool",
        "_predicates",
        "_bit_of",
        "_attributes",
        "_table_masks",
        "_adjacency",
        "_str_rank",
        "_rev_bit",
        "_set_cache",
        "_components_cache",
        "_prune_masks",
        "_prune_pool_version",
    )

    def __init__(self, pool: SITPool | None = None):
        self.pool = pool
        self._predicates: list[Predicate] = []
        self._bit_of: dict[Predicate, int] = {}
        #: per-bit attributes: ``(left, right)`` of a join, ``(attribute,)``
        #: of a filter
        self._attributes: list[tuple[Attribute, ...]] = []
        self._table_masks: dict[str, int] = {}
        #: per-bit mask of predicates sharing a table (includes the bit)
        self._adjacency: list[int] = []
        #: per-bit global rank under str ordering
        self._str_rank: list[int] = []
        #: per-bit value for the reversed-significance tie-break encoding
        self._rev_bit: list[int] = []
        self._set_cache: dict[int, PredicateSet] = {}
        self._components_cache: dict[int, list[int]] = {}
        self._prune_masks: list[tuple[int, ...]] | None = None
        self._prune_pool_version = -1

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._predicates)

    def predicate(self, bit: int) -> Predicate:
        return self._predicates[bit]

    def bit(self, predicate: Predicate) -> int:
        return self._bit_of[predicate]

    def attributes(self, bit: int) -> tuple[Attribute, ...]:
        """``(left, right)`` of the join at ``bit``, ``(attribute,)`` of a
        filter."""
        return self._attributes[bit]

    def __contains__(self, predicate: Predicate) -> bool:
        return predicate in self._bit_of

    # ------------------------------------------------------------------
    def intern(self, predicates: Iterable[Predicate]) -> int:
        """The mask of ``predicates``, extending the universe as needed.

        New predicates are appended in ``str``-sorted order (within the
        batch), which makes bit order == global str order for the common
        case of a whole query interned in one call.
        """
        mask = 0
        missing: list[Predicate] = []
        bit_of = self._bit_of
        for predicate in predicates:
            bit = bit_of.get(predicate)
            if bit is None:
                missing.append(predicate)
            else:
                mask |= 1 << bit
        if missing:
            for predicate in sorted(set(missing), key=by_str):
                bit = len(self._predicates)
                bit_of[predicate] = bit
                self._predicates.append(predicate)
                self._attributes.append(
                    (predicate.left, predicate.right)
                    if predicate.is_join
                    else (predicate.attribute,)
                )
                mask |= 1 << bit
            self._rebuild()
        return mask

    def mask_of(self, predicates: Iterable[Predicate]) -> int:
        """Alias of :meth:`intern` (interning is idempotent)."""
        return self.intern(predicates)

    def set_of(self, mask: int) -> PredicateSet:
        """The canonical ``frozenset`` of a mask (cached per mask)."""
        cached = self._set_cache.get(mask)
        if cached is None:
            predicates = self._predicates
            cached = frozenset(predicates[b] for b in iter_bits(mask))
            self._set_cache[mask] = cached
        return cached

    def sorted_bits(self, mask: int) -> list[int]:
        """Set bits of ``mask`` in global ``str`` order of their predicates."""
        rank = self._str_rank
        return sorted(iter_bits(mask), key=rank.__getitem__)

    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Recompute derived tables after growth (rare; O(n * tables))."""
        predicates = self._predicates
        n = len(predicates)
        table_masks: dict[str, int] = {}
        for bit, predicate in enumerate(predicates):
            for table in predicate.tables:
                table_masks[table] = table_masks.get(table, 0) | (1 << bit)
        self._table_masks = table_masks
        self._adjacency = [
            self._adjacency_of(predicate) for predicate in predicates
        ]
        order = sorted(range(n), key=lambda i: str(predicates[i]))
        str_rank = [0] * n
        for rank, bit in enumerate(order):
            str_rank[bit] = rank
        self._str_rank = str_rank
        self._rev_bit = [1 << (n - 1 - str_rank[i]) for i in range(n)]
        self._prune_masks = None  # bit layout unchanged, but new bits exist
        # Component results restricted to a mask are unaffected by growth
        # (the BFS intersects adjacency with the mask), but clearing keeps
        # the invariant trivially auditable; growth is rare.
        self._components_cache.clear()

    def _adjacency_of(self, predicate: Predicate) -> int:
        mask = 0
        table_masks = self._table_masks
        for table in predicate.tables:
            mask |= table_masks[table]
        return mask

    # ------------------------------------------------------------------
    def components(self, mask: int) -> list[int]:
        """Table-connected components of ``mask`` as sub-masks.

        Bitwise BFS over the precomputed adjacency table; equivalent to
        :func:`repro.core.predicates.connected_components` (two predicates
        are connected when a chain of predicates with pairwise overlapping
        table sets links them).  Components are returned sorted by the
        global str rank of their smallest predicate — the same determinism
        contract as the frozenset implementation.
        """
        cached = self._components_cache.get(mask)
        if cached is not None:
            return cached
        adjacency = self._adjacency
        out: list[int] = []
        remaining = mask
        while remaining:
            component = remaining & -remaining
            frontier = component
            while frontier:
                grown = 0
                scan = frontier
                while scan:
                    low = scan & -scan
                    grown |= adjacency[low.bit_length() - 1]
                    scan ^= low
                frontier = grown & mask & ~component
                component |= frontier
            out.append(component)
            remaining &= ~component
        if len(out) > 1:
            rank = self._str_rank
            out.sort(key=lambda m: min(rank[b] for b in iter_bits(m)))
        self._components_cache[mask] = out
        return out

    def components_by_table(self, mask: int) -> dict[str, int]:
        """Every table ``mask`` touches -> the component of ``mask`` that
        touches it (predicates sharing a table are adjacent, so there is
        exactly one).  This is step 2 of Section 3.3 for ``Q = mask``: an
        attribute is conditioned on its table's component, and on nothing
        when its table is absent."""
        components = self.components(mask)
        out: dict[str, int] = {}
        for table, table_mask in self._table_masks.items():
            if table_mask & mask:
                for component in components:
                    if component & table_mask:
                        out[table] = component
                        break
        return out

    def is_connected(self, mask: int) -> bool:
        """True when ``mask`` forms a single table-connected component."""
        return len(self.components(mask)) <= 1

    # ------------------------------------------------------------------
    def tie_break(self, mask: int) -> tuple[int, int]:
        """Sort key replicating the legacy subset enumeration order.

        The legacy DP enumerated ``P'`` candidates by (size, lexicographic
        over the str-sorted predicate list) and kept the *first* optimum.
        For masks of equal popcount, lexicographic order over ascending
        str-rank tuples equals *descending* order of the mask re-encoded
        with reversed bit significance; so ``(popcount, -reversed)`` is an
        ascending key whose minimum is the legacy winner.
        """
        rev_bit = self._rev_bit
        count = 0
        reverse = 0
        scan = mask
        while scan:
            low = scan & -scan
            reverse += rev_bit[low.bit_length() - 1]
            count += 1
            scan ^= low
        return (count, -reverse)

    # ------------------------------------------------------------------
    def prune_masks(self, bit: int) -> tuple[int, ...]:
        """SIT-expression masks relevant to Section 3.4 pruning of ``bit``.

        For predicate ``p`` at ``bit``: the masks of every distinct
        non-empty SIT expression on any attribute of ``p`` whose predicates
        are all interned (expressions mentioning foreign predicates can
        never be contained in a ``Q`` drawn from this universe).
        """
        self._ensure_prune_masks()
        assert self._prune_masks is not None
        return self._prune_masks[bit]

    def _ensure_prune_masks(self) -> None:
        pool = self.pool
        pool_version = pool.version if pool is not None else 0
        if (
            self._prune_masks is not None
            and self._prune_pool_version == pool_version
            and len(self._prune_masks) == len(self._predicates)
        ):
            return
        masks: list[tuple[int, ...]] = []
        for predicate in self._predicates:
            entry: set[int] = set()
            if pool is not None:
                for attribute in predicate.attributes:
                    for expression in pool.find_expressions(attribute):
                        mask = self._expression_mask(expression)
                        if mask:
                            entry.add(mask)
            masks.append(tuple(sorted(entry)))
        self._prune_masks = masks
        self._prune_pool_version = pool_version

    def _expression_mask(self, expression: PredicateSet) -> int:
        """Mask of ``expression``, or 0 when not fully interned."""
        mask = 0
        bit_of = self._bit_of
        for predicate in expression:
            bit = bit_of.get(predicate)
            if bit is None:
                return 0
            mask |= 1 << bit
        return mask
