"""Property tests for the interned bitmask universe.

The bitmask DP's correctness rests on a handful of primitives in
:mod:`repro.core.universe`; each is checked here against a brute-force or
legacy oracle:

* ``iter_submasks`` vs. explicit ``itertools.combinations`` enumeration;
* ``components`` (bitwise BFS over the adjacency table) vs. the
  union-find :func:`repro.core.predicates.connected_components` oracle;
* ``tie_break`` vs. the legacy (size, str-lexicographic) enumeration
  order of ``LegacyGetSelectivity._atomic_decompositions``;
* ``prune_masks``-driven ``_worth_exploring_masks`` vs. the legacy
  frozenset ``_worth_exploring``;
* interning stability while the universe grows across calls.
"""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import NIndError
from repro.core.get_selectivity import GetSelectivity
from repro.core.predicates import (
    Attribute,
    FilterPredicate,
    JoinPredicate,
    connected_components,
)
from repro.core.universe import PredicateUniverse, iter_bits, iter_submasks

# ----------------------------------------------------------------------
# Random workload material (self-contained; mirrors the parity suite).

TABLES = [f"T{i}" for i in range(6)]
COLUMNS = ["a", "b", "c"]


def random_predicates(rng: random.Random, size: int) -> frozenset:
    n_tables = rng.randint(2, min(5, size))
    tables = rng.sample(TABLES, n_tables)
    joins = []
    for i in range(1, n_tables):
        left = Attribute(tables[rng.randrange(i)], rng.choice(COLUMNS))
        right = Attribute(tables[i], rng.choice(COLUMNS))
        joins.append(JoinPredicate(left, right))
    if len(joins) > 1 and rng.random() < 0.5:
        joins.pop(rng.randrange(len(joins)))
    predicates: set = set(joins)
    while len(predicates) < size:
        table = rng.choice(tables)
        low = float(rng.randint(0, 390))
        predicates.add(
            FilterPredicate(
                Attribute(table, rng.choice(COLUMNS)), low, low + rng.randint(0, 60)
            )
        )
    return frozenset(predicates)


# ----------------------------------------------------------------------
# iter_submasks / iter_bits


@given(st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_iter_submasks_matches_bruteforce(mask):
    bits = [b for b in range(12) if mask >> b & 1]
    expected = {
        sum(1 << b for b in combo)
        for size in range(1, len(bits) + 1)
        for combo in combinations(bits, size)
    }
    seen = list(iter_submasks(mask))
    assert set(seen) == expected
    assert len(seen) == len(expected)  # each exactly once
    if mask:
        assert seen[0] == mask  # mask itself first
    assert seen == sorted(seen, reverse=True)  # decreasing numeric order


@given(st.integers(min_value=0, max_value=(1 << 60) - 1))
def test_iter_bits_matches_binary_expansion(mask):
    bits = list(iter_bits(mask))
    assert bits == [b for b in range(61) if mask >> b & 1]
    assert sum(1 << b for b in bits) == mask


def test_iter_submasks_count_is_exponential():
    mask = (1 << 10) - 1
    assert sum(1 for _ in iter_submasks(mask)) == (1 << 10) - 1


# ----------------------------------------------------------------------
# components vs. the union-find oracle


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(3, 9))
def test_components_match_union_find_oracle(seed, size):
    rng = random.Random(seed)
    predicates = random_predicates(rng, size)
    universe = PredicateUniverse()
    mask = universe.intern(predicates)
    component_masks = universe.components(mask)
    oracle = connected_components(predicates)
    # Same partition, same deterministic order (smallest predicate's str).
    assert [universe.set_of(m) for m in component_masks] == oracle
    # Components partition the mask.
    combined = 0
    for component in component_masks:
        assert combined & component == 0
        combined |= component
    assert combined == mask
    assert universe.is_connected(mask) == (len(oracle) == 1)


def test_components_on_submasks_of_interned_universe():
    """Components must be correct for arbitrary submasks, not only the
    originally interned set (the DP calls it on every Q)."""
    rng = random.Random(4242)
    for _ in range(40):
        predicates = random_predicates(rng, 7)
        universe = PredicateUniverse()
        full = universe.intern(predicates)
        for _ in range(10):
            sub = rng.randrange(1, full + 1) & full
            if not sub:
                continue
            subset = universe.set_of(sub)
            assert [
                universe.set_of(m) for m in universe.components(sub)
            ] == connected_components(subset)


# ----------------------------------------------------------------------
# tie_break vs. legacy enumeration order


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(3, 7))
def test_tie_break_linearizes_legacy_enumeration(seed, size):
    rng = random.Random(seed)
    predicates = random_predicates(rng, size)
    universe = PredicateUniverse()
    mask = universe.intern(predicates)
    # Legacy order: subsets by (size, lexicographic over str-sorted list).
    items = sorted(predicates, key=str)
    legacy_order = [
        universe.intern(frozenset(combo))
        for n in range(1, len(items) + 1)
        for combo in combinations(items, n)
    ]
    keys = [universe.tie_break(m) for m in legacy_order]
    assert keys == sorted(keys), "tie_break must be monotone in legacy order"
    assert len(set(keys)) == len(keys), "tie_break must be injective"
    # And it covers every submask exactly once.
    assert sorted(legacy_order) == sorted(iter_submasks(mask))


def test_tie_break_stable_under_growth():
    """Growing the universe re-ranks bits globally; relative order of
    previously interned masks must track global str order."""
    universe = PredicateUniverse()
    a = FilterPredicate(Attribute("T1", "b"), 0.0, 1.0)
    b = FilterPredicate(Attribute("T3", "a"), 0.0, 1.0)
    c = FilterPredicate(Attribute("T0", "a"), 0.0, 1.0)  # str-smallest, last
    mask_a = universe.intern([a])
    mask_b = universe.intern([b])
    assert universe.tie_break(mask_a) < universe.tie_break(mask_b)
    mask_c = universe.intern([c])
    assert mask_a == universe.intern([a])  # masks never move
    assert universe.tie_break(mask_c) < universe.tie_break(mask_a)
    assert universe.tie_break(mask_a) < universe.tie_break(mask_b)


# ----------------------------------------------------------------------
# interning stability


def test_intern_is_idempotent_and_masks_stay_valid():
    rng = random.Random(11)
    universe = PredicateUniverse()
    predicates = random_predicates(rng, 6)
    first = universe.intern(predicates)
    assert universe.intern(predicates) == first
    assert universe.mask_of(predicates) == first
    assert universe.set_of(first) == predicates
    # Grow the universe with fresh predicates; old masks stay meaningful.
    more = random_predicates(rng, 8)
    universe.intern(more)
    assert universe.intern(predicates) == first
    assert universe.set_of(first) == predicates
    for predicate in predicates:
        assert predicate in universe
        bit = universe.bit(predicate)
        assert universe.predicate(bit) == predicate
        assert first >> bit & 1


def test_sorted_bits_follow_global_str_order():
    rng = random.Random(21)
    universe = PredicateUniverse()
    predicates = random_predicates(rng, 7)
    # Intern one at a time in random order to scramble bit assignment.
    shuffled = list(predicates)
    rng.shuffle(shuffled)
    for predicate in shuffled:
        universe.intern([predicate])
    mask = universe.intern(predicates)
    in_order = [universe.predicate(b) for b in universe.sorted_bits(mask)]
    assert in_order == sorted(predicates, key=str)


# ----------------------------------------------------------------------
# prune_masks vs. the legacy frozenset pruning oracle


def _pool_with_sits(rng, predicates):
    from repro.histograms.base import Bucket, Histogram
    from repro.stats.pool import SITPool
    from repro.stats.sit import SIT

    from repro.core.predicates import attributes_of

    histogram = Histogram([Bucket(0.0, 400.0, 1000.0, 100.0)])
    attributes = sorted(attributes_of(predicates))
    sits = [SIT(attribute, frozenset(), histogram) for attribute in attributes]
    joins = sorted((p for p in predicates if p.is_join), key=str)
    for _ in range(rng.randint(0, 5)):
        if not joins:
            break
        expression = frozenset(rng.sample(joins, rng.randint(1, min(3, len(joins)))))
        sits.append(SIT(rng.choice(attributes), expression, histogram))
    return SITPool(sits)


def test_mask_pruning_matches_legacy_oracle():
    rng = random.Random(314)
    for _ in range(60):
        predicates = random_predicates(rng, rng.randint(3, 7))
        pool = _pool_with_sits(rng, predicates)
        fast = GetSelectivity(pool, NIndError(), sit_driven_pruning=True)
        oracle = GetSelectivity.create(
            pool, NIndError(), sit_driven_pruning=True, engine="legacy"
        )
        universe = fast.universe
        mask = universe.intern(predicates)
        for p_mask in iter_submasks(mask):
            q_mask = mask ^ p_mask
            if not q_mask:
                continue  # caller keeps Q = {} unconditionally
            assert fast._worth_exploring_masks(p_mask, q_mask) == (
                oracle._worth_exploring(
                    universe.set_of(p_mask), universe.set_of(q_mask)
                )
            ), (predicates, universe.set_of(p_mask))
