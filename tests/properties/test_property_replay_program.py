"""A compiled plan's flat replay is its multiplication tree, bit for bit.

``CompiledPlan.selectivity`` runs the steps the plan precomputed from its
tree when it was built (``repro.core.plancache._emit``): a subtree of
constant factors folded to its float, a conditional chain multiplied
innermost-first, a separable split folded around a stack.
:func:`tree_replay` is the replay as it was before — every factor's
value, then the tree walked recursively in the cold DP's association
order — kept here as the reference.  For random trees of filter,
join-only and zero factors and random constants the two agree to the bit.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plancache import _CONST, _FACTOR, CompiledPlan, _FactorTemplate, _FilterSlot
from repro.core.predicates import Attribute, FilterPredicate
from repro.histograms.base import Histogram

POSITIONS = 6


def eval_tree(node, values: list[float]) -> float:
    if node is None:
        return 1.0
    if node[0] == "c":
        return values[node[1]] * eval_tree(node[2], values)
    selectivity = 1.0
    for child in node[1]:
        selectivity *= eval_tree(child, values)
    return selectivity


def tree_replay(plan: CompiledPlan, ordered) -> float:
    """Every factor's value in one loop, then :func:`eval_tree`."""
    inf = math.inf
    values = []
    for template in plan.templates:
        if template.zero:
            values.append(0.0)
            continue
        selectivity = template.join_selectivity
        for slot in template.filter_slots:
            low = -inf
            high = inf
            for position in slot.positions:
                predicate = ordered[position]
                if predicate.low > low:
                    low = predicate.low
                if predicate.high < high:
                    high = predicate.high
            if low > high:
                selectivity = 0.0
                break
            selectivity *= slot.histogram.estimate_range_selectivity(low, high)
            if selectivity == 0.0:
                selectivity = 0.0
                break
        values.append(selectivity)
    return eval_tree(plan.tree, values)


def random_histogram(rng: random.Random) -> Histogram:
    count = rng.randint(1, 5)
    edges = sorted(rng.sample(range(0, 401), 2 * count))
    lows, highs = edges[0::2], edges[1::2]
    frequencies = [float(rng.randint(1, 1000)) for _ in lows]
    distincts = [float(rng.randint(1, 50)) for _ in lows]
    return Histogram.from_arrays(lows, highs, frequencies, distincts, rng.choice([0.0, 7.0]))


def random_template(rng: random.Random) -> _FactorTemplate:
    roll = rng.random()
    join = rng.choice([rng.random(), rng.random() * 1e-3, 1.0, 1e-300])
    slots: tuple[_FilterSlot, ...] = ()
    if roll > 0.4:  # a filter factor; otherwise join-only, or zero
        slots = tuple(
            _FilterSlot(
                attribute=Attribute("T", f"c{index}"),
                histogram=random_histogram(rng),
                positions=tuple(sorted(rng.sample(range(POSITIONS), rng.randint(1, 2)))),
            )
            for index in range(rng.randint(1, 3))
        )
    return _FactorTemplate((), (), join, roll < 0.1, () if roll < 0.1 else slots, ())


def chain(rng: random.Random, templates: list, depth: int) -> tuple:
    index = len(templates)
    templates.append(random_template(rng))
    roll = rng.random()
    if roll < 0.45 and depth < 6:
        tail = chain(rng, templates, depth + 1)
    elif roll < 0.7 and depth < 4:
        tail = split(rng, templates, depth + 1)
    else:
        tail = None
    return ("c", index, tail)


def split(rng: random.Random, templates: list, depth: int) -> tuple:
    return ("s", tuple(chain(rng, templates, depth) for _ in range(rng.randint(2, 3))))


def random_plan(rng: random.Random) -> CompiledPlan:
    templates: list[_FactorTemplate] = []
    tree = chain(rng, templates, 0) if rng.random() < 0.7 else split(rng, templates, 1)
    return CompiledPlan((), tuple(templates), tree, 0.0, 1.0, 0, ())


def random_ordered(rng: random.Random) -> list[FilterPredicate]:
    ordered = []
    for index in range(POSITIONS):
        low = rng.choice([-math.inf, 0.0, -0.0, float(rng.randint(0, 400)), rng.uniform(0, 400)])
        high = rng.choice([math.inf, low, low + rng.uniform(0, 200)])
        ordered.append(FilterPredicate(Attribute("T", f"p{index}"), low, high))
    return ordered


class TestTheProgramIsTheTree:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bit_identical(self, seed):
        rng = random.Random(seed)
        plan = random_plan(rng)
        for _ in range(4):
            ordered = random_ordered(rng)
            assert plan.selectivity(ordered).hex() == tree_replay(plan, ordered).hex()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_a_tree_without_lookups_is_one_float(self, seed):
        rng = random.Random(seed)
        plan = random_plan(rng)
        if not any(template.filter_slots for template in plan.templates):
            assert [kind for kind, _, _ in plan.program] == [_CONST]

    def test_a_constant_tail_is_folded_and_the_chain_runs_innermost_first(self):
        rng = random.Random(7)
        lookup = random_template(random.Random(1))
        while not lookup.filter_slots:
            lookup = random_template(rng)
        joins = [_FactorTemplate((), (), value, False, (), ()) for value in (0.3, 0.7)]
        tree = ("c", 0, ("c", 1, ("c", 2, None)))
        plan = CompiledPlan((), (lookup, *joins), tree, 0.0, 1.0, 0, ())
        assert [(kind, number) for kind, number, _ in plan.program] == [
            (_CONST, 0.3 * (0.7 * 1.0)),
            (_FACTOR, lookup.join_selectivity),
        ]
