"""Unit tests for the predicate algebra."""

import copy
import dataclasses
import math
import operator
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import (
    Attribute,
    FilterPredicate,
    JoinPredicate,
    attributes_of,
    connected_components,
    filter_predicates,
    is_separable,
    join_predicates,
    predicate_set,
    tables_of,
)

RA = Attribute("R", "a")
RX = Attribute("R", "x")
SY = Attribute("S", "y")
SB = Attribute("S", "b")
TC = Attribute("T", "c")


class TestAttribute:
    def test_string_form(self):
        assert str(RA) == "R.a"

    def test_ordering_is_lexicographic(self):
        assert RA < RX < SY

    def test_equality_and_hash(self):
        assert Attribute("R", "a") == RA
        assert hash(Attribute("R", "a")) == hash(RA)


@dataclasses.dataclass(frozen=True, order=True)
class DataclassAttribute:
    """The attribute as it was, a frozen ordered dataclass: the reference
    for how attributes compare."""

    table: str
    column: str


NAMES = st.sampled_from(["", "R", "S", "a", "b", "R.a", "é"])
COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


class TestAttributeIsThePair:
    """An attribute is a ``(table, column)`` tuple underneath, so it hashes
    in C; everything else a caller sees is the dataclass it was."""

    @settings(max_examples=300, deadline=None)
    @given(NAMES, NAMES, NAMES, NAMES)
    def test_compares_and_hashes_as_the_dataclass(self, t1, c1, t2, c2):
        a, b = Attribute(t1, c1), Attribute(t2, c2)
        ref_a, ref_b = DataclassAttribute(t1, c1), DataclassAttribute(t2, c2)
        for compare in COMPARISONS:
            assert compare(a, b) is compare(ref_a, ref_b)
        assert hash(a) == hash((t1, c1))
        assert (a.table, a.column) == (t1, c1)
        assert repr(a) == repr(ref_a).replace("DataclassAttribute", "Attribute")
        assert str(a) == f"{t1}.{c1}"
        for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(twin) is Attribute and twin == a and hash(twin) == hash(a)

    def test_never_equals_or_orders_against_a_plain_tuple(self):
        pair = ("R", "a")
        assert RA != pair and pair != RA
        assert not (RA == pair or pair == RA)
        assert len({RA, pair}) == 2
        for compare in COMPARISONS[2:]:
            with pytest.raises(TypeError):
                compare(RA, pair)
            with pytest.raises(TypeError):
                compare(pair, RA)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RA.table = "S"
        with pytest.raises(dataclasses.FrozenInstanceError):
            RA.other = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del RA.column

    def test_hashing_runs_no_python(self):
        """Nor does hashing the tokens and predicates that hold one."""
        frames: list[str] = []

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_name == "__hash__":
                frames.append(frame.f_code.co_qualname)

        join = JoinPredicate(RX, SY)
        keys = [RA, ("F", RA), join._token, (join._token, ("F", SB))]
        sys.setprofile(profile)
        try:
            hashes = [hash(key) for key in keys]
        finally:
            sys.setprofile(None)
        assert frames == []
        assert hashes[0] == hash(("R", "a"))


class TestFilterPredicate:
    def test_tables_and_attributes(self):
        predicate = FilterPredicate(RA, 0, 10)
        assert predicate.tables == frozenset(("R",))
        assert predicate.attributes == frozenset((RA,))
        assert not predicate.is_join

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            FilterPredicate(RA, 10, 0)

    def test_point_predicate_renders_as_equality(self):
        assert str(FilterPredicate(RA, 5, 5)) == "R.a=5"

    def test_open_ended_ranges_allowed(self):
        predicate = FilterPredicate(RA, -math.inf, 3)
        assert predicate.low == -math.inf

    def test_hashable_in_frozensets(self):
        a = FilterPredicate(RA, 0, 1)
        b = FilterPredicate(RA, 0, 1)
        assert frozenset((a,)) == frozenset((b,))


class TestJoinPredicate:
    def test_canonical_operand_order(self):
        forward = JoinPredicate(RX, SY)
        backward = JoinPredicate(SY, RX)
        assert forward == backward
        assert hash(forward) == hash(backward)
        assert forward.left == RX  # R.x < S.y lexicographically

    def test_tables_and_attributes(self):
        join = JoinPredicate(RX, SY)
        assert join.tables == frozenset(("R", "S"))
        assert join.attributes == frozenset((RX, SY))
        assert join.is_join

    def test_self_join_rejected(self):
        with pytest.raises(ValueError):
            JoinPredicate(RX, RA)

    def test_other_side(self):
        join = JoinPredicate(RX, SY)
        assert join.other_side(RX) == SY
        assert join.other_side(SY) == RX
        with pytest.raises(ValueError):
            join.other_side(RA)


class TestSetHelpers:
    def setup_method(self):
        self.join_rs = JoinPredicate(RX, SY)
        self.filter_r = FilterPredicate(RA, 0, 10)
        self.filter_t = FilterPredicate(TC, 5, 5)

    def test_tables_of(self):
        assert tables_of([self.join_rs, self.filter_t]) == frozenset(
            ("R", "S", "T")
        )
        assert tables_of([]) == frozenset()

    def test_attributes_of(self):
        assert attributes_of([self.join_rs, self.filter_r]) == frozenset(
            (RX, SY, RA)
        )

    def test_join_and_filter_partitions(self):
        predicates = predicate_set([self.join_rs, self.filter_r, self.filter_t])
        assert join_predicates(predicates) == frozenset((self.join_rs,))
        assert filter_predicates(predicates) == frozenset(
            (self.filter_r, self.filter_t)
        )


class TestConnectedComponents:
    def test_empty_set(self):
        assert connected_components([]) == []

    def test_single_predicate(self):
        predicate = FilterPredicate(RA, 0, 1)
        assert connected_components([predicate]) == [frozenset((predicate,))]

    def test_filters_on_same_table_connect(self):
        first = FilterPredicate(RA, 0, 1)
        second = FilterPredicate(RX, 2, 3)
        assert len(connected_components([first, second])) == 1

    def test_disjoint_tables_separate(self):
        first = FilterPredicate(RA, 0, 1)
        second = FilterPredicate(TC, 0, 1)
        components = connected_components([first, second])
        assert len(components) == 2
        assert frozenset((first,)) in components
        assert frozenset((second,)) in components

    def test_join_bridges_tables(self):
        join = JoinPredicate(RX, SY)
        filter_r = FilterPredicate(RA, 0, 1)
        filter_s = FilterPredicate(SB, 0, 1)
        components = connected_components([join, filter_r, filter_s])
        assert len(components) == 1

    def test_paper_example_separable_after_decomposition(self):
        # Section 3.1: {T.b=5} vs {R.x=S.y, S.a<10} separate.
        join = JoinPredicate(RX, SY)
        filter_s = FilterPredicate(SB, -math.inf, 10)
        filter_t = FilterPredicate(TC, 5, 5)
        components = connected_components([join, filter_s, filter_t])
        assert sorted(len(c) for c in components) == [1, 2]

    def test_deterministic_order(self):
        join = JoinPredicate(RX, SY)
        filter_t = FilterPredicate(TC, 5, 5)
        first = connected_components([join, filter_t])
        second = connected_components([filter_t, join])
        assert first == second


class TestSeparability:
    def test_single_component_not_separable(self):
        join = JoinPredicate(RX, SY)
        assert not is_separable([join])

    def test_cross_product_separable(self):
        assert is_separable(
            [FilterPredicate(RA, 0, 1), FilterPredicate(TC, 0, 1)]
        )

    def test_empty_not_separable(self):
        assert not is_separable([])
