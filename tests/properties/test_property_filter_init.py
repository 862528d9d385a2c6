"""The written-out ``FilterPredicate`` constructor builds the dataclass's filter.

``FilterPredicate.__init__`` is hand-written (one ``__dict__`` update,
the attribute's table set, attribute set, token and text built once per
attribute) because a served SQL statement builds its filters on every
request.  :func:`dataclass_built` is the filter as the generated
dataclass ``__init__`` and the ``__post_init__`` it called built it
before; for any attribute and bounds the two must be the same object in
every way a caller can see.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.plancache import shape_fingerprint
from repro.core.predicates import (
    Attribute,
    FilterPredicate,
    JoinPredicate,
    by_str,
)


def dataclass_built(attribute, low, high) -> FilterPredicate:
    """The generated ``__init__`` (three frozen field sets), then the
    former ``__post_init__``, verbatim."""
    self = object.__new__(FilterPredicate)
    object.__setattr__(self, "attribute", attribute)
    object.__setattr__(self, "low", low)
    object.__setattr__(self, "high", high)
    if self.low > self.high:
        raise ValueError(
            f"empty range for {self.attribute}: [{self.low}, {self.high}]"
        )
    object.__setattr__(self, "_hash", hash((self.attribute, self.low, self.high)))
    object.__setattr__(self, "_tables", frozenset((self.attribute.table,)))
    object.__setattr__(self, "_attributes", frozenset((self.attribute,)))
    if self.low == self.high:
        text = f"{self.attribute}={self.low:g}"
    else:
        text = f"{self.low:g}<={self.attribute}<={self.high:g}"
    object.__setattr__(self, "_str", text)
    object.__setattr__(self, "_token", ("F", self.attribute))
    return self


NAMES = st.one_of(
    st.sampled_from(["R", "S", "sales", "customer", "age", "a"]),
    st.text(alphabet="abcXYZ_.9 ", min_size=1, max_size=6),
)
attributes = st.builds(Attribute, NAMES, NAMES)
EDGES = [math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
BOUNDS = st.one_of(
    st.sampled_from(EDGES),
    st.floats(allow_nan=False),
    st.integers(-(10**6), 10**6),
)


@st.composite
def ranges(draw):
    """``(low, high)`` with ``low <= high``, equal one time in four."""
    low, high = sorted([draw(BOUNDS), draw(BOUNDS)])
    if draw(st.integers(0, 3)) == 0:
        high = low
    return low, high


def others(attribute: Attribute) -> list:
    """Filters on other attributes and joins to sort beside one filter."""
    key = Attribute("customer", "customer_id")
    return [
        JoinPredicate(Attribute("sales", "customer_id"), key),
        JoinPredicate(Attribute(attribute.table + "_", "k"), key),
        FilterPredicate(Attribute("customer", "age"), 20, 40),
        FilterPredicate(attribute, -math.inf, 0.5),
        dataclass_built(Attribute(attribute.table, attribute.column + "x"), 1, 1),
    ]


def assert_same(fast: FilterPredicate, built: FilterPredicate) -> None:
    assert fast == built and built == fast
    assert hash(fast) == hash(built)
    assert str(fast) == str(built) and fast._token == built._token
    assert fast.tables == built.tables and fast.attributes == built.attributes
    assert repr(fast) == repr(built)
    assert vars(fast) == vars(built)
    assert list(vars(fast)) == list(vars(built))  # and in the same order


class TestTheFastConstructorIsTheDataclass:
    @settings(max_examples=400, deadline=None)
    @given(attributes, ranges())
    @example(Attribute("R", "a"), (-0.0, 0.0))
    @example(Attribute("R", "a"), (0.0, -0.0))
    @example(Attribute("R", "a"), (5e-324, 5e-324))
    @example(Attribute("R", "a"), (-math.inf, math.inf))
    @example(Attribute("R", "a"), (1e300, math.inf))
    def test_same_filter(self, attribute, bounds):
        low, high = bounds
        built = dataclass_built(attribute, low, high)
        # the attribute's first filter builds its pieces, later ones reuse
        # them; an equal attribute object builds its own
        for fast in (
            FilterPredicate(attribute, low, high),
            FilterPredicate(attribute, low, high),
            FilterPredicate(Attribute(attribute.table, attribute.column), low, high),
        ):
            assert_same(fast, built)

    @settings(max_examples=200, deadline=None)
    @given(attributes, ranges())
    def test_same_sort_position_beside_joins(self, attribute, bounds):
        fast = FilterPredicate(attribute, *bounds)
        built = dataclass_built(attribute, *bounds)
        mixed = others(attribute)
        for key in (by_str, str):
            assert [str(p) for p in sorted(mixed + [fast], key=key)] == [
                str(p) for p in sorted(mixed + [built], key=key)
            ]
        filters = [p for p in mixed if not p.is_join]
        assert sorted(filters + [fast]) == sorted(filters + [built])
        assert [fast < p for p in filters] == [built < p for p in filters]
        assert shape_fingerprint(frozenset(mixed + [fast])) == shape_fingerprint(
            frozenset(mixed + [built])
        )

    @settings(max_examples=200, deadline=None)
    @given(attributes, ranges(), BOUNDS)
    def test_same_copies(self, attribute, bounds, moved):
        low, high = bounds
        fast = FilterPredicate(attribute, low, high)
        built = dataclass_built(attribute, low, high)
        assert pickle.dumps(fast) == pickle.dumps(built)
        assert_same(pickle.loads(pickle.dumps(fast)), built)
        assert_same(pickle.loads(pickle.dumps(built)), fast)
        # replace() runs the constructor: the written-out one now
        if moved <= high:
            assert_same(
                dataclasses.replace(fast, low=moved),
                dataclass_built(attribute, moved, high),
            )
        other = Attribute(attribute.column, attribute.table)
        assert_same(
            dataclasses.replace(built, attribute=other),
            dataclass_built(other, low, high),
        )

    @settings(max_examples=200, deadline=None)
    @given(attributes, BOUNDS, BOUNDS)
    @example(Attribute("R", "a"), 0.0, -5e-324)
    @example(Attribute("R", "a"), math.inf, 1e300)
    def test_same_error_for_an_empty_range(self, attribute, low, high):
        if not low > high:
            low, high = high, low
        if not low > high:  # equal: no empty range to report
            return
        with pytest.raises(ValueError) as fast:
            FilterPredicate(attribute, low, high)
        with pytest.raises(ValueError) as built:
            dataclass_built(attribute, low, high)
        assert str(fast.value) == str(built.value)
