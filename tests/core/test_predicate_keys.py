"""A predicate's sort key and shape token are built with the predicate.

``FilterPredicate`` (in its constructor) and ``JoinPredicate`` (in
``__post_init__``) compute ``_str`` (what ``str()`` returns, and what
every canonical ``str`` order sorts on) and ``_token`` (the predicate's
position token in a plan-cache shape fingerprint) beside ``_hash``.  A hot answer then never formats a
float.  Held here, for a predicate from every construction path, against
the formatting they replaced: :func:`legacy_text`, :func:`legacy_token`
and :func:`legacy_fingerprint`.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import pickle

import pytest

from repro.core.plancache import shape_fingerprint
from repro.core.predicates import (
    Attribute,
    FilterPredicate,
    JoinPredicate,
    by_str,
    connected_components,
)
from repro.service.protocol import decode_predicates, encode_predicates
from repro.sql import parse_query
from repro.sql.template import TemplateFrontEnd
from repro.stats.io import decode_predicate, encode_predicate
from repro.workload.snowflake import snowflake_schema


def legacy_text(predicate) -> str:
    """``__str__`` as it was written before the text was built up front."""
    if predicate.is_join:
        return f"{predicate.left}={predicate.right}"
    if predicate.low == predicate.high:
        return f"{predicate.attribute}={predicate.low:g}"
    return f"{predicate.low:g}<={predicate.attribute}<={predicate.high:g}"


def legacy_token(predicate) -> tuple:
    if predicate.is_join:
        return ("J", predicate.left, predicate.right)
    return ("F", predicate.attribute)


def legacy_fingerprint(predicates) -> tuple[tuple, tuple]:
    """``shape_fingerprint`` as it was: sorted by ``str``, tokens built
    per call."""
    ordered = tuple(sorted(predicates, key=legacy_text))
    return tuple(legacy_token(p) for p in ordered), ordered


AGE = Attribute("customer", "age")
INCOME = Attribute("customer", "income")
CUSTOMER_KEY = Attribute("customer", "customer_id")
SALES_KEY = Attribute("sales", "customer_id")

#: constants that exercise ``:g``: integers, fractions, exponents, zeros
#: of both signs, infinities, points
BOUNDS = [
    (20, 40),
    (20.0, 40.5),
    (-0.0, 0.0),
    (0.0, 0.0),
    (-0.0, -0.0),
    (-math.inf, 7),
    (3, math.inf),
    (-math.inf, math.inf),
    (1e-7, 1e20),
    (123456789.0, 123456789.0),
    (0.1 + 0.2, 1 / 3),
]

SQL = (
    "SELECT * FROM sales, customer "
    "WHERE sales.customer_id = customer.customer_id "
    "AND customer.age BETWEEN {low} AND {high} AND customer.income = {point}"
)


def assert_keys_built(predicate) -> None:
    """Built at construction (present before ``str()`` is ever called),
    and equal to the text and token they replaced."""
    assert "_str" in vars(predicate) and "_token" in vars(predicate)
    assert predicate._str == legacy_text(predicate)
    assert str(predicate) == legacy_text(predicate)
    assert predicate._token == legacy_token(predicate)


def constructed() -> list:
    filters = [FilterPredicate(AGE, low, high) for low, high in BOUNDS]
    joins = [JoinPredicate(SALES_KEY, CUSTOMER_KEY), JoinPredicate(CUSTOMER_KEY, SALES_KEY)]
    return filters + joins


@pytest.fixture(scope="module")
def schema():
    return snowflake_schema()


class TestEveryConstructionPath:
    def test_constructor(self):
        for predicate in constructed():
            assert_keys_built(predicate)

    def test_parse_query(self, schema):
        for low, high in [(20, 40), (20.5, 40.25), (0, 0), (1e-7, 1e20)]:
            query = parse_query(SQL.format(low=low, high=high, point=7), schema)
            for predicate in query.predicates:
                assert_keys_built(predicate)

    def test_sql_template_miss_and_hit(self, schema):
        front = TemplateFrontEnd(schema)
        for low, high, point in [(20, 40, 7), (21.5, 39, 0), (1e-3, 2e9, 12.25)]:
            query = front.parse(SQL.format(low=low, high=high, point=point))
            for predicate in query.predicates:
                assert_keys_built(predicate)
        assert (front.misses, front.hits) == (1, 2)

    def test_catalog_decode(self):
        for predicate in constructed():
            text = json.dumps(encode_predicate(predicate))
            decoded = decode_predicate(json.loads(text))
            assert decoded == predicate
            assert_keys_built(decoded)

    def test_wire_decode(self):
        predicates = frozenset(constructed())
        wire = json.loads(json.dumps(encode_predicates(predicates)))
        decoded = decode_predicates(wire)
        assert decoded == predicates
        for predicate in decoded:
            assert_keys_built(predicate)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies(self, clone):
        for predicate in constructed():
            assert_keys_built(clone(predicate))

    def test_dataclasses_replace(self):
        for predicate in constructed():
            if predicate.is_join:
                moved = dataclasses.replace(predicate, left=predicate.right, right=predicate.left)
                assert moved == predicate
            else:
                moved = dataclasses.replace(predicate, attribute=INCOME, high=predicate.high + 1)
                assert moved.attribute == INCOME
            assert_keys_built(moved)


class TestOrdersAndFingerprints:
    def test_by_str_orders_as_str(self):
        predicates = constructed() + [FilterPredicate(INCOME, low, high) for low, high in BOUNDS]
        assert sorted(predicates, key=by_str) == sorted(predicates, key=str)
        assert sorted(predicates, key=by_str) == sorted(predicates, key=legacy_text)

    def test_shape_fingerprint_is_the_legacy_one(self):
        for low, high in BOUNDS:
            for point in (7, -0.0, 1e20):
                predicates = frozenset(
                    {
                        JoinPredicate(SALES_KEY, CUSTOMER_KEY),
                        FilterPredicate(AGE, low, high),
                        FilterPredicate(INCOME, point, point),
                    }
                )
                assert shape_fingerprint(predicates) == legacy_fingerprint(predicates)

    def test_components_order_as_before(self):
        filters = [FilterPredicate(AGE, 5, 9), FilterPredicate(Attribute("store", "size"), 1, 1)]
        components = connected_components(filters)
        assert components == sorted(
            components, key=lambda c: min(legacy_text(p) for p in c)
        )
