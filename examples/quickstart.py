"""Quickstart: statistics on query expressions in ~60 lines.

Builds a two-table database with a skewed foreign key, creates base
histograms plus one SIT, and shows how ``getSelectivity`` uses the SIT to
fix the classic independence-assumption underestimate.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    Attribute,
    Database,
    Executor,
    FilterPredicate,
    JoinPredicate,
    Query,
    Schema,
    SITBuilder,
    SITPool,
    Table,
    TableSchema,
    make_gs_diff,
    make_nosit,
)


def build_database() -> Database:
    """orders(customer_id, amount) joining customer(id, vip).

    VIP customers place most orders AND their orders are large: the join
    and the filter on ``amount`` are correlated.
    """
    rng = np.random.default_rng(7)
    schema = Schema()
    schema.add_table(TableSchema("customer", ("id", "vip"), primary_key="id"))
    schema.add_table(TableSchema("orders", ("customer_id", "amount")))
    db = Database(schema)

    customers = 100
    vip = (np.arange(customers) < 10).astype(float)  # first 10 are VIPs
    db.add_table(
        Table(
            schema.table("customer"),
            {"id": np.arange(customers, dtype=float), "vip": vip},
        )
    )
    # VIPs get 50x the order volume, and VIP orders are 10x larger.
    weights = np.where(vip == 1.0, 50.0, 1.0)
    weights /= weights.sum()
    customer_id = rng.choice(customers, size=5000, p=weights).astype(float)
    amount = np.round(
        rng.lognormal(3.0, 0.4, 5000) * np.where(vip[customer_id.astype(int)] == 1, 10, 1)
    )
    db.add_table(
        Table(schema.table("orders"), {"customer_id": customer_id, "amount": amount})
    )
    return db


def main() -> None:
    db = build_database()
    executor = Executor(db)

    join = JoinPredicate(
        Attribute("orders", "customer_id"), Attribute("customer", "id")
    )
    vip_filter = FilterPredicate(Attribute("customer", "vip"), 1, 1)
    query = Query.of(join, vip_filter)
    true_cardinality = executor.cardinality(query.predicates)

    # Base statistics for every column...
    builder = SITBuilder(db)
    pool = SITPool(
        [
            builder.build_base(attribute)
            for table in db.schema.tables.values()
            for attribute in table.attributes
        ]
    )

    print(f"query: {query}")
    print(f"true cardinality:          {true_cardinality:>10,}")

    no_sit = make_nosit(db, pool)
    print(f"traditional optimizer:     {no_sit.cardinality(query):>10,.0f}")

    # ... plus one statistic on a query expression: the distribution of
    # customer.vip over the join result.
    # A pool's membership is fixed when it is built: a new SIT means a
    # new pool.
    sit = builder.build(Attribute("customer", "vip"), frozenset({join}))
    print(f"created {sit} with diff={sit.diff:.3f}")

    with_sit = make_gs_diff(db, SITPool([*pool, sit]))
    print(f"getSelectivity with SIT:   {with_sit.cardinality(query):>10,.0f}")


if __name__ == "__main__":
    main()
