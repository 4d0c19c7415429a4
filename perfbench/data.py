"""Seeded inputs: the chain database, TPC-H-lite, the queries and the writes.

Everything here is a pure function of its seed, so one ``--seed`` always
yields the same tuples, the same op order and the same updates.
"""

from __future__ import annotations

import random

from repro import Database, Null, Relation
from repro.algebra import builder as rb
from repro.algebra.conditions import And, Attr, Eq
from repro.workloads.tpch_lite import TpchLiteConfig, generate_tpch_lite

__all__ = [
    "chain_database",
    "chain_query",
    "tpch_database",
    "Updater",
    "apply_update",
]


def chain_database(rows: int, seed: int, *, null_rate: float = 0.02) -> Database:
    """R(a,b), S(c,d), T(e,f) over a domain of ``rows // 30`` values.

    The same generator as E19 (``benchmarks/bench_backend.py``): with
    ``seed=7`` and 1200 rows it yields E19's instance exactly.  The small
    domain gives each join a ~30x fan-out, so the join builds hundreds of
    thousands of rows to return a few dozen.
    """
    rng = random.Random(seed)
    domain = [f"v{i}" for i in range(max(8, rows // 30))]

    def cell(prefix: str, i: int):
        if rng.random() < null_rate:
            return Null(f"{prefix}{i}")
        return rng.choice(domain)

    def relation(name: str, attrs: tuple[str, str]) -> Relation:
        return Relation(attrs, [(cell(name, i), cell(name + "'", i)) for i in range(rows)])

    return Database(
        {
            "R": relation("r", ("a", "b")),
            "S": relation("s", ("c", "d")),
            "T": relation("t", ("e", "f")),
        }
    )


def chain_query():
    """E19's acyclic chain ``π_a(σ_{b=c ∧ d=e}(R × S × T))``."""
    return rb.project(
        rb.select(
            rb.product(rb.product(rb.relation("R"), rb.relation("S")), rb.relation("T")),
            And(Eq(Attr("b"), Attr("c")), Eq(Attr("d"), Attr("e"))),
        ),
        ("a",),
    )


def tpch_database(scale: int, seed: int, *, null_rate: float = 0.1) -> Database:
    """TPC-H-lite at ``scale`` times the default row counts.

    Customers, orders, lineitems, suppliers and parts scale; the five
    nations and three regions do not (they are the join's tiny
    dimension tables).  ×20 is ~1.8k rows, ×8 ~750.
    """
    return generate_tpch_lite(
        TpchLiteConfig(
            customers=12 * scale,
            orders=25 * scale,
            lineitems=40 * scale,
            suppliers=5 * scale,
            parts=10 * scale,
            null_rate=null_rate,
            seed=seed,
        )
    )


class Updater:
    """The ``tpch-rw`` write stream: two rows out, two rows in, per write.

    Writes alternate between ``orders`` and ``lineitem`` so both sizes
    stay steady.  New rows reference existing keys, and about a quarter
    of their cells are fresh marked nulls, the same share of unknowns the
    read queries must already cope with.  :meth:`plan` draws the rows
    (outside any timed region); :func:`apply_update` is the timed part.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed * 7919 + 1)
        self._serial = 0

    def _fresh(self, value):
        if self._rng.random() < 0.25:
            self._serial += 1
            return Null(f"w{self._serial}")
        return value

    def plan(self, database: Database, cycle: int) -> tuple[str, list, list]:
        """``(relation name, rows to remove, rows to add)`` for one write."""
        rng = self._rng
        name = "orders" if cycle % 2 == 0 else "lineitem"
        current = list(database[name])
        removed = rng.sample(current, 2)
        added = []
        for _ in range(2):
            self._serial += 1
            if name == "orders":
                customer = rng.choice(list(database["customer"]))
                added.append(
                    (
                        f"o_w{self._serial}",
                        self._fresh(customer[0]),
                        self._fresh(rng.choice(["F", "O", "P"])),
                        rng.randrange(100, 50_000) / 100.0,
                    )
                )
            else:
                order = rng.choice(list(database["orders"]))
                part = rng.choice(list(database["part"]))
                supplier = rng.choice(list(database["supplier"]))
                added.append(
                    (
                        f"l_w{self._serial}",
                        self._fresh(order[0]),
                        part[0],
                        self._fresh(supplier[0]),
                        rng.randrange(1, 50),
                        rng.randrange(100, 10_000) / 100.0,
                    )
                )
        return name, removed, added


def apply_update(database: Database, name: str, removed: list, added: list) -> Database:
    """The new database version: ``removed`` rows out, ``added`` rows in."""
    relation = database[name]
    remaining = relation.rows_bag()
    for row in removed:
        remaining[row] -= 1
    kept = Relation.from_counter(
        relation.attributes, {row: n for row, n in remaining.items() if n > 0}
    )
    return database.with_relation(name, kept.add_rows(added))
