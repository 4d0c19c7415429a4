"""Independent answers: a plain-Python naïve evaluator and the paper's guarantees.

The evaluator shares no code with :mod:`repro.algebra` or
:mod:`repro.exec`: each query is written out by hand as loops and
dictionaries over the generated tuples.  Naïve evaluation treats a
marked null as an ordinary value that is equal only to itself, and an
order comparison (``>``, ``≥``) involving a null is false.  Every
function returns a bag (``Counter`` of rows); the set answer is its key
set.  Bag semantics follow the algebra: × multiplies multiplicities, π
and ∪ add them, − subtracts and floors at zero.

The checkers turn an engine result into ``None`` (correct) or a short
reason (wrong):

* a naïve answer must equal the reference exactly;
* a sound answer (``approx-guagliardo16``'s Q⁺, an exact-certain answer)
  must satisfy Q⁺ ⊆ cert⊥ ⊆ naive, hence Q⁺ ⊆ the reference, and
  Q⁺ ⊆ Q? whenever the strategy also returned its possible answers.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro import Database, Null

__all__ = ["chain_reference", "tpch_reference", "TPCH_REFERENCES", "check_result"]


def _rows(database: Database, name: str):
    return list(database[name].iter_rows(with_multiplicity=True))


def _index(rows, position: int) -> dict:
    index: dict = defaultdict(list)
    for row, count in rows:
        index[row[position]].append((row, count))
    return index


def _at_least(value, bound: float) -> bool:
    return not isinstance(value, Null) and value >= bound


def _above(value, bound: float) -> bool:
    return not isinstance(value, Null) and value > bound


def chain_reference(database: Database) -> Counter:
    """``π_a(σ_{b=c ∧ d=e}(R × S × T))``."""
    s_by_c = _index(_rows(database, "S"), 0)
    t_by_e = _index(_rows(database, "T"), 0)
    out: Counter = Counter()
    for (a, b), m_r in _rows(database, "R"):
        for (_, d), m_s in s_by_c.get(b, ()):
            for _, m_t in t_by_e.get(d, ()):
                out[(a,)] += m_r * m_s * m_t
    return out


def _project(rows, positions) -> Counter:
    out: Counter = Counter()
    for row, count in rows:
        out[tuple(row[p] for p in positions)] += count
    return out


def _q_join(db: Database) -> Counter:
    orders_by_cust = _index(_rows(db, "orders"), 1)
    out: Counter = Counter()
    for (custkey, name, _, _), m_c in _rows(db, "customer"):
        for (orderkey, _, _, price), m_o in orders_by_cust.get(custkey, ()):
            if _above(price, 250.0):
                out[(custkey, name, orderkey)] += m_c * m_o
    return out


def _q_select(db: Database) -> Counter:
    out: Counter = Counter()
    for (custkey, _, nation, balance), count in _rows(db, "customer"):
        if (nation == "n0" and _at_least(balance, 50.0)) or _at_least(balance, 95.0):
            out[(custkey, balance)] += count
    return out


def _q_unordered(db: Database) -> Counter:
    return _project(_rows(db, "customer"), (0,)) - _project(_rows(db, "orders"), (1,))


def _q_unshipped(db: Database) -> Counter:
    return _project(_rows(db, "orders"), (0,)) - _project(_rows(db, "lineitem"), (1,))


def _q_localsupp(db: Database) -> Counter:
    orders_by_cust = _index(_rows(db, "orders"), 1)
    lines_by_order = _index(_rows(db, "lineitem"), 1)
    suppliers_by_key = _index(_rows(db, "supplier"), 0)
    out: Counter = Counter()
    for (custkey, _, cust_nation, _), m_c in _rows(db, "customer"):
        for (orderkey, _, _, _), m_o in orders_by_cust.get(custkey, ()):
            for (linekey, _, _, suppkey, _, _), m_l in lines_by_order.get(orderkey, ()):
                for (_, _, supp_nation), m_s in suppliers_by_key.get(suppkey, ()):
                    if cust_nation == supp_nation:
                        out[(custkey, orderkey, linekey)] += m_c * m_o * m_l * m_s
    return out


def _q_nonlocal(db: Database) -> Counter:
    without_supplier = _project(_rows(db, "nation"), (0,)) - _project(
        _rows(db, "supplier"), (2,)
    )
    out: Counter = Counter()
    for (custkey, name, nation, _), m_c in _rows(db, "customer"):
        m_n = without_supplier.get((nation,), 0)
        if m_n:
            out[(custkey, name)] += m_c * m_n
    return out


#: One hand-written naïve evaluator per ``tpch_lite_queries()`` entry.
TPCH_REFERENCES = {
    "q_join": _q_join,
    "q_select": _q_select,
    "q_unordered": _q_unordered,
    "q_unshipped": _q_unshipped,
    "q_localsupp": _q_localsupp,
    "q_nonlocal": _q_nonlocal,
}


def tpch_reference(name: str, database: Database) -> Counter:
    return TPCH_REFERENCES[name](database)


def check_result(result, reference: Counter) -> str | None:
    """``None`` if ``result`` is right against the naïve ``reference``.

    The strategy the engine actually ran (``result.strategy``, which
    ``strategy="auto"`` resolves) decides the test: ``naive`` must match
    exactly (as a bag under bag semantics), every other strategy is
    checked against the soundness chain.
    """
    answer = result.relation
    if result.strategy == "naive":
        if result.semantics == "bag":
            got = Counter(answer.rows_bag())
            if got != reference:
                return f"naive bag answer differs ({_diff(got, reference)})"
            return None
        got_set, want_set = answer.rows_set(), frozenset(reference)
        if got_set != want_set:
            return f"naive answer differs ({_diff(got_set, want_set)})"
        return None
    # The answer the strategy asserts and its certain set (the same
    # relation for approx-guagliardo16) must both be sound.
    asserted = answer.rows_set()
    if result.certain is not None:
        asserted |= result.certain.rows_set()
    extra = asserted - frozenset(reference)
    if extra:
        return f"{result.strategy}: {len(extra)} certain row(s) outside naive answer"
    if result.possible is not None:
        missing = asserted - result.possible.rows_set()
        if missing:
            return f"{result.strategy}: {len(missing)} certain row(s) not possible"
    return None


def _diff(got, want) -> str:
    if isinstance(got, Counter):
        return f"{sum((got - want).values())} extra, {sum((want - got).values())} missing"
    return f"{len(got - want)} extra, {len(want - got)} missing"
