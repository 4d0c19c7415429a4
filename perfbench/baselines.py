"""Re-measure the ROADMAP's reference numbers with the benchmark's own tools.

::

    python3 perfbench/baselines.py            # about a minute, most of it one slow call
    python3 perfbench/baselines.py --quick    # skips the ~20 s approx-guagliardo16 call

Prints raw milliseconds beside the calibration kernel's time at that
moment (see ``machine.py``), so the numbers can be set against a run of
``run.py``.  These are reference points for the README, not metrics
with bounds.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import Engine, Session, ShardedDatabase  # noqa: E402
from repro.sharding import ProcessShardExecutor  # noqa: E402
from repro.workloads.tpch_lite import tpch_lite_queries  # noqa: E402

from perfbench.data import chain_database, chain_query, tpch_database  # noqa: E402
from perfbench.layers import Probe, SpanTotals  # noqa: E402
from perfbench.machine import kernel_ms  # noqa: E402


def _median_ms(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def hit_path() -> None:
    for label, database, query in (
        ("chain, 300 rows", chain_database(300, seed=7), chain_query()),
        ("TPC-H-lite x20", tpch_database(20, seed=1), tpch_lite_queries()["q_join"]),
    ):
        engine = Engine()
        session = Session(database, engine=engine)
        session.evaluate(query)
        via_engine = _median_ms(lambda: engine.evaluate(query, database), 51)
        via_session = _median_ms(lambda: session.evaluate(query), 51)
        print(f"cache hit, {label}: Engine.evaluate {via_engine:.3f} ms, "
              f"Session.evaluate {via_session:.3f} ms")
        engine.close()


def load_share() -> None:
    for rows in (300, 1200):
        database, query, engine = chain_database(rows, seed=7), chain_query(), Engine()
        engine.evaluate(query, database, use_cache=False)
        probe = Probe()
        probe.install()
        try:
            total = _median_ms(lambda: engine.evaluate(query, database, use_cache=False), 21)
        finally:
            probe.uninstall()
        load = probe.totals["load_ms"] / 21
        statement = probe.totals["statement_ms"] / 21
        print(f"chain-cold, {rows} rows: {total:.2f} ms per call, SQLite load "
              f"{load:.2f} ms ({load / total:.0%}), statement {statement:.2f} ms")


def intermediate_rows() -> None:
    """Rows of R ⋈ S ⋈ T over distinct rows, as the SQLite statement builds them."""
    database = chain_database(1200, seed=7)
    s_by_c: dict = {}
    for c, d in database["S"]:
        s_by_c.setdefault(c, []).append(d)
    t_count: dict = {}
    for e, _ in database["T"]:
        t_count[e] = t_count.get(e, 0) + 1
    joined = sum(
        t_count.get(d, 0) for _, b in database["R"] for d in s_by_c.get(b, ())
    )
    answer = Engine().evaluate(chain_query(), database, use_cache=False)
    print(f"chain join at 1200 rows, seed 7: {joined:,} join rows for "
          f"{len(answer.relation)} answer rows")


def guagliardo_localsupp() -> None:
    database = tpch_database(8, seed=1)
    start = time.perf_counter()
    Engine().evaluate(
        tpch_lite_queries()["q_localsupp"], database, strategy="approx-guagliardo16"
    )
    print(f"approx-guagliardo16 on q_localsupp at x8: {time.perf_counter() - start:.1f} s")


def sharded_dispatch() -> None:
    database = chain_database(1200, seed=7)
    sharded = ShardedDatabase.from_database(database, 2)
    query = chain_query()
    executor = ProcessShardExecutor(max_workers=2)
    engine = Engine(executor=executor)
    try:
        for _ in range(2):
            engine.evaluate(query, sharded, use_cache=False)
        spans, calls = SpanTotals(), 15
        for _ in range(calls):
            start = time.perf_counter()
            result = engine.evaluate(query, sharded, use_cache=False, trace=True)
            spans.add(result.metadata["trace"], (time.perf_counter() - start) * 1000.0)
        mono = _median_ms(lambda: engine.evaluate(query, database, use_cache=False), 9)
    finally:
        engine.close()
        executor.close()
    s = spans.sums
    print(f"chain on 2 shards: slowest shard {s['shard_slowest'] / calls:.2f} ms, "
          f"dispatch (fan-out minus slowest shard) {s['shard_dispatch'] / calls:.2f} ms, "
          f"plan {s['shard_plan'] / calls:.2f} ms, merge {s['shard_merge'] / calls:.2f} ms; "
          f"monolithic call {mono:.2f} ms")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    print(f"calibration kernel: {statistics.median(kernel_ms() for _ in range(9)):.2f} ms")
    hit_path()
    load_share()
    intermediate_rows()
    sharded_dispatch()
    if not args.quick:
        guagliardo_localsupp()
    print(f"calibration kernel: {statistics.median(kernel_ms() for _ in range(9)):.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
