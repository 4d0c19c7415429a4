"""The four workloads: what each sets up, the operations of one round, the checks.

A workload is driven in a closed loop by one client (``run.py``): set
up, :meth:`Workload.prepare` the references, then whole rounds of
:class:`Op` until the time is up; after each round
:meth:`Workload.check` compares the round's answers with the references.
A round is the same list of operations every time, fixed by the seed,
so every run attempts the same mix in the same proportions however long
it lasts.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from repro import Engine, Session, ShardedDatabase
from repro.engine import AsyncEngine
from repro.sharding import ProcessShardExecutor
from repro.workloads.tpch_lite import tpch_lite_queries

from .data import Updater, apply_update, chain_database, chain_query, tpch_database
from .reference import chain_reference, check_result, tpch_reference

__all__ = ["Op", "WORKLOADS"]


@dataclass
class Op:
    """One operation: ``kind`` is ``read``, ``async_read`` or ``write``.

    A read returns its :class:`~repro.engine.result.QueryResult`; a write
    returns the milliseconds it spent building the new database version.
    """

    kind: str
    run: Callable[[], Any]


class Workload:
    name = ""
    why = ""

    def __init__(self, *, short: bool = False):
        self.short = short
        self.failures: list[str] = []

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def round(self, trace: bool) -> list[Op]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the references (after set-up, outside every timed region)."""

    def check(self) -> int:
        """Check and drop the answers stored since the last call; count the wrong ones."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _wrong(self, reason: str | None) -> bool:
        if reason is not None and len(self.failures) < 5:
            self.failures.append(reason)
        return reason is not None


class ChainCold(Workload):
    """Uncached monolithic naive evaluation of E19's chain join."""

    name = "chain-cold"
    why = (
        "uncached naive chain join: optimizer, stats and the SQLite backend "
        "(table load + 377k-row join); bypasses result cache, planner, sharding"
    )
    ROWS, SHORT_ROWS = 1200, 300
    READS_PER_ROUND = 5

    def setup(self, seed: int) -> None:
        self.database = chain_database(self.SHORT_ROWS if self.short else self.ROWS, seed)
        self.query = chain_query()
        self.engine = Engine()
        self.results: list = []
        for _ in range(2):
            self._read(False)
        self.results.clear()

    def _read(self, trace: bool):
        result = self.engine.evaluate(self.query, self.database, use_cache=False, trace=trace)
        self.results.append(result)
        return result

    def round(self, trace: bool) -> list[Op]:
        return [Op("read", lambda: self._read(trace))] * self.READS_PER_ROUND

    def prepare(self) -> None:
        self.reference = chain_reference(self.database)

    def check(self) -> int:
        wrong = sum(self._wrong(check_result(r, self.reference)) for r in self.results)
        self.results.clear()
        return wrong

    def close(self) -> None:
        self.engine.close()


#: tpch-hot's zipf(1.1) weights over the six queries, in
#: ``tpch_lite_queries()`` order, as whole counts per round: 26 naive
#: and 14 auto hits.  Naive hits are the cheaper class (no planner call)
#: and hold 65% of the reads, so the median lies well inside them and
#: never in the gap between the two classes.
HOT_NAIVE_COUNTS = (11, 5, 3, 3, 2, 2)
HOT_AUTO_COUNTS = (6, 3, 2, 1, 1, 1)


class TpchHot(Workload):
    """Cache hits through ``Engine.evaluate``, which re-fingerprints every call."""

    name = "tpch-hot"
    why = (
        "cache hits via Engine.evaluate on TPC-H-lite x20: frontend, planner, "
        "fingerprint + lookup; bypasses optimizer, backends, sharding"
    )
    SCALE, SHORT_SCALE = 20, 2

    def setup(self, seed: int) -> None:
        self.database = tpch_database(self.SHORT_SCALE if self.short else self.SCALE, seed)
        self.queries = tpch_lite_queries()
        self.engine = Engine()
        self.results: list = []
        for query in self.queries.values():
            for strategy in ("naive", "auto"):
                self.engine.evaluate(query, self.database, strategy=strategy)
        ops = []
        for counts, strategy in ((HOT_NAIVE_COUNTS, "naive"), (HOT_AUTO_COUNTS, "auto")):
            for name, count in zip(self.queries, counts):
                ops += [(name, strategy)] * count
        random.Random(seed).shuffle(ops)
        self.sequence = ops

    def _read(self, name: str, strategy: str, trace: bool):
        result = self.engine.evaluate(
            self.queries[name], self.database, strategy=strategy, trace=trace
        )
        self.results.append((name, result))
        return result

    def round(self, trace: bool) -> list[Op]:
        return [
            Op("read", lambda n=name, s=strategy: self._read(n, s, trace))
            for name, strategy in self.sequence
        ]

    def prepare(self) -> None:
        self.references = {name: tpch_reference(name, self.database) for name in self.queries}

    def check(self) -> int:
        wrong = sum(self._wrong(check_result(r, self.references[n])) for n, r in self.results)
        self.results.clear()
        return wrong

    def close(self) -> None:
        self.engine.close()


#: tpch-rw reads every query under each mode once per write.  Explicit
#: approx-guagliardo16 is left out: on q_localsupp at x8 one call takes
#: ~21 s.  ``auto`` routes the difference queries to it anyway.
RW_MODES = (("naive", "set"), ("naive", "bag"), ("auto", "set"))
#: After the 18 first reads of a version, 7 of them are read again (cache
#: hits).  25 reads per write put both the median (position 12.5) and
#: p90 (22.5) in the middle of one operation's slot of the sorted costs,
#: never on the edge between two operations of different cost.
RW_REREADS = 7


class TpchRw(Workload):
    """One small write, then every query read through a ``Session``, per round."""

    name = "tpch-rw"
    why = (
        "writes beside reads on TPC-H-lite x8: each read pays the uncached "
        "pipeline on a new database version (fingerprint, stats, SQLite, fallback)"
    )
    SCALE, SHORT_SCALE = 8, 2

    def setup(self, seed: int) -> None:
        database = tpch_database(self.SHORT_SCALE if self.short else self.SCALE, seed)
        self.queries = tpch_lite_queries()
        self.session = Session(database)
        self.updater = Updater(seed)
        self.database = database
        self.cycle = 0
        self.results: list = []
        reads = [(name, mode) for name in self.queries for mode in RW_MODES]
        rng = random.Random(seed)
        rng.shuffle(reads)
        self.sequence = reads + rng.sample(reads, RW_REREADS)
        for name, (strategy, semantics) in reads:
            self.session.evaluate(self.queries[name], strategy=strategy, semantics=semantics)

    def _write(self, name: str, removed: list, added: list) -> float:
        start = time.perf_counter()
        database = apply_update(self.database, name, removed, added)
        built = time.perf_counter()
        self.session = self.session.with_database(database)
        self.database = database
        return (built - start) * 1000.0

    def _read(self, name: str, strategy: str, semantics: str, trace: bool):
        result = self.session.evaluate(
            self.queries[name], strategy=strategy, semantics=semantics, trace=trace
        )
        self.results.append((self.database, name, result))
        return result

    def round(self, trace: bool) -> list[Op]:
        self.cycle += 1
        update = self.updater.plan(self.database, self.cycle)
        ops = [Op("write", lambda: self._write(*update))]
        ops += [
            Op("read", lambda n=name, m=mode: self._read(n, *m, trace))
            for name, mode in self.sequence
        ]
        return ops

    def check(self) -> int:
        """Every read is checked against the version it read, recomputed per write."""
        references: dict[tuple[int, str], Counter] = {}
        wrong = 0
        for database, name, result in self.results:
            key = (id(database), name)
            if key not in references:
                references[key] = tpch_reference(name, database)
            wrong += self._wrong(check_result(result, references[key]))
        self.results.clear()
        return wrong

    def close(self) -> None:
        self.session.close()


class ChainSharded(Workload):
    """The chain-cold query on two shards and two worker processes, sync and async."""

    name = "chain-sharded"
    why = (
        "chain-cold's query on 2 shards, process executor with 2 workers, "
        "alternating Engine and AsyncEngine: shard plan, fan-out, merge, aio"
    )
    ROWS, SHORT_ROWS = 1200, 300
    PAIRS_PER_ROUND = 3
    WORKERS = 2

    def setup(self, seed: int) -> None:
        database = chain_database(self.SHORT_ROWS if self.short else self.ROWS, seed)
        self.plain = database
        self.database = ShardedDatabase.from_database(database, 2)
        self.query = chain_query()
        self.executor = ProcessShardExecutor(max_workers=self.WORKERS)
        self.engine = Engine(executor=self.executor)
        # A serial pool: distributable plans fan out through the shard
        # executor above, so no second pool of workers is started.
        self.async_engine = AsyncEngine(engine=self.engine, pool="serial")
        self.loop = asyncio.new_event_loop()
        self.results: list = []
        for _ in range(2):
            self._sync(False)
            self._async(False)
        self.results.clear()

    def _sync(self, trace: bool):
        result = self.engine.evaluate(self.query, self.database, use_cache=False, trace=trace)
        self.results.append(result)
        return result

    def _async(self, trace: bool):
        result = self.loop.run_until_complete(
            self.async_engine.evaluate(self.query, self.database, use_cache=False, trace=trace)
        )
        self.results.append(result)
        return result

    def round(self, trace: bool) -> list[Op]:
        pair = [Op("read", lambda: self._sync(trace)), Op("async_read", lambda: self._async(trace))]
        return pair * self.PAIRS_PER_ROUND

    def prepare(self) -> None:
        self.reference = chain_reference(self.plain)

    def check(self) -> int:
        wrong = sum(self._wrong(check_result(r, self.reference)) for r in self.results)
        self.results.clear()
        return wrong

    def close(self) -> None:
        self.loop.close()
        self.async_engine.close()
        self.engine.close()
        self.executor.close()


WORKLOADS = {w.name: w for w in (ChainCold, TpchHot, TpchRw, ChainSharded)}
