"""Per-layer numbers for the traced run.

Two sources, both read from outside the program:

* the span tree the engine already emits with ``trace=True``
  (``normalize``, ``plan``, ``cache.lookup``, ``execute``,
  ``execute.sqlite``, ``execute.interpreter``, ``shard.plan``,
  ``shard.fanout`` with one grafted ``shard[i]`` per worker,
  ``shard.merge``);
* :class:`Probe`, which times public functions that have no span by
  replacing them, for the duration of a traced round, with timed
  wrappers under the names the engine's modules look them up by:
  ``database_fingerprint``, ``choose_strategy``, ``optimize_plan``,
  ``relation_stats``, and the ``sqlite3`` connection the SQLite backend
  opens (``executemany`` is the table load, ``execute`` plus its fetch
  is the statement).

Each wrapper adds its time to the probe's totals and, as a counter, to
the span that is open when it runs, so ``sqlite.other_ms`` can subtract
exactly the load, statement and optimizer time spent inside each
``execute.sqlite`` span.  Shard workers run in other processes, where
no wrapper is installed: their SQLite split is not measured, only their
grafted spans.
"""

from __future__ import annotations

import sqlite3
import time
from collections import defaultdict
from typing import Any

import repro.algebra.optimize as optimize_module
import repro.algebra.stats as stats_module
import repro.engine.aio as aio_module
import repro.engine.core as core_module
import repro.exec.sqlite_backend as sqlite_module
import repro.sharding.evaluate as sharding_module
from repro.obs.trace import current_span

__all__ = ["LAYER_METRICS", "Probe", "SpanTotals", "layer_metrics"]

#: Per-layer metric → unit, in the order they are printed.
LAYER_METRICS = {
    "engine.normalize_ms": "ms",
    "engine.dispatch_ms": "ms",
    "engine.sync_read_ms": "ms",
    "engine.async_read_ms": "ms",
    "planner.choose_ms": "ms",
    "cache.fingerprint_ms": "ms",
    "cache.fingerprint_rows": "count",
    "cache.lookup_ms": "ms",
    "cache.hit_ratio": "ratio",
    "optimize.ms": "ms",
    "optimize.calls": "count",
    "stats.ms": "ms",
    "sqlite.load_ms": "ms",
    "sqlite.load_rows": "count",
    "sqlite.statement_ms": "ms",
    "sqlite.rows_out": "count",
    "sqlite.other_ms": "ms",
    "interpreter.ms": "ms",
    "exec.sqlite_share": "ratio",
    "sharding.plan_ms": "ms",
    "sharding.merge_ms": "ms",
    "sharding.shard_ms": "ms",
    "sharding.dispatch_ms": "ms",
    "sharding.retries": "count",
    "datamodel.write_ms": "ms",
    "write.p50_ms": "ms",
    "obs.trace_overhead_ms": "ms",
}


class Probe:
    """Timed stand-ins for the public functions that have no span."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[Any, str, Any]] = []
        self._depth: dict[str, int] = defaultdict(int)

    def _record(self, key: str, amount: float) -> None:
        self.totals[key] += amount
        current_span().incr("perfbench." + key, amount)

    def _timed(self, key: str, func, *, rows=None):
        """Wrap ``func``; nested calls (``optimize_plan`` recursing) count once."""

        def wrapper(*args, **kwargs):
            if self._depth[key]:
                return func(*args, **kwargs)
            self._depth[key] += 1
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self._depth[key] -= 1
                self._record(key + "_ms", (time.perf_counter() - start) * 1000.0)
                self._record(key + "_calls", 1)
                if rows is not None:
                    self._record(key + "_rows", rows(*args))

        return wrapper

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        fingerprint = self._timed(
            "fingerprint",
            core_module.database_fingerprint,
            rows=lambda database: sum(len(r) for _, r in database.relations()),
        )
        for owner in (core_module, aio_module, sharding_module):
            self._patch(owner, "database_fingerprint", fingerprint)
        self._patch(
            core_module, "choose_strategy", self._timed("choose", core_module.choose_strategy)
        )
        self._patch(
            optimize_module,
            "optimize_plan",
            self._timed("optimize", optimize_module.optimize_plan),
        )
        self._patch(
            stats_module, "relation_stats", self._timed("stats", stats_module.relation_stats)
        )
        self._patch(sqlite_module, "sqlite3", _TimedSqlite(self))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class _TimedSqlite:
    """The ``sqlite3`` module as the SQLite backend sees it, with timed connections."""

    def __init__(self, probe: Probe):
        self._probe = probe

    def __getattr__(self, name: str) -> Any:
        return getattr(sqlite3, name)

    def connect(self, *args, **kwargs):
        connection = sqlite3.connect(*args, factory=_TimedConnection, **kwargs)
        connection.probe = self._probe
        return connection


class _TimedConnection(sqlite3.Connection):
    probe: Probe

    def executemany(self, sql, rows):
        start = time.perf_counter()
        try:
            return super().executemany(sql, rows)
        finally:
            self.probe._record("load_ms", (time.perf_counter() - start) * 1000.0)
            self.probe._record("load_rows", len(rows))

    def execute(self, sql, *params):
        if sql.lstrip().upper().startswith("CREATE"):
            return super().execute(sql, *params)
        start = time.perf_counter()
        try:
            rows = super().execute(sql, *params).fetchall()
        finally:
            self.probe._record("statement_ms", (time.perf_counter() - start) * 1000.0)
        self.probe._record("rows_out", len(rows))
        return _FetchedCursor(rows)


class _FetchedCursor:
    """A statement's rows, fetched inside the timed region."""

    def __init__(self, rows: list):
        self._rows = rows

    def fetchall(self) -> list:
        return self._rows


class SpanTotals:
    """Sums over the exported span trees of one traced phase."""

    def __init__(self) -> None:
        self.sums: dict[str, float] = defaultdict(float)

    def add(self, tree: dict, call_ms: float) -> None:
        """Fold in one evaluation's tree, timed at ``call_ms`` by the caller."""
        sums = self.sums
        sums["dispatch"] += call_ms - sum(c["wall_ms"] for c in tree.get("children", ()))
        # Worker subtrees carry no probe counters, so execution inside a
        # shard is left to sharding.shard_ms rather than split by backend.
        for node in _walk(tree, into_shards=False):
            name = node["name"]
            wall = node["wall_ms"]
            if name == "normalize":
                sums["normalize"] += wall
            elif name == "cache.lookup":
                inner = _subtree_counter(node, "fingerprint_ms")
                sums["lookup"] += wall - inner
                sums["lookups"] += 1
                sums["hits"] += node.get("attrs", {}).get("outcome") == "hit"
            elif name == "execute.sqlite":
                inner = sum(
                    _subtree_counter(node, key)
                    for key in ("load_ms", "statement_ms", "optimize_ms")
                )
                sums["sqlite_other"] += wall - inner
                if "error" not in node:
                    sums["sqlite_runs"] += 1
            elif name == "execute.interpreter":
                sums["interpreter"] += wall
                sums["interpreter_runs"] += 1
            elif name == "shard.plan":
                sums["shard_plan"] += wall
            elif name == "shard.merge":
                sums["shard_merge"] += wall
            elif name == "shard.fanout":
                slowest = max((c["wall_ms"] for c in node.get("children", ())), default=0.0)
                sums["shard_slowest"] += slowest
                sums["shard_dispatch"] += wall - slowest
                sums["retries"] += node.get("counters", {}).get("retries", 0)


def _walk(node: dict, *, into_shards: bool = True):
    yield node
    if into_shards or node["name"] != "shard.fanout":
        for child in node.get("children", ()):
            yield from _walk(child, into_shards=into_shards)


def _subtree_counter(node: dict, key: str) -> float:
    key = "perfbench." + key
    return sum(n.get("counters", {}).get(key, 0.0) for n in _walk(node))


def layer_metrics(
    *,
    reads: int,
    probe: Probe,
    spans: SpanTotals,
    sync_ms: list[float],
    async_ms: list[float],
    write_datamodel_ms: list[float],
    write_ms: list[float],
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` entry but the tracing overhead, unscaled.

    Means per read unless a count or ratio; a layer a workload never
    enters reads 0.
    """
    t, s = probe.totals, spans.sums
    per_read = 1.0 / max(reads, 1)
    executions = s["sqlite_runs"] + s["interpreter_runs"]

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def median(values: list[float]) -> float:
        ordered = sorted(values)
        if not ordered:
            return 0.0
        mid = len(ordered) // 2
        return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2

    return {
        "engine.normalize_ms": s["normalize"] * per_read,
        "engine.dispatch_ms": s["dispatch"] * per_read,
        "engine.sync_read_ms": mean(sync_ms),
        "engine.async_read_ms": mean(async_ms),
        "planner.choose_ms": t["choose_ms"] * per_read,
        "cache.fingerprint_ms": t["fingerprint_ms"] * per_read,
        "cache.fingerprint_rows": t["fingerprint_rows"] * per_read,
        "cache.lookup_ms": s["lookup"] * per_read,
        "cache.hit_ratio": s["hits"] / s["lookups"] if s["lookups"] else 0.0,
        "optimize.ms": t["optimize_ms"] * per_read,
        "optimize.calls": t["optimize_calls"] * per_read,
        "stats.ms": t["stats_ms"] * per_read,
        "sqlite.load_ms": t["load_ms"] * per_read,
        "sqlite.load_rows": t["load_rows"] * per_read,
        "sqlite.statement_ms": t["statement_ms"] * per_read,
        "sqlite.rows_out": t["rows_out"] * per_read,
        "sqlite.other_ms": s["sqlite_other"] * per_read,
        "interpreter.ms": s["interpreter"] * per_read,
        "exec.sqlite_share": s["sqlite_runs"] / executions if executions else 0.0,
        "sharding.plan_ms": s["shard_plan"] * per_read,
        "sharding.merge_ms": s["shard_merge"] * per_read,
        "sharding.shard_ms": s["shard_slowest"] * per_read,
        "sharding.dispatch_ms": s["shard_dispatch"] * per_read,
        "sharding.retries": s["retries"],
        "datamodel.write_ms": mean(write_datamodel_ms),
        "write.p50_ms": median(write_ms),
    }
