"""Tests of the benchmark itself: its checkers catch wrong answers, and it runs.

The checkers are the benchmark's only evidence that a fast answer is
also a right one, so each is fed a corrupted copy of a real engine
answer (a dropped row, an extra row, a null turned into a constant) and
must reject it.  The short mode runs every workload end to end.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import Engine, Null, Relation
from repro.workloads.tpch_lite import tpch_lite_queries

from perfbench.data import Updater, apply_update, chain_database, chain_query, tpch_database
from perfbench.reference import chain_reference, check_result, tpch_reference
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _with_rows(result, rows, *, side: str = "relation"):
    relation = getattr(result, side)
    return replace(result, **{side: Relation(relation.attributes, rows)})


def _corruptions(result, side: str = "relation"):
    """(label, corrupted result) for a dropped row, an extra row, a null made constant."""
    rows = list(getattr(result, side).iter_rows_bag())
    assert rows, "corrupting an empty answer would test nothing"
    arity = len(rows[0])
    yield "dropped row", _with_rows(result, rows[1:], side=side)
    yield "extra row", _with_rows(result, rows + [("perfbench-extra",) * arity], side=side)
    with_null = [i for i, row in enumerate(rows) if any(isinstance(v, Null) for v in row)]
    if with_null:
        i = with_null[0]
        constant = tuple(f"const-{v.label}" if isinstance(v, Null) else v for v in rows[i])
        yield "null made constant", _with_rows(result, rows[:i] + [constant] + rows[i + 1:], side=side)


@pytest.fixture(scope="module")
def engine():
    with Engine() as engine:
        yield engine


@pytest.mark.parametrize("semantics", ["set", "bag"])
def test_chain_checker_rejects_corrupted_naive_answers(engine, semantics):
    database = chain_database(300, seed=3)
    reference = chain_reference(database)
    result = engine.evaluate(chain_query(), database, use_cache=False, semantics=semantics)
    assert check_result(result, reference) is None
    labels = []
    for label, corrupted in _corruptions(result):
        assert check_result(corrupted, reference) is not None, label
        labels.append(label)
    assert "null made constant" in labels


@pytest.mark.parametrize("name", sorted(tpch_lite_queries()))
@pytest.mark.parametrize("semantics", ["set", "bag"])
def test_tpch_checker_rejects_corrupted_naive_answers(engine, name, semantics):
    database = tpch_database(3, seed=5)
    reference = tpch_reference(name, database)
    query = tpch_lite_queries()[name]
    result = engine.evaluate(query, database, strategy="naive", semantics=semantics)
    assert check_result(result, reference) is None
    if not reference:
        pytest.skip("empty answer on this instance")
    for label, corrupted in _corruptions(result):
        assert check_result(corrupted, reference) is not None, label


def test_sound_answer_checker_rejects_rows_outside_naive_and_possible(engine):
    database = tpch_database(3, seed=5)
    query = tpch_lite_queries()["q_join"]
    result = engine.evaluate(query, database, strategy="approx-guagliardo16")
    reference = tpch_reference("q_join", database)
    assert result.strategy == "approx-guagliardo16" and result.possible is not None
    assert check_result(result, reference) is None
    rows = list(result.relation.iter_rows_bag())
    outside = rows + [("perfbench-extra",) * len(rows[0])]
    assert check_result(_with_rows(result, outside), reference) is not None
    # A certain row the strategy does not even call possible.
    certain_only = replace(result, possible=Relation(result.possible.attributes, rows[1:]))
    assert check_result(certain_only, reference) is not None


def test_rw_reference_follows_every_write(engine):
    database = tpch_database(3, seed=5)
    updater = Updater(5)
    for cycle in range(6):
        database = apply_update(database, *updater.plan(database, cycle))
        for name, query in tpch_lite_queries().items():
            result = engine.evaluate(query, database, strategy="naive", semantics="bag")
            assert check_result(result, tpch_reference(name, database)) is None


def test_workload_counts_a_corrupted_answer_as_wrong():
    workload = WORKLOADS["chain-cold"](short=True)
    workload.setup(seed=2)
    try:
        workload.prepare()
        for op in workload.round(trace=False):
            op.run()
        good = workload.results[0]
        _, corrupted = next(_corruptions(good))
        workload.results.append(corrupted)
        assert workload.check() == 1
        assert workload.failures
    finally:
        workload.close()


def _run(args, cwd: Path, timeout: float = 300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_short_mode_runs_every_workload_with_no_failures():
    done = _run(["--short", "--seed", "4"], ROOT)
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {r["workload"] for r in results} == set(WORKLOADS)
    assert len(results) == 2 * len(WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) in (end_to_end, per_layer)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "chain-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path, timeout=120)
    assert done.returncode != 0
    assert not done.stdout.strip()
