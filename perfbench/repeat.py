"""Run the benchmark N times per workload and print each metric's spread.

::

    python3 perfbench/repeat.py --runs 10 --out old.json
    python3 perfbench/repeat.py --runs 5 --workloads tpch-rw --first-seed 11
    python3 perfbench/repeat.py --runs 10 --trace --out traced.json

Run ``i`` of every workload uses seed ``first_seed + i``; the runs are
interleaved across workloads, so a slow minute of the machine is shared
out rather than landing on one workload.  For each metric the table
shows the median and quartiles (``statistics.quantiles(n=4)``) and the
spread, (Q3 - Q1) / median, beside the metric's bound from
``BENCHMARK.json``.  ``--trace`` adds a traced run after each untraced
one, so the result file holds the per-layer metrics beside the
end-to-end ones.  The result file is the input of ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, spread)`` with spread = (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def print_table(results: dict, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, entry in results.items():
        attempted, failed = sum(entry["attempted"]), sum(entry["failed"])
        print(f"\n{workload}: {len(entry['attempted'])} runs, {failed}/{attempted} failed, "
              f"correct={all(entry['correct'])}")
        print(f"  {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for name, values in entry["metrics"].items():
            median, q1, q3, spread = summary(values)
            bound = bounds.get(name)
            flag = "" if bound is None else f"{bound:6.2f}" + (" !" if spread > bound else "")
            print(f"  {name:26} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f} {flag}")


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also make traced runs")
    parser.add_argument("--out", help="write every run's numbers to this JSON file")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    results: dict = {
        w: {"attempted": [], "failed": [], "correct": [], "metrics": {}} for w in workloads
    }
    for i in range(args.runs):
        for workload in workloads:
            for trace in (False, True) if args.trace else (False,):
                result = run_once(workload, args.first_seed + i, args.seconds, trace)
                entry = results[workload]
                if not trace:
                    entry["attempted"].append(result["attempted"])
                    entry["failed"].append(result["failed"])
                    entry["correct"].append(result["correct"])
                for name, metric in result["metrics"].items():
                    entry["metrics"].setdefault(name, []).append(metric["value"])
                print(f"run {i + 1}/{args.runs} {workload} trace={int(trace)}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                                  if not trace or k.endswith("_ms")),
                      flush=True)
    print_table(results, spec)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
