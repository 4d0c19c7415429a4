"""Run one workload of the repository benchmark and print its metrics.

::

    python3 perfbench/run.py --workload chain-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --short        # every workload, briefly, small inputs

One process, one client, closed loop: the next operation starts when
the previous one returns.  The run sets the workload up five times
(four throw-away set-ups on other seeds, then the real one) and reports
the median set-up time, then runs whole rounds of operations for
``--seconds`` seconds, checking each round's answers against the
independent reference (``reference.py``) between rounds.  All of its
times are scaled to the reference machine speed (``machine.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` rounds alternate
between untraced and traced, and the metrics are the per-layer ones
(:mod:`perfbench.layers`) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
#: Peak RSS is read after this many rounds (or at the end of a shorter run),
#: so it does not grow with the number of rounds a faster machine completes.
RSS_ROUNDS = 20
#: Operation time between two calibration samples.
KERNEL_EVERY_MS = 150.0


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; fail if it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _set_up(cls, seed: int, short: bool):
    """Set up ``SETUPS`` times; returns the last workload and the median set-up time.

    The throw-away set-ups use other seeds, so no memo filled by one can
    make the next look cheap.  Each set-up is scaled by the kernel
    samples taken just before and after it.
    """
    from perfbench.machine import Timeline

    line = Timeline(every_ms=0.0)
    setups: list[tuple[float, int]] = []
    for attempt in range(SETUPS):
        line.sample()
        line.sample()
        workload = cls(short=short)
        start = time.perf_counter()
        workload.setup(seed if attempt == SETUPS - 1 else seed + 7919 * (attempt + 1))
        setups.append((time.perf_counter() - start, len(line.samples)))
        if attempt < SETUPS - 1:
            workload.close()
    line.sample()
    line.sample()
    scaled = statistics.median(t * line.factor(position) for t, position in setups)
    return workload, scaled, statistics.median(t for t, _ in setups)


def run(workload_name: str, seed: int, seconds: float, trace: bool, *, short: bool = False) -> dict:
    from perfbench.layers import LAYER_METRICS, Probe, SpanTotals, layer_metrics
    from perfbench.machine import Timeline, peak_rss_mb
    from perfbench.workloads import WORKLOADS

    workload, setup_s, raw_setup_s = _set_up(WORKLOADS[workload_name], seed, short)
    workload.prepare()

    # -- timed phase: whole rounds ------------------------------------------
    line = Timeline(every_ms=KERNEL_EVERY_MS)
    reads: dict[bool, list[tuple[float, int]]] = {False: [], True: []}
    writes: list[float] = []
    sync_ms: list[float] = []
    async_ms: list[float] = []
    write_datamodel_ms: list[float] = []
    round_ops: list[list[tuple[float, int]]] = []
    probe, spans = Probe(), SpanTotals()
    attempted = errors = wrong = rounds = 0
    rss = None
    elapsed = 0.0
    deadline = time.perf_counter() + seconds
    try:
        while rounds < 1 + trace or time.perf_counter() < deadline:
            traced = trace and rounds % 2 == 1
            ops = workload.round(traced)
            timings: list[tuple[float, int]] = []
            if traced:
                probe.install()
            try:
                for op in ops:
                    position = line.tick(elapsed)
                    attempted += 1
                    start = time.perf_counter()
                    try:
                        out = op.run()
                    except Exception as exc:  # an operation that raises is a failed one
                        errors += 1
                        elapsed = (time.perf_counter() - start) * 1000.0
                        print(f"perfbench: {op.kind} failed: {exc!r}", file=sys.stderr)
                        continue
                    elapsed = (time.perf_counter() - start) * 1000.0
                    timings.append((elapsed, position))
                    if op.kind == "write":
                        writes.append(elapsed)
                        if traced:
                            write_datamodel_ms.append(out)
                        continue
                    reads[traced].append((elapsed, position))
                    if traced:
                        (async_ms if op.kind == "async_read" else sync_ms).append(elapsed)
                        spans.add(out.metadata["trace"], elapsed)
            finally:
                if traced:
                    probe.uninstall()
            wrong += workload.check()
            rounds += 1
            round_ops.append(timings)
            if rounds == RSS_ROUNDS:
                rss = peak_rss_mb()
        for _ in range(3):
            line.sample()
        if rss is None:
            rss = peak_rss_mb()
    finally:
        workload.close()

    def scaled(samples: list[tuple[float, int]]) -> list[float]:
        return [ms * line.factor(position) for ms, position in samples]

    untraced = scaled(reads[False])
    rates = [len(t) / (sum(scaled(t)) / 1000.0) for t in round_ops if t]
    raw = [ms for ms, _ in reads[False]]
    print(
        f"perfbench: {workload_name} seed={seed} rounds={rounds} reads={len(raw)} "
        f"kernel_ms={statistics.median(line.samples):.3f}/{len(line.samples)} "
        f"raw_read_p50_ms={statistics.median(raw):.4f} "
        f"raw_read_p90_ms={_p90(raw):.4f} "
        f"raw_setup_s={raw_setup_s:.4f}"
    )
    for reason in workload.failures:
        print(f"perfbench: wrong answer: {reason}", file=sys.stderr)

    if trace:
        factor = line.overall
        values = layer_metrics(
            reads=len(reads[True]),
            probe=probe,
            spans=spans,
            sync_ms=sync_ms,
            async_ms=async_ms,
            write_datamodel_ms=write_datamodel_ms,
            write_ms=writes,
        )
        values = {k: v * factor if LAYER_METRICS[k] == "ms" else v for k, v in values.items()}
        values["obs.trace_overhead_ms"] = statistics.median(
            scaled(reads[True])
        ) - statistics.median(untraced)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()
        }
    else:
        metrics = {
            "read_p50_ms": {"value": statistics.median(untraced), "unit": "ms"},
            "read_p90_ms": {"value": _p90(untraced), "unit": "ms"},
            "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": errors + wrong,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short",
        action="store_true",
        help="run every workload on small inputs for about a second each",
    )
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.workloads import WORKLOADS

    if args.short:
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                result = run(name, args.seed, 0.5, trace, short=True)
                print(json.dumps({"workload": name, **result}))
                ok = ok and result["correct"] and result["failed"] == 0
        return 0 if ok else 1
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
