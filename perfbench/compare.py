"""Compare two result files of ``repeat.py`` against the bounds in BENCHMARK.json.

::

    python3 perfbench/repeat.py --runs 10 --out old.json   # on the parent commit
    python3 perfbench/repeat.py --runs 10 --out new.json   # on the change
    python3 perfbench/compare.py old.json new.json

For every workload and metric it prints both medians, the change as a
share of the old median (positive = worse, whatever the metric's
direction), both spreads, and a verdict:

* ``worse``: the new median is worse than the old by more than the bound;
* ``unresolved``: within the bound, but the old runs' own spread is wider
  than the bound, so "no change" is not shown;
* ``better`` / ``same``: better than the old median by more than its
  spread, or neither of the above.

Per-layer metrics (``--trace`` runs) have no bound and are listed with
their change only.  The exit code is 1 if any metric is ``worse`` or the
share of failed operations differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repeat import load_spec, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args()
    old = json.loads(Path(args.old).read_text(encoding="utf-8"))
    new = json.loads(Path(args.new).read_text(encoding="utf-8"))
    spec = load_spec()
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressed = False
    for workload in old:
        if workload not in new:
            print(f"\n{workload}: missing from {args.new}")
            regressed = True
            continue
        a, b = old[workload], new[workload]
        share_a = sum(a["failed"]) / sum(a["attempted"])
        share_b = sum(b["failed"]) / sum(b["attempted"])
        print(f"\n{workload}: failed share {share_a:.4%} -> {share_b:.4%}")
        if share_a != share_b:
            regressed = True
        print(f"  {'metric':26} {'old':>11} {'new':>11} {'change':>8} "
              f"{'spread':>13} {'bound':>6}  verdict")
        for name, old_values in a["metrics"].items():
            if name not in b["metrics"] or name not in declared:
                continue
            metric = declared[name]
            m_old, _, _, s_old = summary(old_values)
            m_new, _, _, s_new = summary(b["metrics"][name])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (m_new - m_old) / m_old if m_old else 0.0
            bound = metric.get("bound")
            if bound is None:
                verdict, shown = "", "     -"
            else:
                shown = f"{bound:6.2f}"
                if change > bound:
                    verdict, regressed = "worse", True
                elif s_old > bound:
                    verdict = "unresolved"
                elif change < -s_old:
                    verdict = "better"
                else:
                    verdict = "same"
            print(f"  {name:26} {m_old:11.4f} {m_new:11.4f} {change:+8.1%} "
                  f"{s_old:6.3f}/{s_new:6.3f} {shown}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
