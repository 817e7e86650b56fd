#!/usr/bin/env python3
"""Compare two result files of ``run.py`` against the benchmark's bounds.

    python benchmarks/e2e/run.py --runs 10 --out A.json      # parent
    python benchmarks/e2e/run.py --runs 10 --out B.json      # change
    python benchmarks/e2e/compare.py A.json B.json

For every workload x end-to-end metric it prints both medians, both
inter-quartile ranges as a share of the median, the relative change in
the metric's "worse" direction, and a verdict against the bound in
``BENCHMARK.json``:

- ``ok``          B's median is not worse than A's by more than the bound;
- ``worse``       it is, and both spreads are inside the bound;
- ``unresolved``  a spread (quartile distance over median) is wider than
                  the bound, so the bound cannot be read either way.

Exit code 1 when any row is ``worse``, 0 otherwise.  With one file it
prints that file's medians and spreads only.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict

from measure import quartiles

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values of the untraced runs in *path*."""
    with open(path) as handle:
        results = json.load(handle)
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for run in results["runs"]:
        if not run["trace"]:
            for metric, cell in run["metrics"].items():
                values[run["workload"], metric].append(cell["value"])
    return values


def summary(values: list[float]) -> tuple[float, float]:
    """(median, quartile distance as a share of the median)."""
    q1, middle, q3 = quartiles(values)
    return middle, (q3 - q1) / middle


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    sides = [load(path) for path in argv]
    worse = 0
    print(f"{'workload':<16}{'metric':<20}{'median A':>12}{'iqr A':>8}"
          + (f"{'median B':>12}{'iqr B':>8}{'change':>9}  verdict" if len(sides) == 2 else ""))
    for workload in (w["name"] for w in manifest["workloads"]):
        for metric in manifest["end_to_end"]:
            key = (workload, metric["name"])
            if any(key not in side for side in sides):
                continue
            a_median, a_spread = summary(sides[0][key])
            row = f"{workload:<16}{metric['name']:<20}{a_median:>12.4g}{a_spread:>8.1%}"
            if len(sides) == 2:
                b_median, b_spread = summary(sides[1][key])
                change = (b_median - a_median) / a_median
                if metric["better"] == "higher":
                    change = -change
                if max(a_spread, b_spread) > metric["bound"]:
                    verdict = "unresolved"
                elif change > metric["bound"]:
                    verdict = "worse"
                    worse += 1
                else:
                    verdict = "ok"
                row += f"{b_median:>12.4g}{b_spread:>8.1%}{change:>+9.1%}  {verdict}"
            print(row)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
