"""Compare two sets of result files: a parent commit against a change.

Usage, from the repository root::

    python3 perfbench/compare.py .perfbench_out/parent .perfbench_out/change

Each directory holds the ``<workload>-seed<n>.json`` files that
``steady.py`` writes.  Runs pair up by workload and seed.  One row per
workload and end-to-end metric gives each side's median and quartiles,
the pairs the change won (ties count for neither side) and a verdict:

* ``gain``: the change won at least 9 of every 10 pairs, and its median
  is better than the parent's by more than the parent's quartile spread;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's own spread is wider than the bound, and
  not every run of the change reads better than every run of the parent;
* ``same`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from steady import load_benchmark, spread


def load(directory: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs[(record["workload"], record["seed"])] = record
    return runs


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int, int]:
    """``(verdict, pairs won by the change, pairs)`` for paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = len(parent)
    p_median, p_q1, p_q3, _ = spread(parent)
    c_median = statistics.median(change)
    gap = sign * (c_median - p_median)          # > 0: the change is better
    if won >= 0.9 * pairs and gap > p_q3 - p_q1:
        return "gain", won, pairs
    if -gap > bound * abs(p_median):
        return "regression", won, pairs
    all_better = (min(sign * c for c in change)
                  > max(sign * p for p in parent))
    if (p_q3 - p_q1) > bound * abs(p_median) and not all_better:
        return "unresolved", won, pairs
    return "same", won, pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    parent, change = load(args.parent), load(args.change)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("compare: no workload/seed appears in both sets",
              file=sys.stderr)
        return 2
    workloads = sorted({workload for workload, _ in keys})
    print(f"{'workload':<14} {'metric':<22} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'won':>7}  verdict")
    regressions = 0
    for workload in workloads:
        seeds = [seed for w, seed in keys if w == workload]
        if len(seeds) < 2:
            print(f"{workload:<14} needs at least two paired runs")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            sides = []
            for runs in (parent, change):
                values = [runs[(workload, s)]["result"]["metrics"][name]["value"]
                          for s in seeds]
                median, q1, q3, _ = spread(values)
                sides.append((values, f"{median:.5g} [{q1:.5g}, {q3:.5g}]"))
            outcome, won, pairs = verdict(sides[0][0], sides[1][0],
                                          metric["better"], metric["bound"])
            regressions += outcome == "regression"
            print(f"{workload:<14} {name:<22} {sides[0][1]:<34} "
                  f"{sides[1][1]:<34} {won:>3}/{pairs:<3}  {outcome}")
        for side, runs in (("parent", parent), ("change", change)):
            failed = sum(runs[(workload, s)]["result"]["failed"] for s in seeds)
            attempted = sum(runs[(workload, s)]["result"]["attempted"]
                            for s in seeds)
            print(f"{workload:<14} failed ({side}): {failed}/{attempted}")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
