"""Steadiness: run the same code N times per workload and show the spread.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 --out .perfbench_out/parent
    python3 perfbench/steady.py --runs 5 --workloads group_fanout

Each run is its own process (``perfbench/run.py``), seeds 1 to N, each
``run_seconds`` long as ``BENCHMARK.json`` sets it; workloads take turns so that slow spells of the host spread over all of
them.  Every run's result is saved as ``<out>/<workload>-seed<n>.json``
(the input of ``compare.py``), and the table gives each end-to-end
metric's median, quartiles and spread — the distance between the
quartiles as a share of the median — against the bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in its own process; returns its parsed output."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return {"workload": workload, "seed": seed,
            "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``, quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def summarize(records: list[dict], bench: dict) -> list[str]:
    lines = [f"{'workload':<14} {'metric':<22} {'median':>12} {'q1':>12} "
             f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict"]
    by_workload: dict[str, list[dict]] = {}
    for record in records:
        by_workload.setdefault(record["workload"], []).append(record)
    for workload, runs in by_workload.items():
        failed = {r["result"]["failed"] / r["result"]["attempted"]
                  for r in runs}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            bound = metric["bound"]
            verdict = ("steady" if share < bound / 3
                       else "within bound" if share <= bound else "TOO WIDE")
            lines.append(f"{workload:<14} {name:<22} {median:>12.5g} "
                         f"{q1:>12.5g} {q3:>12.5g} {share:>7.3f} "
                         f"{bound:>6.2f}  {verdict}")
        lines.append(f"{workload:<14} {'failed share':<22} "
                     f"{', '.join(f'{f:.4f}' for f in sorted(failed))}"
                     f"  over {len(runs)} runs")
    return lines


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=".perfbench_out/steady")
    args = parser.parse_args(argv)
    out = ROOT / args.out
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for seed in range(1, args.runs + 1):
        for workload in args.workloads.split(","):
            record = run_once(workload, seed, bench["run_seconds"])
            path = out / f"{workload}-seed{seed}.json"
            path.write_text(json.dumps(record, indent=1) + "\n",
                            encoding="utf-8")
            records.append(record)
            print(f"ran {workload} seed {seed}: "
                  f"failed {record['result']['failed']}/"
                  f"{record['result']['attempted']}", flush=True)
    print("\n".join(summarize(records, bench)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
