"""Batched vs per-sketch max-entropy group solves (repro.core.batch_solver).

Measures what the batched estimation layer buys on the paper's dominant
high-cardinality cost (Figure 5 / Section 5.2): a group-by over N packed
cells solved by :class:`~repro.api.QueryService` (one stacked solve for
all groups) against a loop of N scalar ``QuantileEstimator.fit`` calls
over the same group sketches.  The run also checks the service against
the scalar primitives:

* quantile estimates within 1e-6 (relative) of a fresh per-group
  ``MomentsSummary.quantiles``,
* top-N rankings equal to sorting those scalar estimates,
* threshold counts *and per-group deciding stages* equal to a per-group
  ``ThresholdCascade.evaluate``,
* the batched solve reported once (``solve_calls == 1``), not per cell.

Usage::

    python benchmarks/bench_group_solve.py                   # gate at 1024
    python benchmarks/bench_group_solve.py --quick           # CI smoke
    python benchmarks/bench_group_solve.py --full            # adds N=4096
    python benchmarks/bench_group_solve.py --require-speedup 3

Exits non-zero when the gate size misses the required speedup or any
decision/estimate check fails.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

# Allow running as a plain script from any working directory.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.api import PackedStoreBackend, QueryService, QuerySpec, qkey  # noqa: E402
from repro.core import QuantileEstimator  # noqa: E402
from repro.core.cascade import ThresholdCascade  # noqa: E402
from repro.workload import build_packed_cells, run_group_query  # noqa: E402

CELL_SIZE = 200
GATE_CELLS = 1024


def _backend(cells, n):
    keys = [(int(i),) for i in range(cells.num_cells)]
    return PackedStoreBackend(cells.store, keys=keys, dimensions=("cell",),
                              config=cells.config, rows=np.arange(n))


def _group_summaries(cells, n) -> dict:
    spec = QuerySpec(kind="group_by", group_dimension="cell")
    return _backend(cells, n).group_rollup(spec).groups


def scalar_solve_seconds(cells, n: int, q: float = 0.99) -> float:
    """One scalar ``QuantileEstimator.fit`` per group, as the summaries'
    own estimation path runs it."""
    sketches = [summary.sketch
                for summary in _group_summaries(cells, n).values()]
    start = time.perf_counter()
    for sketch in sketches:
        QuantileEstimator.fit(sketch, config=cells.config,
                              allow_backoff=True).quantile(q)
    return time.perf_counter() - start


def check_decisions(cells, n: int) -> list[str]:
    """The service's group answers against the scalar primitives."""
    failures: list[str] = []
    service = QueryService(cells=_backend(cells, n))
    # Fresh copies: the service seeds the summaries it solves with the
    # batch's estimators, so reading those back would compare the batch
    # with itself.
    summaries = _group_summaries(cells, n)

    qs = (0.5, 0.99)
    group = QuerySpec(kind="group_by", quantiles=qs, group_dimension="cell")
    response = service.execute(group)
    if response.timings.solve_route != "batched" \
            or response.timings.solve_calls != 1:
        failures.append(
            f"group_by must report one batched solve, got route="
            f"{response.timings.solve_route!r} "
            f"calls={response.timings.solve_calls}")
    scalar = {g: summary.copy().quantiles(qs)
              for g, summary in summaries.items()}
    if set(response.groups) != set(scalar):
        failures.append("group_by returned a different group set")
    rel = max(abs(response.groups[g][qkey(q)] - estimates[i])
              / max(abs(estimates[i]), 1e-300)
              for g, estimates in scalar.items()
              for i, q in enumerate(qs))
    if rel > 1e-6:
        failures.append(f"group_by estimates diverge: rel err {rel:.3g} > 1e-6")

    top = QuerySpec(kind="top_n", quantiles=(0.99,), n=10,
                    group_dimension="cell")
    ranking = sorted(scalar, key=lambda g: scalar[g][1], reverse=True)
    if [value for value, _ in service.execute(top).top] != ranking[:10]:
        failures.append("top_n ranking differs from sorted scalar estimates")

    cascade = ThresholdCascade(config=service.config)
    data = cells.data[: n * CELL_SIZE]
    for t in np.quantile(data, (0.5, 0.95, 0.999)):
        t = float(t)
        spec = QuerySpec(kind="threshold_count", quantiles=(0.99,),
                         thresholds=(t,), group_dimension="cell")
        response = service.execute(spec)
        outcomes = {g: cascade.evaluate(summary.sketch, t, 0.99)
                    for g, summary in summaries.items()}
        count = sum(outcome.result for outcome in outcomes.values())
        if response.value != count:
            failures.append(f"threshold count differs at t={t:.4g}: "
                            f"{response.value} vs {count}")
        stages = {g: o[qkey(t)]["stage"] for g, o in response.groups.items()}
        if stages != {g: o.stage for g, o in outcomes.items()}:
            failures.append(f"cascade deciding stages differ at t={t:.4g}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: N=256 and the 1024-cell gate only")
    parser.add_argument("--full", action="store_true",
                        help="also run N=64 and N=4096")
    parser.add_argument("--require-speedup", type=float, default=3.0,
                        help="minimum batched-vs-scalar-fit speedup at "
                             f"{GATE_CELLS} cells (default 3)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed runs per (size, path); the best run "
                             "counts, shielding the gate from transient "
                             "scheduler noise on shared CI runners")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.full:
        sizes = (64, 256, 1024, 4096)
    elif args.quick:
        sizes = (256, 1024)
    else:
        sizes = (64, 256, 1024)
    rng = np.random.default_rng(args.seed)
    data = rng.lognormal(1.0, 1.0, max(sizes) * CELL_SIZE)
    cells = build_packed_cells(data, cell_size=CELL_SIZE, k=10)
    # Warm both paths (grid/coefficient caches) before timing.
    run_group_query(cells, q=0.99, num_cells=64)
    scalar_solve_seconds(cells, 64)

    print(f"{'cells':>6} {'batched_s':>10} {'scalar_s':>10} {'speedup':>8} "
          f"{'solve_calls':>12}")
    gate_speedup = None
    repeats = max(args.repeats, 1)
    for n in sizes:
        # Alternate the two paths so host drift hits both alike.
        runs = [(run_group_query(cells, q=0.99, num_cells=n),
                 scalar_solve_seconds(cells, n)) for _ in range(repeats)]
        batched = min((run for run, _ in runs), key=lambda t: t.solve_seconds)
        scalar_seconds = min(seconds for _, seconds in runs)
        speedup = (scalar_seconds / batched.solve_seconds
                   if batched.solve_seconds else float("inf"))
        if n == GATE_CELLS:
            gate_speedup = speedup
        print(f"{n:>6} {batched.solve_seconds:>10.4f} "
              f"{scalar_seconds:>10.4f} {speedup:>7.2f}x "
              f"{batched.solve_calls:>12}")

    failures = check_decisions(cells, min(256, max(sizes)))
    if gate_speedup is not None and gate_speedup < args.require_speedup:
        failures.append(
            f"batched group solve at {GATE_CELLS} cells is only "
            f"{gate_speedup:.2f}x the scalar fit loop "
            f"(required >= {args.require_speedup}x)")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"OK: >= {args.require_speedup}x at {GATE_CELLS} cells; "
          "decisions equal the scalar cascade; estimates within 1e-6")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
