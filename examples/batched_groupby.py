"""Profile a high-cardinality group-by against a per-group scalar solve.

Builds a Druid-style engine with a few thousand pre-aggregated cells,
answers a groupBy-p99 query through the query service (the batched
estimation layer: one stacked max-entropy solve for every group), and
prints its Eq. 2 phase decomposition.  It then fits every group's
merged sketch with a scalar ``QuantileEstimator.fit`` loop, the
per-group plan the batching replaces, and prints that solve time and
the largest relative difference between the two answers.  The solve
phase — the dominant term at high cardinality — is where batching pays.

Run with::

    PYTHONPATH=src python examples/batched_groupby.py
"""

import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.api import QueryService, QuerySpec, qkey  # noqa: E402
from repro.core import QuantileEstimator  # noqa: E402
from repro.druid import DruidEngine, MomentsSketchAggregator  # noqa: E402

NUM_GROUPS = 600
ROWS_PER_GROUP = 120


def main() -> None:
    rng = np.random.default_rng(7)
    n = NUM_GROUPS * ROWS_PER_GROUP
    values = rng.lognormal(1.0, 1.0, n)
    service_ids = np.repeat(np.arange(NUM_GROUPS), ROWS_PER_GROUP)
    timestamps = rng.uniform(0.0, 4 * 3600.0, n)

    engine = DruidEngine(dimensions=("service",),
                         aggregators={"latency": MomentsSketchAggregator(k=10)},
                         granularity=3600.0)
    engine.ingest(timestamps, [service_ids], values)
    print(f"druid engine: {engine.num_cells} cells, {NUM_GROUPS} groups")

    spec = QuerySpec(kind="group_by", quantiles=(0.99,), measure="latency",
                     group_dimension="service")
    service = QueryService(druid=engine)
    service.execute(spec)  # warm caches so the comparison is fair
    start = time.perf_counter()
    response = service.execute(spec)
    wall = time.perf_counter() - start
    timings = response.timings
    print(f" batched: wall={wall:.3f}s merge={timings.merge_seconds:.3f}s "
          f"solve={timings.solve_seconds:.3f}s "
          f"(route={timings.solve_route}, solve_calls={timings.solve_calls})")

    sketches = {value: state.summary.sketch for value, state
                in engine.group_states("latency", "service").items()}
    start = time.perf_counter()
    scalar = {value: QuantileEstimator.fit(sketch, allow_backoff=True)
              .quantile(0.99) for value, sketch in sketches.items()}
    print(f"  scalar: solve={time.perf_counter() - start:.3f}s "
          f"({len(scalar)} QuantileEstimator.fit calls)")

    key = qkey(0.99)
    drift = max(abs(response.groups[g][key] - scalar[g]) / abs(scalar[g])
                for g in scalar)
    print(f"max relative p99 difference between paths: {drift:.2e} "
          "(contract: <= 1e-6)")

if __name__ == "__main__":
    main()
