"""ingest_mixed: writes beside reads on a replicated cluster with the optimizer.

A 2-node cluster (every shard on both nodes) with the multi-query
optimizer on.  Micro-batched flushes from a few producers alternate with
Zipf-repeated queries from a fixed pool, and each flush invalidates the
shards it touched.  This is the only workload that runs the cluster
write and scatter paths and the optimizer cache, so a read-side gain
that costs the write side, or the reverse, shows here.
"""

from __future__ import annotations

import os

import numpy as np

from data import Rows, zipf_choice, zipf_weights
from exact import check_bounds, check_quantiles, check_top_n

from repro.api import QueryService, QuerySpec, qkey
from repro.cluster import ClusterBackend, ClusterCoordinator
from repro.druid import MomentsSketchAggregator
from repro.ingest import IngestSession
from repro.optimizer import Optimizer

DIMENSIONS = ("tenant", "endpoint")
TENANTS = 200
ENDPOINTS = 30
ENDPOINTS_PER_TENANT = 3
TENANT_ZIPF_S = 1.1
NODES = ("node-0", "node-1")
SHARDS = 16
REPLICATION = 2
GRANULARITY = 3600.0
HOURS = 2
BASE_ROWS = 30_000
BASE_FLUSH_ROWS = 5_000
#: A flush carries FLUSH_ROWS rows from FLUSH_PRODUCERS tenants.
FLUSH_ROWS = 500
FLUSH_PRODUCERS = 3
#: One round: FLUSHES_PER_ROUND blocks, each one flush and then, in
#: seeded order, the dashboard's group_by and top_n (every flush
#: invalidates both), a repeat of one of them, and
#: POINT_QUERIES_PER_FLUSH distinct Zipf-picked filtered queries.  The fixed share of heavy group scans
#: keeps p50 and p90 away from the boundary between kinds.
FLUSHES_PER_ROUND = 4
POINT_QUERIES_PER_FLUSH = 4
POOL_ZIPF_S = 1.1
QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)
#: Tenants (most active first) that the query pool filters on.
POOL_TENANTS = 8
#: One optimizer-served answer in this many is re-run cold and compared.
COLD_SAMPLE = 4


def broker_threads() -> int:
    """The broker's fan-out threads: at most the CPUs this process may use."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


class Population:
    def __init__(self, rng: np.random.Generator):
        # Log-means within 0.6 of each other and log-sds of at least 0.5:
        # any merge of tenants stays unimodal in log space.
        self.mu = rng.uniform(2.6, 3.2, TENANTS)
        self.sigma = rng.uniform(0.5, 0.8, TENANTS)
        # Tenant t calls endpoints 3t, 3t+1, 3t+2 (mod ENDPOINTS): each
        # endpoint serves one of the ten busiest tenants, so every group
        # holds hundreds of rows.  On a handful of rows one row is a
        # large share of rank, and no estimate can meet Eq. 1's epsilon.
        self.endpoints = (
            np.arange(TENANTS)[:, None] * ENDPOINTS_PER_TENANT
            + np.arange(ENDPOINTS_PER_TENANT)[None, :]) % ENDPOINTS

    def rows(self, rng: np.random.Generator, tenant: np.ndarray):
        n = tenant.size
        endpoint = self.endpoints[tenant,
                                  rng.integers(0, ENDPOINTS_PER_TENANT, n)]
        values = rng.lognormal(self.mu[tenant], self.sigma[tenant])
        timestamps = rng.uniform(0.0, HOURS * GRANULARITY, n)
        return values, [tenant, endpoint], timestamps


class IngestMixed:
    name = "ingest_mixed"

    def __init__(self, seed: int, workdir):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.population = Population(rng)
        self.base = self.population.rows(
            rng, zipf_choice(rng, TENANTS, TENANT_ZIPF_S, BASE_ROWS))
        self.backend = None

    def setup(self):
        """Load the base rows, one step per appended chunk."""
        coordinator = ClusterCoordinator(
            dimensions=DIMENSIONS,
            aggregators={"latency": MomentsSketchAggregator(k=10)},
            num_shards=SHARDS, replication=REPLICATION,
            granularity=GRANULARITY, nodes=NODES)
        session = IngestSession(coordinator, flush_rows=BASE_FLUSH_ROWS)
        values, dims, timestamps = self.base
        for lo in range(0, values.size, BASE_FLUSH_ROWS):
            hi = lo + BASE_FLUSH_ROWS
            session.append_columns(values[lo:hi],
                                   dims=[d[lo:hi] for d in dims],
                                   timestamps=timestamps[lo:hi])
            yield
        session.flush()
        self.coordinator = coordinator
        self.session = session
        self.backend = ClusterBackend(coordinator, threads=broker_threads())
        self.optimizer = Optimizer()
        self.service = QueryService(cluster=self.backend,
                                    optimizer=self.optimizer)

    def after_setup(self) -> None:
        values, dims, _ = self.base
        self.rows = Rows(DIMENSIONS)
        self.rows.append(values, dims)
        self.cold = QueryService(cluster=self.backend)
        self.pool = self._pool(dims[0])

    def _pool(self, tenants: np.ndarray) -> list[QuerySpec]:
        """Distinct specs, hottest first: dashboards re-issue these."""
        counts = np.bincount(tenants, minlength=TENANTS)
        hot = [int(t) for t in np.argsort(-counts, kind="stable")[:POOL_TENANTS]]
        pool = [
            QuerySpec(kind="group_by", quantiles=QUANTILES,
                      group_dimension="endpoint"),
            QuerySpec(kind="top_n", quantiles=(0.99,), n=5,
                      group_dimension="endpoint"),
        ]
        for tenant in hot:
            endpoint = int(self.population.endpoints[tenant, 0])
            pool.append(QuerySpec(kind="quantile", quantiles=QUANTILES,
                                  filters={"tenant": tenant,
                                           "endpoint": endpoint}))
            pool.append(QuerySpec(kind="quantile", quantiles=QUANTILES,
                                  filters={"tenant": tenant}))
            t = float(np.exp(self.population.mu[tenant] + 0.5))
            pool.append(QuerySpec(kind="cdf", thresholds=(t,),
                                  filters={"tenant": tenant},
                                  report_bounds=True))
        return pool

    # ------------------------------------------------------------------

    def _answers(self, spec: QuerySpec) -> int:
        if spec.kind == "group_by":
            return ENDPOINTS * len(spec.quantiles)
        if spec.kind == "top_n":
            return spec.n
        if spec.kind == "cdf":
            return len(spec.thresholds)
        return len(spec.quantiles)

    def _block(self, rng: np.random.Generator) -> list[QuerySpec]:
        heavy = self.pool[:2]
        light = self.pool[2:]
        # Distinct picks: a repeat inside one block would be a cache hit
        # as often as the seed happens to draw one, and the share of such
        # near-zero latencies would move the p50.
        picks = rng.choice(len(light), POINT_QUERIES_PER_FLUSH, replace=False,
                           p=zipf_weights(len(light), POOL_ZIPF_S))
        block = heavy + [heavy[rng.integers(0, 2)]] + [light[i] for i in picks]
        # Identical specs: whichever copy of a heavy scan runs first after
        # the flush misses the cache, the other one hits it.
        return [block[i] for i in rng.permutation(len(block))]

    def run_round(self, meter, r: int) -> None:
        rng = np.random.default_rng([self.seed, 2, r])
        for _ in range(FLUSHES_PER_ROUND):
            producers = zipf_choice(rng, TENANTS, TENANT_ZIPF_S,
                                    FLUSH_PRODUCERS)
            values, dims, timestamps = self.population.rows(
                rng, rng.choice(producers, FLUSH_ROWS))

            def flush():
                self.session.append_columns(values, dims=dims,
                                            timestamps=timestamps)
                return self.session.flush()

            report = meter.ingest("flush", flush, FLUSH_ROWS)
            if report is not None:
                meter.observed.append(report)
                self.rows.append(values, dims)
            for spec in self._block(rng):
                sample = rng.random() < 1.0 / COLD_SAMPLE
                response = meter.query(spec.kind,
                                       lambda: self.service.execute(spec),
                                       self._answers(spec))
                if response is None:
                    continue
                meter.observed.append(response)
                if response.timings.solve_route != "cached":
                    meter.observed.append(self.backend.last_profile)
                self._check(meter, spec, response,
                            sample and self.service.last_batch_report.cache_hits)

    def _check(self, meter, spec: QuerySpec, response, compare_cold) -> None:
        problems: list[str] = []
        errors: list[float] = []
        if spec.kind in ("group_by", "top_n"):
            exact = self.rows.groups("endpoint")
            if response.count != self.rows.count:
                problems.append(f"count {response.count} != {self.rows.count}")
            if spec.kind == "group_by":
                if set(response.groups) != set(exact):
                    problems.append("group_by returned a different group set")
                for group, estimates in response.groups.items():
                    if group in exact:
                        found, errs = check_quantiles(
                            exact[group], spec.quantiles,
                            [estimates[qkey(q)] for q in spec.quantiles])
                        problems += [f"group {group}: {p}" for p in found]
                        errors += errs
            else:
                problems += check_top_n(exact, spec.q, spec.n, response.top)
        else:
            exact = self.rows.select(spec.filters_dict())
            if response.count != exact.size:
                problems.append(f"count {response.count} != {exact.size}")
            if spec.kind == "quantile":
                found, errors = check_quantiles(
                    exact, spec.quantiles,
                    [response.estimates[qkey(q)] for q in spec.quantiles])
                problems += found
            else:
                for t in spec.thresholds:
                    bounds = response.bounds[qkey(t)]
                    for family in ("markov", "rtt"):
                        problems += check_bounds(
                            exact, t, bounds[family]["lower"],
                            bounds[family]["upper"])
        if compare_cold:
            cold = self.cold.execute(spec)
            for field in ("value", "estimates", "groups", "top", "bounds",
                          "count"):
                if getattr(cold, field) != getattr(response, field):
                    problems.append(f"optimizer-served {field} differs from "
                                    f"a cold re-execution")
        meter.verdict(spec.kind, problems, errors)

    # ------------------------------------------------------------------

    def final_check(self, meter) -> bool:
        return meter.check_total(self.cold, self.rows.count)

    def stored_bytes_per_cell(self) -> float:
        total = cells = 0
        for node in self.coordinator.nodes.values():
            for engine in node.shards.values():
                cells += engine.num_cells
                total += sum(store.size_bytes()
                             for segment in engine.segments.values()
                             for store in segment.packed.values())
        return total / cells

    def layer_figures(self) -> dict:
        return {"optimizer": self.optimizer.stats()["cache"]}

    def close(self) -> None:
        if self.backend is not None:
            self.backend.broker.close()
            self.backend = None
