"""point_lookup: filtered single-sketch queries on a Druid-style engine.

Three high-cardinality dimensions, Zipf-skewed both in the rows and in
which values queries filter on.  Every query merges the matching cells
into one sketch and answers from it (``quantile`` solves one max-entropy
problem, ``cdf`` evaluates the Markov and RTT bounds), so per-query
locate, merge and single-sketch solve cost dominate (paper Figs 3/5).  A
light ingest trickle keeps the engine changing.
"""

from __future__ import annotations

import numpy as np

from data import Rows, zipf_choice, zipf_weights
from exact import check_bounds, check_quantiles

from repro.api import QueryService, QuerySpec, qkey
from repro.druid import DruidEngine, MomentsSketchAggregator
from repro.ingest import IngestSession

DIMENSIONS = ("tenant", "endpoint", "device")
TENANTS = 300
ENDPOINTS = 60
#: Each tenant calls a few endpoints from a few devices of its own, so
#: the dimensions are correlated the way real telemetry keys are.
ENDPOINTS_PER_TENANT = 2
DEVICES_PER_TENANT = 3
CARDINALITY = {"tenant": TENANTS, "endpoint": ENDPOINTS,
               "device": TENANTS * DEVICES_PER_TENANT}
TENANT_ZIPF_S = 1.1
#: Share of queries filtering on each dimension.
FILTER_SHARE = {"tenant": 0.6, "endpoint": 0.2, "device": 0.2}
BASE_ROWS = 60_000
HOURS = 2
GRANULARITY = 3600.0
QUANTILES = tuple(round(0.05 * i, 2) for i in range(1, 20)) + (0.99,)
#: Queries per round; the first QUANTILE_SHARE of them are quantile queries.
ROUND_QUERIES = 40
QUANTILE_SHARE = 0.7
TRICKLE_ROWS = 300
#: Queries filter only on values holding at least this many rows: an
#: estimate between a handful of data points cannot meet the Eq. 1
#: contract however good the sketch.
MIN_FILTER_ROWS = 400
QUERY_ZIPF_S = 1.0


class Population:
    """The seeded shape of the data: who calls what, and how slowly."""

    def __init__(self, rng: np.random.Generator):
        # Log-means within 0.6 of each other and log-sds of at least 0.5:
        # any merge of tenants stays unimodal in log space.
        self.mu = rng.uniform(2.6, 3.2, TENANTS)
        self.sigma = rng.uniform(0.5, 0.8, TENANTS)
        self.endpoints = zipf_choice(rng, ENDPOINTS, 0.8,
                                     TENANTS * ENDPOINTS_PER_TENANT
                                     ).reshape(TENANTS, ENDPOINTS_PER_TENANT)
        self.endpoint_shift = rng.uniform(-0.1, 0.1, ENDPOINTS)

    def rows(self, rng: np.random.Generator, n: int):
        tenant = zipf_choice(rng, TENANTS, TENANT_ZIPF_S, n)
        endpoint = self.endpoints[
            tenant, rng.integers(0, ENDPOINTS_PER_TENANT, n)]
        device = tenant * DEVICES_PER_TENANT + rng.integers(
            0, DEVICES_PER_TENANT, n)
        values = rng.lognormal(self.mu[tenant] + self.endpoint_shift[endpoint],
                               self.sigma[tenant])
        timestamps = rng.uniform(0.0, HOURS * GRANULARITY, n)
        return values, [tenant, endpoint, device], timestamps


class PointLookup:
    name = "point_lookup"

    def __init__(self, seed: int, workdir):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.population = Population(rng)
        self.base = self.population.rows(rng, BASE_ROWS)
        self.engine = None
        self.session = None
        self.service = None

    def setup(self):
        """Load the base rows, one step per appended chunk."""
        values, dims, timestamps = self.base
        engine = DruidEngine(
            dimensions=DIMENSIONS,
            aggregators={"latency": MomentsSketchAggregator(k=10)},
            granularity=GRANULARITY)
        session = IngestSession(engine, flush_rows=20_000)
        for lo in range(0, values.size, 10_000):
            hi = lo + 10_000
            session.append_columns(values[lo:hi],
                                   dims=[d[lo:hi] for d in dims],
                                   timestamps=timestamps[lo:hi])
            yield
        session.flush()
        self.engine = engine
        self.session = session
        self.service = QueryService(druid=engine)

    def after_setup(self) -> None:
        """Untimed: the exact copy of the rows and the query targets."""
        values, dims, _ = self.base
        self.rows = Rows(DIMENSIONS)
        self.rows.append(values, dims)
        self.targets = {}
        for position, dim in enumerate(DIMENSIONS):
            counts = np.bincount(dims[position],
                                 minlength=CARDINALITY[dim])
            # Most popular first, so Zipf over the list favours hot values.
            order = np.argsort(-counts, kind="stable")
            self.targets[dim] = [int(v) for v in order
                                 if counts[v] >= MIN_FILTER_ROWS]

    # ------------------------------------------------------------------

    def _specs(self, r: int) -> list[QuerySpec]:
        rng = np.random.default_rng([self.seed, 2, r])
        specs = []
        quantile_queries = round(ROUND_QUERIES * QUANTILE_SHARE)
        dims = list(FILTER_SHARE)
        for i in range(ROUND_QUERIES):
            dim = dims[rng.choice(len(dims), p=list(FILTER_SHARE.values()))]
            candidates = self.targets[dim]
            value = candidates[rng.choice(
                len(candidates), p=zipf_weights(len(candidates), QUERY_ZIPF_S))]
            if i < quantile_queries:
                specs.append(QuerySpec(kind="quantile", quantiles=QUANTILES,
                                       filters={dim: value}))
            else:
                mu = float(self.population.mu.mean())
                t = tuple(float(x) for x in
                          np.exp(mu + rng.normal(0.0, 0.6, 2)))
                specs.append(QuerySpec(kind="cdf", thresholds=t,
                                       filters={dim: value},
                                       report_bounds=True))
        order = rng.permutation(len(specs))
        return [specs[i] for i in order]

    def run_round(self, meter, r: int) -> None:
        for spec in self._specs(r):
            answers = (len(spec.quantiles) if spec.kind == "quantile"
                       else len(spec.thresholds))
            response = meter.query(spec.kind,
                                   lambda: self.service.execute(spec), answers)
            if response is not None:
                meter.observed.append(response)
                self._check(meter, spec, response)
        rng = np.random.default_rng([self.seed, 3, r])
        values, dims, timestamps = self.population.rows(rng, TRICKLE_ROWS)

        def trickle():
            self.session.append_columns(values, dims=dims,
                                        timestamps=timestamps)
            return self.session.flush()

        report = meter.ingest("trickle", trickle, TRICKLE_ROWS)
        if report is not None:
            meter.observed.append(report)
            self.rows.append(values, dims)

    def _check(self, meter, spec: QuerySpec, response) -> None:
        exact = self.rows.select(spec.filters_dict())
        problems = []
        errors = []
        if response.count != exact.size:
            problems.append(f"count {response.count} != {exact.size} rows")
        if spec.kind == "quantile":
            estimates = [response.estimates[qkey(q)] for q in spec.quantiles]
            found, errors = check_quantiles(exact, spec.quantiles, estimates)
            problems += found
        else:
            for t in spec.thresholds:
                bounds = response.bounds[qkey(t)]
                for family in ("markov", "rtt"):
                    problems += check_bounds(exact, t, bounds[family]["lower"],
                                             bounds[family]["upper"])
        meter.verdict(f"{spec.kind} {spec.filters}", problems, errors)

    # ------------------------------------------------------------------

    def final_check(self, meter) -> bool:
        return meter.check_total(self.service, self.rows.count)

    def stored_bytes_per_cell(self) -> float:
        stores = [store for segment in self.engine.segments.values()
                  for store in segment.packed.values()]
        return sum(s.size_bytes() for s in stores) / self.engine.num_cells

    def layer_figures(self) -> dict:
        return {}

    def close(self) -> None:
        self.engine = self.session = self.service = None
