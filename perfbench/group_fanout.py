"""group_fanout: group-wise queries over a tiered store's sealed segments.

The rows exceed the store's hot budget, so they sit in several sealed
(and compacted) segments on disk.  Queries are ``group_by``, ``top_n``
and ``threshold_count`` over a dimension of a few hundred groups, so the
stacked max-entropy solve is most of each query.  An occasional flush
changes the store's epoch, and the next query gathers the store again.
This is the only workload that reads sealed segments.
"""

from __future__ import annotations

import numpy as np

from data import Rows, zipf_choice
from exact import check_quantiles, check_top_n, threshold_verdict

from repro.api import QueryService, QuerySpec, qkey
from repro.ingest import IngestSession
from repro.storage import Compactor, TieredStore

DIMENSIONS = ("service", "host")
SERVICES = 60
HOSTS = 40
SERVICE_ZIPF_S = 0.5
BASE_ROWS = 120_000
BASE_FLUSH_ROWS = 20_000
#: Small enough that every base flush and every other measured flush
#: seals a segment.
HOT_BUDGET_BYTES = 128 << 10
GROUP_QUANTILES = (0.1, 0.5, 0.9, 0.99)
TOP_Q = 0.99
TOP_N = 10
THRESHOLD_Q = 0.9
#: One round: the queries in this order, then one flush.
ROUND_KINDS = ("group_by", "top_n", "threshold_count", "group_by", "top_n",
               "threshold_count")
FLUSH_ROWS = 2_000


class Population:
    def __init__(self, rng: np.random.Generator):
        self.mu = rng.uniform(2.0, 4.0, SERVICES)
        self.sigma = rng.uniform(0.3, 0.9, SERVICES)
        self.host_shift = rng.normal(0.0, 0.2, HOSTS)

    def rows(self, rng: np.random.Generator, n: int):
        service = zipf_choice(rng, SERVICES, SERVICE_ZIPF_S, n)
        host = rng.integers(0, HOSTS, n)
        values = rng.lognormal(self.mu[service] + self.host_shift[host],
                               self.sigma[service])
        return values, [service, host]


class GroupFanout:
    name = "group_fanout"

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng([seed, 1])
        self.population = Population(rng)
        self.base = self.population.rows(rng, BASE_ROWS)
        self.setups = 0
        self.store = None

    def setup(self):
        """Load the base rows, one step per sealing flush, then compact."""
        self.setups += 1
        store = TieredStore(self.workdir / f"store-{self.setups}", k=10,
                            dimensions=DIMENSIONS,
                            hot_budget_bytes=HOT_BUDGET_BYTES)
        session = IngestSession(store, flush_rows=BASE_FLUSH_ROWS)
        values, dims = self.base
        for lo in range(0, values.size, BASE_FLUSH_ROWS):
            hi = lo + BASE_FLUSH_ROWS
            session.append_columns(values[lo:hi],
                                   dims=[d[lo:hi] for d in dims])
            yield
        session.flush()
        # Compaction runs on this thread, here and after every round, so
        # no second thread competes with the measuring one.
        self.compactor = Compactor(store)
        self.compactor.run_until_stable()
        self.store = store
        self.session = session
        self.service = QueryService(tiered=store)

    def after_setup(self) -> None:
        values, dims = self.base
        self.rows = Rows(DIMENSIONS)
        self.rows.append(values, dims)

    # ------------------------------------------------------------------

    def _spec(self, kind: str, rng: np.random.Generator) -> QuerySpec:
        if kind == "group_by":
            return QuerySpec(kind="group_by", quantiles=GROUP_QUANTILES,
                             group_dimension="service")
        if kind == "top_n":
            return QuerySpec(kind="top_n", quantiles=(TOP_Q,), n=TOP_N,
                             group_dimension="service")
        mu = float(np.median(self.population.mu))
        thresholds = tuple(float(x) for x in
                           np.exp(mu + 1.0 + rng.normal(0.0, 0.5, 2)))
        return QuerySpec(kind="threshold_count", quantiles=(THRESHOLD_Q,),
                         thresholds=thresholds, group_dimension="service")

    def run_round(self, meter, r: int) -> None:
        rng = np.random.default_rng([self.seed, 2, r])
        for kind in ROUND_KINDS:
            spec = self._spec(kind, rng)
            groups = len(self.rows.groups("service"))
            answers = (groups * len(spec.quantiles) if kind == "group_by"
                       else TOP_N if kind == "top_n"
                       else groups * len(spec.thresholds))
            response = meter.query(kind, lambda: self.service.execute(spec),
                                   answers)
            if response is not None:
                meter.observed.append(response)
                self._check(meter, spec, response)
        values, dims = self.population.rows(rng, FLUSH_ROWS)

        def flush():
            self.session.append_columns(values, dims=dims)
            return self.session.flush()

        report = meter.ingest("flush", flush, FLUSH_ROWS)
        if report is not None:
            meter.observed.append(report)
            self.rows.append(values, dims)
        # Upkeep between rounds, untimed: its cost depends on how many
        # segments earlier rounds left, not on this flush.
        self.compactor.run_until_stable()

    def _check(self, meter, spec: QuerySpec, response) -> None:
        exact = self.rows.groups("service")
        problems: list[str] = []
        errors: list[float] = []
        if response.count != self.rows.count:
            problems.append(f"count {response.count} != {self.rows.count}")
        if spec.kind == "group_by":
            if set(response.groups) != set(exact):
                problems.append("group_by returned a different group set")
            for group, estimates in response.groups.items():
                values = exact.get(group)
                if values is None:
                    continue
                found, errs = check_quantiles(
                    values, spec.quantiles,
                    [estimates[qkey(q)] for q in spec.quantiles])
                problems += [f"group {group}: {p}" for p in found]
                errors += errs
        elif spec.kind == "top_n":
            problems += check_top_n(exact, spec.q, spec.n, response.top)
        else:
            for t in spec.thresholds:
                count = 0
                for group, values in exact.items():
                    outcome = response.groups[group][qkey(t)]
                    count += outcome["exceeds"]
                    verdict = threshold_verdict(values, t, spec.q)
                    if verdict is not None and verdict != outcome["exceeds"]:
                        problems.append(
                            f"group {group} t={t!r}: exceeds="
                            f"{outcome['exceeds']} ({outcome['stage']}), "
                            f"exact says {verdict}")
                if response.estimates[qkey(t)] != count:
                    problems.append(f"t={t!r}: count disagrees with groups")
        meter.verdict(spec.kind, problems, errors)

    # ------------------------------------------------------------------

    def final_check(self, meter) -> bool:
        return meter.check_total(self.service, self.rows.count)

    def stored_bytes_per_cell(self) -> float:
        """Disk bytes per cell once every version but the newest is gone.

        Sealing and compacting everything first makes the figure the
        format's footprint, not a count of superseded versions that
        depends on where in its compaction cycle the run stopped.
        """
        self.store.seal()
        if len(self.store.segments) > 1:
            self.store.compact_run(0, len(self.store.segments))
        return self.store.disk_bytes() / len(self.store)

    def layer_figures(self) -> dict:
        return {"disk_bytes": self.store.disk_bytes()}

    def close(self) -> None:
        if self.store is not None:
            self.store.close(seal=False)
            self.store = None
