"""Traced runs: runtime wrappers around each layer's functions.

:class:`Tracer` rebinds named functions in the modules that look them up
(for example ``repro.core.cascade.markov_bound``) to wrappers that record
one span per call — name, start, end, parent, and a row count — in
memory.  No file of the program changes, and :meth:`Tracer.remove` puts
every original back.  A call made inside a span of the same layer is not
a span of its own (see :data:`ENCLOSING`), so nested calls are timed and
counted once.  A span's self time is its duration minus its direct
children's.  :func:`layer_metrics` folds the spans, together with
the figures the program already reports (``QueryTimings``,
``IngestReport``, ``ScatterProfile``, ``BatchEstimationReport``, the
optimizer's cache stats, each cascade outcome's stage), into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

#: Per-layer metrics, in the order they are printed, with their units.
PER_LAYER = {
    "ingest.flush_ms": "ms", "ingest.route_ms": "ms", "ingest.pack_ms": "ms",
    "ingest.rows_per_flush": "rows",
    "api.plan_ms": "ms",
    "druid.rollup_ms": "ms",
    "store.merge_ms": "ms", "store.cells_per_query": "cells",
    "store.merge_ns_per_cell": "ns",
    "storage.gather_ms": "ms", "storage.gathers": "count",
    "storage.seal_ms": "ms", "storage.seals": "count",
    "storage.compactions": "count", "storage.disk_bytes": "B",
    "cluster.route_ms": "ms", "cluster.scatter_ms": "ms",
    "cluster.merge_ms": "ms", "cluster.shards_per_query": "shards",
    "cluster.partial_bytes_per_query": "B", "cluster.write_ms": "ms",
    "optimizer.hits": "count", "optimizer.misses": "count",
    "optimizer.evictions": "count", "optimizer.hit_ratio": "fraction",
    "window.scan_merge_ms": "ms", "window.scan_estimate_ms": "ms",
    "window.pane_seal_ms": "ms", "window.windows_per_query": "windows",
    "window.remerge_over_turnstile": "ratio",
    "core.cascade.evaluate_us": "us", "core.cascade.evaluate_batch_ms": "ms",
    "core.cascade.decided_simple": "count",
    "core.cascade.decided_markov": "count",
    "core.cascade.decided_rtt": "count",
    "core.cascade.decided_maxent": "count",
    "core.cascade.bound_decided_fraction": "fraction",
    "core.bounds.markov_us": "us", "core.bounds.rtt_us": "us",
    "core.bounds.rows_per_batch_call": "rows",
    "core.selector.select_ms_per_sketch": "ms",
    "core.solver.basis_ms_per_sketch": "ms",
    "core.solver.newton_ms_per_sketch": "ms",
    "core.batch_solver.fit_ms_per_sketch": "ms",
    "core.batch_solver.fit_calls": "count",
    "core.batch_solver.sketches_per_fit": "sketches",
    "core.batch_solver.stragglers": "count",
    "core.batch_solver.failures": "count",
    "core.quantile.cdf_ms_per_sketch": "ms",
    "trace.overhead_query_p50": "fraction",
}


def _rows_first_arg(args, kwargs, result) -> int:
    return len(args[0])


def _one(args, kwargs, result) -> int:
    return 1


def _rows_of_result(args, kwargs, result) -> int:
    return len(result)


def _merge_rows(args, kwargs, result) -> int:
    # batch_merge(self, indices=None): None merges the whole store.
    rows = args[1] if len(args) > 1 else kwargs.get("indices")
    return len(args[0]) if rows is None else int(np.size(rows))


def _group_merge_rows(args, kwargs, result) -> int:
    return int(np.size(args[1]))


def _stage(args, kwargs, result):
    return result.stage


def _stages(args, kwargs, result):
    return [outcome.stage for outcome in result]


def _fit_report(args, kwargs, result):
    report = result[2]
    return {"stragglers": report.stragglers, "failures": report.failures}


#: (module, attribute path, span name, row counter, detail extractor).
#: Each entry rebinds the name where callers look it up, so a function
#: imported into two modules is wrapped in both.
WRAPS = [
    ("repro.ingest.backends", "ClusterWriteBackend.write", "cluster.write",
     _one, None),
    ("repro.api.backends", "DruidBackend.rollup", "druid.rollup", _one, None),
    ("repro.api.backends", "DruidBackend.group_rollup", "druid.rollup",
     _one, None),
    ("repro.store.packed", "PackedSketchStore.batch_merge", "store.merge",
     _merge_rows, None),
    ("repro.store.packed", "PackedSketchStore.batch_merge_groups",
     "store.merge", _group_merge_rows, None),
    ("repro.store.packed", "PackedSketchStore.batch_merge_by", "store.merge",
     _group_merge_rows, None),
    ("repro.storage.tiered", "TieredStore.gather", "storage.gather", _one,
     None),
    ("repro.storage.tiered", "TieredStore.seal", "storage.seal", _one, None),
    ("repro.storage.tiered", "TieredStore.compact_run", "storage.compact",
     _one, None),
    ("repro.core.cascade", "ThresholdCascade.evaluate",
     "core.cascade.evaluate", _one, _stage),
    ("repro.core.cascade", "ThresholdCascade.evaluate_batch",
     "core.cascade.evaluate_batch", _rows_of_result, _stages),
    ("repro.core.cascade", "markov_bound", "core.bounds.markov", _one, None),
    ("repro.core.cascade", "rtt_bound", "core.bounds.rtt", _one, None),
    ("repro.core.cascade", "markov_bound_batch", "core.bounds.markov_batch",
     _rows_of_result, None),
    ("repro.core.cascade", "rtt_bound_batch", "core.bounds.rtt_batch",
     _rows_of_result, None),
    ("repro.api.service", "markov_bound", "core.bounds.markov", _one, None),
    ("repro.api.service", "rtt_bound", "core.bounds.rtt", _one, None),
    ("repro.api.service", "rtt_bound_batch", "core.bounds.rtt_batch",
     _rows_of_result, None),
    ("repro.core.quantile", "QuantileEstimator.fit", "core.quantile.fit",
     _one, None),
    ("repro.core.quantile", "select_moments", "core.selector.select", _one,
     None),
    ("repro.core.quantile", "build_basis", "core.solver.basis", _one, None),
    ("repro.core.quantile", "solve", "core.solver.newton", _one, None),
    ("repro.core.batch_solver", "fit_estimators", "core.batch_solver.fit",
     _rows_first_arg, _fit_report),
    ("repro.api.service", "fit_estimators", "core.batch_solver.fit",
     _rows_first_arg, _fit_report),
    ("repro.core.batch_solver", "select_moments_batch",
     "core.selector.select", _rows_first_arg, None),
    ("repro.core.batch_solver", "build_bases_batch", "core.solver.basis",
     _rows_first_arg, None),
    ("repro.core.batch_solver", "solve_batch", "core.solver.newton",
     _rows_first_arg, None),
]


#: A wrapped call whose innermost enclosing span has its own name, or
#: the name given here, records no span: its time stays in the enclosing
#: span, and its rows are not counted twice.  ``batch_merge_by`` calls
#: ``batch_merge_groups``, which calls ``batch_merge`` once per group;
#: ``fit_estimators`` fits stragglers with ``QuantileEstimator.fit``.
ENCLOSING = {"core.quantile.fit": "core.batch_solver.fit"}


class Tracer:
    """Installs span-recording wrappers and holds the spans in memory."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, rows, detail].
        self.spans: list[list] = []
        self._local = threading.local()
        # Broker threads record spans too: appending and reading back the
        # new span's index must be one step.
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, count, detail):
        spans = self.spans
        lock = self._lock
        tracer = self

        enclosing = {name, ENCLOSING.get(name)}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and spans[stack[-1]][0] in enclosing:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, 0, None]
            with lock:
                spans.append(span)
                stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = count(args, kwargs, result)
            if detail is not None:
                span[5] = detail(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        for module_name, path, name, count, detail in WRAPS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                inner = self._wrap(raw.__func__, name, count, detail)
                replacement = classmethod(inner)
            else:
                replacement = self._wrap(raw, name, count, detail)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "rows", "detail")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump([dict(zip(keys, span)) for span in self.spans], stream)


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, observed: list, figures: dict) -> dict:
    """Fold spans and the program's own figures into per-layer metrics.

    ``observed`` holds the ``QueryResponse``, ``IngestReport`` and
    ``ScatterProfile`` objects of the traced phase; ``figures`` the
    workload's end-of-run figures (disk bytes, optimizer stats, the
    remerge/turnstile ratio).  Layers that did not run read 0.
    """
    from repro.api import QueryResponse
    from repro.cluster.broker import ScatterProfile
    from repro.ingest import IngestReport

    own = tracer.self_times()
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    rows: dict[str, int] = defaultdict(int)
    stages: dict[str, int] = defaultdict(int)
    stragglers = failures = 0
    for span, self_time in zip(tracer.spans, own):
        name, start, end, _, count, detail = span
        total[name] += end - start
        self_total[name] += self_time
        calls[name] += 1
        rows[name] += count
        if name == "core.cascade.evaluate":
            stages[detail] += 1
        elif name == "core.cascade.evaluate_batch":
            for stage in detail:
                stages[stage] += 1
        elif name == "core.batch_solver.fit":
            stragglers += detail["stragglers"]
            failures += detail["failures"]

    def per_call(name, unit=1e3, table=total):
        return unit * table[name] / calls[name] if calls[name] else 0.0

    def per_row(name, unit=1e3, table=self_total):
        return unit * table[name] / rows[name] if rows[name] else 0.0

    responses = [o for o in observed if isinstance(o, QueryResponse)]
    reports = [o for o in observed if isinstance(o, IngestReport)]
    profiles = [o for o in observed if isinstance(o, ScatterProfile)]
    windowed = [r for r in responses if r.kind == "windowed"]
    scans = [r for r in responses if r.kind != "windowed"]
    window_reports = [r for r in reports if r.backend == "window"]
    decided = sum(stages.values())
    bound_decided = stages["simple"] + stages["markov"] + stages["rtt"]
    markov_rows = rows["core.bounds.markov"] + rows["core.bounds.markov_batch"]
    rtt_rows = rows["core.bounds.rtt"] + rows["core.bounds.rtt_batch"]
    batch_calls = calls["core.bounds.markov_batch"] + calls["core.bounds.rtt_batch"]
    fit_rows = rows["core.quantile.fit"] + rows["core.batch_solver.fit"]
    cache = figures.get("optimizer", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out = {
        "ingest.flush_ms": 1e3 * _mean(r.write_seconds for r in reports),
        "ingest.route_ms": 1e3 * _mean(r.route_seconds for r in reports),
        "ingest.pack_ms": 1e3 * _mean(r.pack_seconds for r in reports),
        "ingest.rows_per_flush": _mean(r.rows for r in reports),
        "api.plan_ms": 1e3 * _mean(r.timings.planner_seconds for r in scans),
        "druid.rollup_ms": per_call("druid.rollup", table=self_total),
        "store.merge_ms": per_call("store.merge"),
        "store.cells_per_query": _mean(r.cells_scanned for r in scans),
        "store.merge_ns_per_cell": per_row("store.merge", 1e9, total),
        "storage.gather_ms": per_call("storage.gather"),
        "storage.gathers": calls["storage.gather"],
        "storage.seal_ms": per_call("storage.seal"),
        "storage.seals": calls["storage.seal"],
        "storage.compactions": calls["storage.compact"],
        "storage.disk_bytes": figures.get("disk_bytes", 0),
        "cluster.route_ms": 1e3 * _mean(p.route_seconds for p in profiles),
        "cluster.scatter_ms": 1e3 * _mean(p.scatter_seconds for p in profiles),
        "cluster.merge_ms": 1e3 * _mean(p.merge_seconds for p in profiles),
        "cluster.shards_per_query": _mean(p.shards_scanned for p in profiles),
        "cluster.partial_bytes_per_query": _mean(p.partial_bytes
                                                 for p in profiles),
        "cluster.write_ms": per_call("cluster.write"),
        "optimizer.hits": cache.get("hits", 0),
        "optimizer.misses": cache.get("misses", 0),
        "optimizer.evictions": cache.get("evictions", 0),
        "optimizer.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "window.scan_merge_ms": 1e3 * _mean(r.timings.merge_seconds
                                            for r in windowed),
        "window.scan_estimate_ms": 1e3 * _mean(r.timings.solve_seconds
                                               for r in windowed),
        "window.pane_seal_ms": (
            1e3 * sum(r.pack_seconds for r in window_reports)
            / max(sum(r.cells for r in window_reports), 1)),
        "window.windows_per_query": _mean(r.merges for r in windowed),
        "window.remerge_over_turnstile": figures.get("remerge_over_turnstile",
                                                     0.0),
        "core.cascade.evaluate_us": per_call("core.cascade.evaluate", 1e6),
        "core.cascade.evaluate_batch_ms": per_call(
            "core.cascade.evaluate_batch"),
        "core.cascade.decided_simple": stages["simple"],
        "core.cascade.decided_markov": stages["markov"],
        "core.cascade.decided_rtt": stages["rtt"],
        "core.cascade.decided_maxent": stages["maxent"],
        "core.cascade.bound_decided_fraction": (bound_decided / decided
                                                if decided else 0.0),
        "core.bounds.markov_us": (1e6 * (total["core.bounds.markov"]
                                         + total["core.bounds.markov_batch"])
                                  / markov_rows if markov_rows else 0.0),
        "core.bounds.rtt_us": (1e6 * (total["core.bounds.rtt"]
                                      + total["core.bounds.rtt_batch"])
                               / rtt_rows if rtt_rows else 0.0),
        "core.bounds.rows_per_batch_call": (
            (rows["core.bounds.markov_batch"] + rows["core.bounds.rtt_batch"])
            / batch_calls if batch_calls else 0.0),
        "core.selector.select_ms_per_sketch": per_row("core.selector.select"),
        "core.solver.basis_ms_per_sketch": per_row("core.solver.basis"),
        "core.solver.newton_ms_per_sketch": per_row("core.solver.newton"),
        "core.batch_solver.fit_ms_per_sketch": per_row(
            "core.batch_solver.fit", table=total),
        "core.batch_solver.fit_calls": calls["core.batch_solver.fit"],
        "core.batch_solver.sketches_per_fit": (
            rows["core.batch_solver.fit"] / calls["core.batch_solver.fit"]
            if calls["core.batch_solver.fit"] else 0.0),
        "core.batch_solver.stragglers": stragglers,
        "core.batch_solver.failures": failures,
        "core.quantile.cdf_ms_per_sketch": (
            1e3 * (self_total["core.quantile.fit"]
                   + self_total["core.batch_solver.fit"]) / fit_rows
            if fit_rows else 0.0),
    }
    return out
