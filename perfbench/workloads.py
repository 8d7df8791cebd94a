"""The workload registry and the two ways of running one.

A workload object generates its inputs from the seed in ``__init__``,
builds its engines from them in ``setup`` (the timed set-up, a generator
that yields between its steps), and runs one round of operations per
``run_round`` call.  Rounds are whole: a run repeats them until
``--seconds`` have passed and at least RANK_ERROR_ROUNDS have run, so
every run attempts the same mix of operations.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path

from measure import END_TO_END, RANK_ERROR_ROUNDS, SETUP_REPEATS, Meter
from refloop import MIN_SLICES
from tracing import PER_LAYER, Tracer, layer_metrics


#: Workload name -> (module, class) in this directory.
WORKLOADS = {
    "point_lookup": ("point_lookup", "PointLookup"),
    "group_fanout": ("group_fanout", "GroupFanout"),
    "window_alert": ("window_alert", "WindowAlert"),
    "ingest_mixed": ("ingest_mixed", "IngestMixed"),
}


def _build(name: str, seed: int, workdir: Path, meter: Meter, repeats: int):
    module, cls = WORKLOADS[name]
    workload = getattr(importlib.import_module(module), cls)(seed, workdir)
    for repeat in range(repeats):
        if repeat:
            workload.close()
        meter.setup(workload.setup())
    workload.after_setup()
    return workload


def _measure(workload, meter: Meter, seconds: float | None,
             rounds: int | None = None) -> None:
    """Run whole rounds until ``seconds`` passed and RANK_ERROR_ROUNDS
    ran (or until ``rounds`` ran)."""
    meter.ref.tick(MIN_SLICES)
    start = time.perf_counter()
    r = 0
    while True:
        meter.round = r
        workload.run_round(meter, r)
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif (r >= RANK_ERROR_ROUNDS
              and time.perf_counter() - start >= seconds):
            break
    meter.round = r


def _result(meters: list[Meter], correct: bool, metrics: dict,
            units: dict) -> dict:
    return {
        "correct": correct,
        "attempted": sum(m.attempted for m in meters),
        "failed": sum(m.failed for m in meters),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def run_workload(name: str, seed: int, seconds: float, workdir: Path):
    """One untraced run: the end-to-end metrics."""
    meter = Meter()
    workload = _build(name, seed, workdir, meter, SETUP_REPEATS)
    try:
        _measure(workload, meter, seconds)
        correct = workload.final_check(meter)
        scaled, raw = meter.metrics(workload.stored_bytes_per_cell())
    finally:
        workload.close()
    info = {"workload": name, "seed": seed, "raw": raw,
            "problems": len(meter.problems)}
    return _result([meter], correct, scaled, END_TO_END), info


def trace_workload(name: str, seed: int, seconds: float, workdir: Path,
                   out_dir: Path):
    """An untraced and a traced phase of equal rounds: per-layer metrics.

    The traced phase repeats the untraced one from a fresh set-up, with
    the wrappers installed for its measured rounds only, so the
    difference between the two phases' end-to-end figures is the tracing
    overhead.
    """
    plain = Meter()
    workload = _build(name, seed, workdir / "plain", plain, 1)
    try:
        _measure(workload, plain, seconds / 2)
        plain_ok = workload.final_check(plain)
        plain_scaled, _ = plain.metrics(workload.stored_bytes_per_cell())
    finally:
        workload.close()

    traced = Meter()
    workload = _build(name, seed, workdir / "traced", traced, 1)
    tracer = Tracer()
    try:
        tracer.install()
        try:
            _measure(workload, traced, None, rounds=plain.round)
        finally:
            tracer.remove()
        traced_ok = workload.final_check(traced)
        figures = workload.layer_figures()
        traced_scaled, _ = traced.metrics(workload.stored_bytes_per_cell())
    finally:
        workload.close()

    layers = layer_metrics(tracer, traced.observed, figures)
    overhead = {key: traced_scaled[key] / plain_scaled[key] - 1.0
                for key in ("query_p50_ms", "query_p90_ms", "answers_per_s",
                            "ingest_rows_per_s")}
    layers["trace.overhead_query_p50"] = overhead["query_p50_ms"]
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{name}-seed{seed}.json"
    tracer.write(spans_path)
    info = {"workload": name, "seed": seed, "rounds": plain.round,
            "untraced": plain_scaled, "traced": traced_scaled,
            "tracing_overhead": overhead, "spans": len(tracer.spans),
            "spans_file": str(spans_path),
            "problems": len(plain.problems) + len(traced.problems)}
    return _result([plain, traced], plain_ok and traced_ok, layers,
                   PER_LAYER), info
