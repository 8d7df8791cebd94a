"""Timing, checking and scaling of one workload run.

A :class:`Meter` times every operation a workload runs (queries and
ingest flushes), runs one reference slice after each, collects the
correctness problems the workload finds, and turns it all into the
end-to-end metrics.  Every timing is reported scaled by the reference
loop's local speed (see :mod:`refloop`); the raw wall-clock figures are
kept beside them.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback

import numpy as np

from refloop import MIN_SLICES, NOMINAL_SPEED, SETUP_REFERENCE_SHARE, Reference

#: End-to-end metrics, in the order they are printed, with their units.
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "answers_per_s": "1/s",
    "ingest_rows_per_s": "1/s",
    "mean_rank_error": "fraction",
    "stored_bytes_per_cell": "B",
    "peak_rss_mb": "MB",
}

#: Set-up runs per benchmark run; setup_s is their median.
SETUP_REPEATS = 3

#: mean_rank_error averages the estimates of the first rounds only, and
#: every run completes at least this many rounds however long they take,
#: so that it repeats exactly for a given seed on any host.
RANK_ERROR_ROUNDS = 12

#: Problems printed to stderr per run (all are counted).
MAX_REPORTED_PROBLEMS = 20

_DONE = object()


class Meter:
    """Records one run's operations, answers, problems and reference speed."""

    def __init__(self):
        self.ref = Reference()
        # (start, end, answers or rows) of every answered query and every
        # landed flush; the (start, end) of each step of every set-up.
        self.queries: list[tuple[float, float, int]] = []
        self.ingests: list[tuple[float, float, int]] = []
        self.setups: list[list[tuple[float, float]]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.round = 0
        self.rank_errors: list[tuple[int, float]] = []   # (round, error)
        self.observed: list = []             # program figures, for tracing

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _run(self, label: str, fn, records: list, count: int):
        """Time ``fn``, record it if it returned, then follow it with
        reference slices."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # any failure of the program is a failed operation
            self.failed += 1
            self.report(f"{label} raised:\n{traceback.format_exc()}")
            result = None
        end = time.perf_counter()
        if result is not None:
            records.append((start, end, count))
        self.ref.follow(end - start)
        return result

    def query(self, label: str, fn, answers: int):
        """Run one query; returns its response, or None if it raised."""
        return self._run(label, fn, self.queries, answers)

    def ingest(self, label: str, fn, rows: int):
        """Run one append-and-flush; returns the flush's result."""
        return self._run(label, fn, self.ingests, rows)

    def setup(self, steps) -> None:
        """Time one set-up, a generator that yields between its steps.

        Each step is followed by reference slices worth
        SETUP_REFERENCE_SHARE of its length, so every step is scaled by
        the host's speed while the set-up ran; the set-up's time is the
        sum of its steps'.
        """
        self.ref.tick(MIN_SLICES)
        spans = []
        done = False
        while not done:
            start = time.perf_counter()
            done = next(steps, _DONE) is _DONE
            end = time.perf_counter()
            spans.append((start, end))
            self.ref.follow(end - start, SETUP_REFERENCE_SHARE)
        self.setups.append(spans)

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    def verdict(self, label: str, problems: list[str],
                rank_errors: list[float] = ()) -> None:
        """Record the check of one answered operation."""
        self.rank_errors.extend((self.round, e) for e in rank_errors)
        if problems:
            self.failed += 1
            self.report(f"{label}: " + "; ".join(problems[:5]))

    def check_total(self, service, written: int) -> bool:
        """Untimed: a roll-up of every cell counts every row written."""
        counted = service.execute({"kind": "quantile"}).count
        if counted != written:
            self.report(f"full roll-up counts {counted} rows, "
                        f"{written} were written")
            return False
        return True

    def report(self, text: str) -> None:
        self.problems.append(text)
        if len(self.problems) <= MAX_REPORTED_PROBLEMS:
            print(f"[perfbench] {text}", file=sys.stderr)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def _scaled(self, spans) -> list[float]:
        return [(end - start) * self.ref.scale(start, end)
                for start, end, *_ in spans]

    def metrics(self, stored_bytes_per_cell: float) -> tuple[dict, dict]:
        """``(scaled end-to-end metrics, raw figures)`` of the run."""
        query_scaled = self._scaled(self.queries)
        ingest_scaled = self._scaled(self.ingests)
        answers = sum(n for _, _, n in self.queries)
        rows = sum(n for _, _, n in self.ingests)
        raw_queries = [end - start for start, end, _ in self.queries]
        raw_ingest = sum(end - start for start, end, _ in self.ingests)
        scaled = {
            "setup_s": statistics.median(sum(self._scaled(spans))
                                         for spans in self.setups),
            "query_p50_ms": float(np.percentile(query_scaled, 50)) * 1e3,
            "query_p90_ms": float(np.percentile(query_scaled, 90)) * 1e3,
            "answers_per_s": answers / sum(query_scaled),
            "ingest_rows_per_s": rows / sum(ingest_scaled),
            "mean_rank_error": statistics.fmean(
                e for r, e in self.rank_errors if r < RANK_ERROR_ROUNDS),
            "stored_bytes_per_cell": float(stored_bytes_per_cell),
            "peak_rss_mb": peak_rss_mb(),
        }
        raw = {
            "setup_s": statistics.median(
                sum(end - start for start, end in spans)
                for spans in self.setups),
            "query_p50_ms": float(np.percentile(raw_queries, 50)) * 1e3,
            "query_p90_ms": float(np.percentile(raw_queries, 90)) * 1e3,
            "answers_per_s": answers / sum(raw_queries),
            "ingest_rows_per_s": rows / raw_ingest,
            "queries": len(self.queries),
            "answers": answers,
            "ingest_flushes": len(self.ingests),
            "ingest_rows": rows,
            "reference_speed": self.ref.mean_speed(),
            "reference_nominal": NOMINAL_SPEED,
            "reference_slices": len(self.ref.walls),
            "reference_rejected": self.ref.rejected,
            "rounds": self.round,
            "mean_rank_error_all": statistics.fmean(
                e for _, e in self.rank_errors),
        }
        return scaled, raw


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
