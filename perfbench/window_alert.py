"""window_alert: one latency stream with incidents, alerted on and scanned.

On the write path the stream is ingested through an ``IngestSession``
into a ``StreamingWindowMonitor`` with an alert threshold, which runs the
threshold cascade once per sealed pane.  On the read path turnstile
``windowed`` scans run over the pane history through a ``WindowBackend``,
beside ``quantile`` queries on the monitor's current window and on past
windows of the history.  The same cascade serves both paths (paper
Fig 14).
"""

from __future__ import annotations

import time

import numpy as np

from exact import check_quantiles, threshold_verdict, window_verdicts

from repro.api import QuerySpec, WindowBackend, WindowSpec, execute, qkey
from repro.ingest import IngestSession
from repro.window import StreamingWindowMonitor, build_panes

PANE_SIZE = 200
WINDOW_PANES = 20
#: Panes of history: past-window queries read all of it, the threshold
#: scans its last SCAN_PANES panes.
HISTORY_PANES = 300
SCAN_PANES = 100
#: Baseline latency: lognormal, median e^3 ~ 20 ms, p90 ~ 38 ms.
BASE_MU = 3.0
BASE_SIGMA = 0.5
#: An incident slows this share of its panes' requests by SPIKE_FACTOR.
SPIKE_SHARE = 0.25
SPIKE_FACTOR = 6.0
#: History incidents: INCIDENT_PANES panes every INCIDENT_EVERY panes,
#: and every INCIDENT_FLUSH_EVERY-th live flush is one.  The placement is
#: fixed so that every seed has the same mix of quiet and slow windows.
INCIDENT_EVERY = 30
INCIDENT_PANES = 12
INCIDENT_FLUSH_EVERY = 4
#: Alerts watch the p90: at q = 0.99 the eps = 0.05 rank margin would
#: leave every decision unchecked.
ALERT_Q = 0.9
ALERT_THRESHOLD = 60.0
#: Thresholds of the history scans: one per scan in every round.
SCAN_THRESHOLDS = (60.0, 80.0, 100.0)
WINDOW_QUANTILES = tuple(round(0.05 * i, 2) for i in range(1, 20)) + (0.99,)
#: One round: CURRENT_QUERIES quantile queries on the monitor's current
#: window and PAST_QUERIES on seeded past windows of the history, one scan
#: per threshold, then one flush of FLUSH_PANES panes.
CURRENT_QUERIES = 6
PAST_QUERIES = 6
FLUSH_PANES = 5


def latencies(rng: np.random.Generator, panes: int) -> np.ndarray:
    return rng.lognormal(BASE_MU, BASE_SIGMA, panes * PANE_SIZE)


def incident(rng: np.random.Generator, values: np.ndarray) -> None:
    """Slow a seeded SPIKE_SHARE of ``values`` in place."""
    hit = rng.random(values.size) < SPIKE_SHARE
    values[hit] *= SPIKE_FACTOR


def history_stream(rng: np.random.Generator) -> np.ndarray:
    values = latencies(rng, HISTORY_PANES)
    for start in range(10, HISTORY_PANES, INCIDENT_EVERY):
        incident(rng, values[start * PANE_SIZE:
                             (start + INCIDENT_PANES) * PANE_SIZE])
    return values


def flush_stream(rng: np.random.Generator, r: int) -> np.ndarray:
    values = latencies(rng, FLUSH_PANES)
    if r % INCIDENT_FLUSH_EVERY == 0:
        incident(rng, values)
    return values


class WindowAlert:
    name = "window_alert"

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.history = history_stream(np.random.default_rng([seed, 1]))
        self.monitor = None

    def setup(self):
        """Build the history panes, then feed the monitor one flush per
        step."""
        panes = build_panes(self.history, PANE_SIZE)
        self.backend = WindowBackend(panes[-SCAN_PANES:])
        self.panes = panes
        yield
        monitor = StreamingWindowMonitor(
            pane_size=PANE_SIZE, window_panes=WINDOW_PANES,
            threshold=ALERT_THRESHOLD, phi=ALERT_Q)
        flush_rows = 20 * PANE_SIZE
        session = IngestSession(monitor, flush_rows=flush_rows)
        for lo in range(0, self.history.size, flush_rows):
            session.append_columns(self.history[lo:lo + flush_rows])
            yield
        session.flush()
        self.monitor = monitor
        self.session = session

    def after_setup(self) -> None:
        self.values = [self.history]
        self.checked_states = len(self.monitor.states)
        scanned = self.history[-SCAN_PANES * PANE_SIZE:]
        self.scan_verdicts = {
            t: window_verdicts(scanned, PANE_SIZE, WINDOW_PANES, t, ALERT_Q)
            for t in SCAN_THRESHOLDS}

    # ------------------------------------------------------------------

    def _current_window(self) -> np.ndarray:
        stream_so_far = np.concatenate(self.values)
        return np.sort(stream_so_far[-WINDOW_PANES * PANE_SIZE:])

    def run_round(self, meter, r: int) -> None:
        rng = np.random.default_rng([self.seed, 2, r])
        current = self._current_window()
        starts = rng.integers(0, HISTORY_PANES - WINDOW_PANES + 1,
                              PAST_QUERIES)
        quantile = QuerySpec(kind="quantile", quantiles=WINDOW_QUANTILES)
        ops = [("current", None)] * CURRENT_QUERIES
        ops += [("past", int(start)) for start in starts]
        ops += [("scan", t) for t in SCAN_THRESHOLDS]
        for index in rng.permutation(len(ops)):
            kind, arg = ops[index]
            if kind == "current":
                response = meter.query(
                    "quantile", lambda: execute(quantile, self.monitor),
                    len(WINDOW_QUANTILES))
                if response is not None:
                    self._check_window_quantiles(meter, current, response)
            elif kind == "past":
                panes = self.panes[arg:arg + WINDOW_PANES]
                response = meter.query(
                    "quantile",
                    lambda: execute(quantile, WindowBackend(panes)),
                    len(WINDOW_QUANTILES))
                if response is not None:
                    rows = self.history[arg * PANE_SIZE:
                                        (arg + WINDOW_PANES) * PANE_SIZE]
                    self._check_window_quantiles(meter, np.sort(rows),
                                                 response)
            else:
                spec = QuerySpec(kind="windowed", quantiles=(ALERT_Q,),
                                 thresholds=(arg,),
                                 window=WindowSpec(WINDOW_PANES))
                windows = SCAN_PANES - WINDOW_PANES + 1
                response = meter.query(
                    "windowed", lambda: execute(spec, self.backend), windows)
                if response is not None:
                    self._check_scan(meter, spec, response)
            if response is not None:
                meter.observed.append(response)

        values = flush_stream(np.random.default_rng([self.seed, 3, r]), r)

        def flush():
            self.session.append_columns(values)
            return self.session.flush()

        report = meter.ingest("flush", flush, values.size)
        if report is not None:
            meter.observed.append(report)
            self.values.append(values)
            self._check_monitor(meter)

    def _check_window_quantiles(self, meter, current, response) -> None:
        problems = []
        if response.count != current.size:
            problems.append(f"count {response.count} != {current.size}")
        found, errors = check_quantiles(
            current, WINDOW_QUANTILES,
            [response.estimates[qkey(q)] for q in WINDOW_QUANTILES])
        meter.verdict("window quantile", problems + found, errors)

    def _check_scan(self, meter, spec, response) -> None:
        t = spec.thresholds[0]
        verdicts = self.scan_verdicts[t]
        first = self.backend.panes[0].index
        alerted = {alert["start_pane"] - first for alert in response.alerts}
        problems = []
        if response.merges != len(verdicts):
            problems.append(f"{response.merges} windows checked, "
                            f"{len(verdicts)} exist")
        for start, verdict in enumerate(verdicts):
            if verdict is not None and verdict != (start in alerted):
                problems.append(f"window {start} t={t}: alert="
                                f"{start in alerted}, exact says {verdict}")
        meter.verdict(f"windowed t={t}", problems)

    def _check_monitor(self, meter) -> None:
        """Every pane sealed by the flush decided its window correctly."""
        stream_so_far = np.concatenate(self.values)
        problems = []
        for state in self.monitor.states[self.checked_states:]:
            end = (state.pane_index + 1) * PANE_SIZE
            window = np.sort(stream_so_far[end - WINDOW_PANES * PANE_SIZE:end])
            verdict = threshold_verdict(window, ALERT_THRESHOLD, ALERT_Q)
            alerted = state.alert is not None
            if verdict is not None and verdict != alerted:
                problems.append(f"pane {state.pane_index}: alert={alerted}, "
                                f"exact says {verdict}")
            if state.window_count != window.size:
                problems.append(f"pane {state.pane_index}: window counts "
                                f"{state.window_count} != {window.size}")
        self.checked_states = len(self.monitor.states)
        meter.verdict("monitor flush", problems)

    # ------------------------------------------------------------------

    def final_check(self, meter) -> bool:
        written = sum(chunk.size for chunk in self.values)
        sealed = (self.monitor.states[-1].pane_index + 1) * PANE_SIZE
        if sealed != written:
            meter.report(f"monitor sealed {sealed} rows, {written} written")
            return False
        return True

    def stored_bytes_per_cell(self) -> float:
        return self.backend.store.size_bytes() / len(self.backend.panes)

    def layer_figures(self) -> dict:
        """Traced runs only: one remerge scan against one turnstile scan."""
        seconds = {}
        for name in ("turnstile", "remerge"):
            spec = QuerySpec(kind="windowed", quantiles=(ALERT_Q,),
                             thresholds=(ALERT_THRESHOLD,),
                             window=WindowSpec(WINDOW_PANES, strategy=name))
            start = time.perf_counter()
            execute(spec, self.backend)
            seconds[name] = time.perf_counter() - start
        return {"remerge_over_turnstile": seconds["remerge"]
                / seconds["turnstile"]}

    def close(self) -> None:
        self.monitor = None
