"""Exact answers over the rows a workload generated, for checking estimates.

Everything here is plain numpy over the benchmark's own copy of the rows;
nothing imports the program under test.  Ranks follow the paper's Eq. 1
with tie ranges: a value ``x`` occupies every rank from ``#{v < x}`` to
``#{v <= x}``, and an estimate for the ``q``-quantile is exact when
``q * n`` falls inside that range.
"""

from __future__ import annotations

import math

import numpy as np

#: The rank-error contract every quantile answer is held to.
EPSILON = 0.05


def rank_range(sorted_values: np.ndarray, x: float) -> tuple[int, int]:
    """``(#{v < x}, #{v <= x})`` over an ascending array."""
    lo = int(np.searchsorted(sorted_values, x, side="left"))
    hi = int(np.searchsorted(sorted_values, x, side="right"))
    return lo, hi


def rank_error(sorted_values: np.ndarray, estimate: float, q: float) -> float:
    """Eq. 1 rank error of ``estimate`` as the ``q``-quantile, tie-aware."""
    n = sorted_values.size
    lo, hi = rank_range(sorted_values, estimate)
    target = q * n
    if lo <= target <= hi:
        return 0.0
    return min(abs(lo - target), abs(hi - target)) / n


def valid_interval(sorted_values: np.ndarray, q: float,
                   eps: float = EPSILON) -> tuple[float, float]:
    """Smallest and largest admissible estimates of the ``q``-quantile.

    An estimate is admissible when its rank error is at most ``eps`` and
    it lies inside the data's ``[min, max]``.  Both ends are data values,
    and every admissible estimate lies between them (one between two
    data points has an empty tie range, so it does no better than they).
    """
    n = sorted_values.size
    # lowest x with #{v <= x} >= (q - eps) n
    low_rank = max(math.ceil((q - eps) * n - 1e-9), 1)
    # highest x with #{v < x} <= (q + eps) n
    high_rank = min(math.floor((q + eps) * n + 1e-9), n - 1)
    return float(sorted_values[low_rank - 1]), float(sorted_values[high_rank])


def threshold_verdict(sorted_values: np.ndarray, t: float, q: float,
                      eps: float = EPSILON) -> bool | None:
    """The exact answer to ``quantile(q) > t`` outside the eps rank margin.

    ``True`` or ``False`` when every admissible estimate gives that
    answer, ``None`` when ``t`` sits inside the margin and either answer
    is acceptable.
    """
    low, high = valid_interval(sorted_values, q, eps)
    if low > t:
        return True
    if high <= t:
        return False
    return None


def check_quantiles(sorted_values: np.ndarray, qs, estimates,
                    eps: float = EPSILON) -> tuple[list[str], list[float]]:
    """Problems with a set of quantile estimates of one cell subset.

    Returns ``(problems, rank_errors)``: every estimate must be within
    ``eps`` rank error, inside the subset's ``[min, max]``, and the
    estimates must be monotone in ``q``.
    """
    problems = []
    errors = []
    lo_value, hi_value = float(sorted_values[0]), float(sorted_values[-1])
    pairs = sorted(zip(qs, estimates))
    for q, est in pairs:
        error = rank_error(sorted_values, est, q)
        errors.append(error)
        if not error <= eps:
            problems.append(f"q={q}: estimate {est!r} has rank error "
                            f"{error:.4f} > {eps}")
        if not lo_value <= est <= hi_value:
            problems.append(f"q={q}: estimate {est!r} outside "
                            f"[{lo_value!r}, {hi_value!r}]")
    for (q1, e1), (q2, e2) in zip(pairs, pairs[1:]):
        if e2 < e1:
            problems.append(f"estimates not monotone: q={q1} -> {e1!r}, "
                            f"q={q2} -> {e2!r}")
    return problems, errors


def check_bounds(sorted_values: np.ndarray, t: float, lower: float,
                 upper: float) -> list[str]:
    """A rank bound on ``#{v < t}`` must bracket the exact count.

    Ties at ``t`` are allowed either side, and a relative slack of 1e-9
    absorbs float rounding in the bound arithmetic.
    """
    below, at_or_below = rank_range(sorted_values, t)
    slack = 1e-9 * sorted_values.size
    problems = []
    if lower > at_or_below + slack:
        problems.append(f"t={t!r}: lower bound {lower!r} above exact "
                        f"count {below}..{at_or_below}")
    if upper < below - slack:
        problems.append(f"t={t!r}: upper bound {upper!r} below exact "
                        f"count {below}..{at_or_below}")
    return problems


def check_top_n(groups: dict, q: float, n: int, returned: list,
                eps: float = EPSILON) -> list[str]:
    """Check a top-n ranking by ``q``-quantile against exact groups.

    ``groups`` maps group value -> ascending array; ``returned`` is the
    ``[(group, estimate), ...]`` answer.  A group that every admissible
    estimate ranks inside the top n must be returned; a group at least n
    others certainly beat must not be.
    """
    problems = []
    intervals = {g: valid_interval(values, q, eps)
                 for g, values in groups.items()}
    chosen = [g for g, _ in returned]
    if len(chosen) != min(n, len(groups)) or len(set(chosen)) != len(chosen):
        problems.append(f"top_n returned {len(chosen)} groups for n={n}")
    for g, est in returned:
        if g not in groups:
            problems.append(f"top_n returned unknown group {g!r}")
            continue
        problems += check_quantiles(groups[g], [q], [est], eps)[0]
    lows = np.array([iv[0] for iv in intervals.values()])
    highs = np.array([iv[1] for iv in intervals.values()])
    for g, (low, high) in intervals.items():
        # Others that might tie or beat g, and others that surely beat it.
        rivals = int(np.count_nonzero(highs >= low)) - 1
        beaten_by = int(np.count_nonzero(lows > high))
        if rivals < n and g not in chosen:
            problems.append(f"top_n missed group {g!r}")
        if beaten_by >= n and g in chosen:
            problems.append(f"top_n returned group {g!r} that {beaten_by} "
                            f"groups surely beat")
    return problems


def window_verdicts(values: np.ndarray, pane_size: int, window_panes: int,
                    t: float, q: float, eps: float = EPSILON) -> list:
    """Exact :func:`threshold_verdict` for every full sliding window.

    ``values`` is the time-ordered stream; window ``i`` covers panes
    ``i .. i + window_panes - 1``.
    """
    panes = values.size // pane_size
    out = []
    width = pane_size * window_panes
    for start in range(panes - window_panes + 1):
        chunk = np.sort(values[start * pane_size:start * pane_size + width])
        out.append(threshold_verdict(chunk, t, q, eps))
    return out
