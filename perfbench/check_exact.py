"""Self-tests of the exact-answer checker against brute-force sorted lists.

Run from the repository root with ``python3 perfbench/check_exact.py``
(exits non-zero on a failure).  Every checker function is compared with
a direct count over a plain Python list, on continuous values and on
discrete values with many ties.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from exact import (EPSILON, check_bounds, check_quantiles,  # noqa: E402
                   check_top_n, rank_error, rank_range, threshold_verdict,
                   valid_interval, window_verdicts)


def brute_error(data: list[float], x: float, q: float) -> float:
    below = sum(1 for v in data if v < x)
    at_or_below = sum(1 for v in data if v <= x)
    target = q * len(data)
    if below <= target <= at_or_below:
        return 0.0
    return min(abs(below - target), abs(at_or_below - target)) / len(data)


def candidates(data: list[float]) -> list[float]:
    """Every distinct kind of estimate: data values, midpoints, outside."""
    values = sorted(set(data))
    mids = [(a + b) / 2 for a, b in zip(values, values[1:])]
    return values + mids + [values[0] - 1.0, values[-1] + 1.0]


def admissible(data: list[float], q: float) -> list[float]:
    """Candidates inside [min, max] within the rank-error contract."""
    return [x for x in candidates(data)
            if data[0] <= x <= data[-1] and brute_error(data, x, q) <= EPSILON]


def datasets():
    rng = np.random.default_rng(7)
    yield "continuous", rng.lognormal(1.0, 1.0, 97)
    yield "ties", rng.integers(0, 5, 120).astype(float)
    yield "few ties", np.concatenate([rng.normal(0, 1, 50), np.full(40, 0.5)])
    yield "one value", np.full(30, 2.0)


QS = (0.01, 0.05, 0.3, 0.5, 0.9, 0.97, 0.99)


def test_rank_range_and_error():
    for _, data in datasets():
        ordered = np.sort(data)
        plain = sorted(data.tolist())
        for x in candidates(plain):
            assert rank_range(ordered, x) == (
                sum(v < x for v in plain), sum(v <= x for v in plain))
            for q in QS:
                assert math.isclose(rank_error(ordered, x, q),
                                    brute_error(plain, x, q), abs_tol=1e-12)


def test_valid_interval():
    for name, data in datasets():
        ordered = np.sort(data)
        plain = sorted(data.tolist())
        for q in QS:
            ok = admissible(plain, q)
            assert valid_interval(ordered, q) == (min(ok), max(ok)), (name, q)


def test_threshold_verdict():
    for name, data in datasets():
        ordered = np.sort(data)
        plain = sorted(data.tolist())
        for q in QS:
            ok = admissible(plain, q)
            for t in candidates(plain):
                answers = {x > t for x in ok}
                expected = answers.pop() if len(answers) == 1 else None
                assert threshold_verdict(ordered, t, q) == expected, (
                    name, q, t)


def test_check_quantiles():
    data = np.sort(np.random.default_rng(3).integers(0, 4, 200).astype(float))
    exact = [float(np.quantile(data, q, method="inverted_cdf")) for q in QS]
    problems, errors = check_quantiles(data, QS, exact)
    assert problems == [] and max(errors) == 0.0
    problems, _ = check_quantiles(data, (0.1, 0.9), [3.0, 0.0])
    assert any("monotone" in p for p in problems)
    assert any("rank error" in p for p in problems)
    problems, _ = check_quantiles(data, (0.5,), [9.0])
    assert any("outside" in p for p in problems)


def test_check_bounds():
    data = np.sort(np.array([1.0, 2.0, 2.0, 2.0, 3.0]))
    assert check_bounds(data, 2.0, 1.0, 4.0) == []   # exact count 1..4
    assert check_bounds(data, 2.0, 0.0, 1.0) == []   # ties: 1 below 2.0
    assert check_bounds(data, 2.0, 4.5, 5.0) != []   # lower above 4
    assert check_bounds(data, 2.5, 0.0, 3.0) != []   # 4 below 2.5


def test_check_top_n():
    rng = np.random.default_rng(5)
    groups = {g: np.sort(rng.normal(10.0 * g, 1.0, 400)) for g in range(6)}
    best = [(g, float(np.quantile(groups[g], 0.9))) for g in (5, 4, 3)]
    assert check_top_n(groups, 0.9, 3, best) == []
    wrong = [(5, best[0][1]), (4, best[1][1]),
             (0, float(np.quantile(groups[0], 0.9)))]
    problems = check_top_n(groups, 0.9, 3, wrong)
    assert any("missed group 3" in p for p in problems)
    assert any("returned group 0" in p for p in problems)
    # Two groups equal up to sampling noise: either may take the last place.
    groups[6] = np.sort(rng.normal(40.0, 1.0, 400))
    for pick in (4, 6):
        answer = [(5, best[0][1]), (pick, float(np.quantile(groups[pick], 0.9)))]
        assert check_top_n(groups, 0.9, 2, answer) == [], pick


def test_window_verdicts():
    rng = np.random.default_rng(9)
    values = rng.integers(0, 20, 10 * 30).astype(float)
    got = window_verdicts(values, 30, 4, 12.0, 0.6)
    for start, verdict in enumerate(got):
        window = sorted(values[start * 30:(start + 4) * 30].tolist())
        answers = {x > 12.0 for x in admissible(window, 0.6)}
        assert verdict == (answers.pop() if len(answers) == 1 else None)
    assert len(got) == 7


def main() -> int:
    tests = [fn for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc!r}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
