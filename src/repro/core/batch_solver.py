"""Batched maximum-entropy estimation: one Newton loop for many sketches.

The paper's profiling (Section 5.2, Figure 5) puts the per-group solve at
the top of every high-cardinality aggregation's cost profile, and the
scalar :func:`repro.core.solver.solve` pays the whole numpy dispatch
overhead once per group.  This module runs the *same* damped Newton
iteration for N bases at once:

* problems are grouped by basis shape ``(k1, k2, domain, grid)`` and their
  basis matrices stacked into one ``(P, m, G)`` block;
* each iteration is one stacked matmul per contraction — gradient,
  Hessian, dual potential — plus one stacked ``np.linalg.solve`` for the
  Newton steps, with per-problem convergence, damping, and line-search
  masks (a problem that converges drops out of the stack; a problem whose
  line search stalls is handled exactly like the scalar solver's stall);
* every converged solution is re-verified on the fine grid, batched;
* problems the stacked loop cannot settle (overflow, stalls above the
  relaxed tolerance, verification failures) fall back to the scalar
  solver one by one, so the hard cases get exactly the canonical
  treatment (including the caller-selected moment backoff ladder).

Numerically, numpy executes stacked matmuls and stacked LAPACK solves
slice by slice with the same kernels the scalar path calls, so each
problem's trajectory is independent of which other problems share its
batch — the property the cross-backend bit-exactness suite leans on —
and matches the scalar trajectory to the last ulp on mainstream BLAS
builds.  The contract the rest of the stack relies on is tolerance-based:
batched quantile estimates within 1e-6 of the scalar path, and identical
cascade/top-N decisions.

:func:`fit_estimators` is the high-level entry point: it batches moment
selection (:func:`repro.core.selector.select_moments_batch`), the Newton
solves, the Chebyshev-antiderivative CDF construction, and the monotone
CDF tabulation, and returns per-sketch
:class:`~repro.core.quantile.QuantileEstimator` objects that behave
exactly like scalar-fit ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from .chebyshev import (chebyshev_nodes, clenshaw_curtis_weights,
                        eval_chebyshev_series_stacked)
from .errors import ConvergenceError
from .quantile import QuantileEstimator
from .selector import MomentSelection, select_moments_batch
from .solver import (MaxEntBasis, MaxEntResult, SolverConfig,
                     _basis_matrices_stacked, _solve_newton_step,
                     build_bases_batch, solve)


@dataclass
class BatchSolveOutcome:
    """Per-problem results of one :func:`solve_batch` call.

    ``results[i]`` is the solved :class:`MaxEntResult` for ``bases[i]`` or
    ``None`` when the solve failed; ``errors[i]`` then holds the
    :class:`ConvergenceError` the scalar fallback raised.  ``stragglers``
    lists the indices that were re-run through the scalar solver;
    ``batched`` counts problems settled entirely by the stacked loop.
    """

    results: list
    errors: list
    stragglers: tuple
    batched: int


@dataclass(frozen=True)
class BatchEstimationReport:
    """How one :func:`fit_estimators` call split its work."""

    problems: int
    point_masses: int
    batched: int
    stragglers: int
    failures: int


# ----------------------------------------------------------------------
# Stacked evaluation helpers
# ----------------------------------------------------------------------

#: Rows per block in the CDF construction; bounds the transient
#: (rows, m, grid) basis and (rows, grid) tabulation arrays.
_CDF_ROWS_PER_BLOCK = 16

#: Chebyshev value tables by tabulation grid size (see below).
_VALUE_TABLES: dict[int, np.ndarray] = {}


def _chebyshev_value_table(grid_size: int, orders: int) -> np.ndarray:
    """``T[k, j] = T_k(u_j)`` for ``k < orders`` on the tabulation grid.

    The CDF tabulation evaluates each problem's antiderivative series on
    the same ``linspace(-1, 1, grid_size)`` grid; with the Chebyshev
    values precomputed once per grid, that evaluation collapses to one
    small matmul per problem instead of a length-L Clenshaw recurrence
    over the full grid.  The cached table only grows to the most orders
    requested; the recurrence fills rows in order, so a grown table's
    leading rows are bit-identical to the smaller one's.  The result
    may hold more than ``orders`` rows.  Threads that grow the same
    entry at once each return a table of their own and the last store
    wins, so no lock is needed: any stored table is exact.
    """
    table = _VALUE_TABLES.get(grid_size)
    done = 0 if table is None else len(table)
    if done >= orders:
        return table
    u = np.clip(np.linspace(-1.0, 1.0, grid_size), -1.0, 1.0)
    grown = np.empty((orders, grid_size))
    if table is not None:
        grown[:done] = table
    for order in range(done, orders):
        if order == 0:
            grown[0] = 1.0
        elif order == 1:
            grown[1] = u
        else:
            grown[order] = 2.0 * u * grown[order - 1] - grown[order - 2]
    grown.setflags(write=False)
    if len(_VALUE_TABLES) >= 8:
        _VALUE_TABLES.clear()
    _VALUE_TABLES[grid_size] = grown
    return grown


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products via stacked matmul (bit-equal to ``np.dot``)."""
    return np.matmul(a[:, None, :], b[..., None])[..., 0, 0]


def _potential_rows(theta: np.ndarray, B: np.ndarray, w: np.ndarray,
                    d: np.ndarray) -> np.ndarray:
    """Row-wise dual potential, mirroring :func:`solver.dual_potential`."""
    with np.errstate(over="ignore"):
        f = np.exp(np.matmul(theta[:, None, :], B)[:, 0, :])
    integral = np.matmul(f[:, None, :], w[:, None])[:, 0, 0]
    return integral - _row_dots(theta, d)


# ----------------------------------------------------------------------
# Stacked Newton
# ----------------------------------------------------------------------

def solve_batch(bases, config: SolverConfig | None = None) -> BatchSolveOutcome:
    """Solve many max-entropy duals with one stacked Newton loop per shape.

    Problems are grouped by ``(k1, k2, domain, grid size)``; each group
    runs the masked stacked iteration of :func:`_solve_group` and is then
    fine-grid verified in one batched pass.  Problems the batch cannot
    settle are re-solved by the scalar :func:`repro.core.solver.solve`
    (the straggler fallback), whose outcome — result or
    :class:`ConvergenceError` — is recorded verbatim.
    """
    config = config or SolverConfig()
    bases = list(bases)
    results: list = [None] * len(bases)
    errors: list = [None] * len(bases)
    groups: dict[tuple, list[int]] = {}
    for index, basis in enumerate(bases):
        key = (basis.k1, basis.k2, basis.domain, basis.matrix.shape[1])
        groups.setdefault(key, []).append(index)
    stragglers: list[int] = []
    batched = 0
    for indices in groups.values():
        group = [bases[i] for i in indices]
        thetas, meta, failed = _solve_group(group, config)
        verified_bad = _verify_group(group, thetas, meta, config)
        for local, basis in enumerate(group):
            if local in failed or local in verified_bad:
                stragglers.append(indices[local])
                continue
            iterations, grad_norm = meta[local]
            results[indices[local]] = MaxEntResult(
                basis, thetas[local].copy(), iterations, grad_norm, True)
            batched += 1
    for index in stragglers:
        try:
            results[index] = solve(bases[index], config)
        except ConvergenceError as exc:
            errors[index] = exc
    return BatchSolveOutcome(results=results, errors=errors,
                             stragglers=tuple(stragglers), batched=batched)


def _solve_group(bases: list, config: SolverConfig
                 ) -> tuple[np.ndarray, dict, set]:
    """Masked stacked Newton over same-shape bases.

    Returns ``(thetas, meta, failed)`` where ``meta[local] = (iterations,
    grad_norm)`` for every problem that converged (by gradient tolerance
    or the scalar solver's relaxed stall/cap acceptance) and ``failed``
    holds the local indices that must go to the scalar fallback.  Each
    problem's update sequence reproduces the scalar solver's exactly
    (same candidate points, same Armijo tests) via per-problem masks.
    """
    count = len(bases)
    m = bases[0].size
    theta = np.zeros((count, m))
    theta[:, 0] = np.log(0.5)  # uniform density integrating to 1 on [-1, 1]
    w = np.asarray(bases[0].weights)
    meta: dict[int, tuple[int, float]] = {}
    failed: set[int] = set()

    # Compacted working state: row i of these arrays belongs to problem
    # ``active[i]``.  Finished problems are compacted out instead of
    # re-gathering the full stack every iteration.
    active = np.arange(count)
    Ba = np.stack([b.matrix for b in bases])
    da = np.stack([b.targets for b in bases])
    tha = theta.copy()
    lva = _potential_rows(tha, Ba, w, da)
    gna = np.full(count, np.inf)  # latest gradient norm per working row

    def retire(keep: np.ndarray) -> None:
        nonlocal active, Ba, da, tha, lva, gna
        theta[active] = tha
        active = active[keep]
        Ba, da, tha, lva, gna = (Ba[keep], da[keep], tha[keep], lva[keep],
                                 gna[keep])

    for iteration in range(1, config.max_iterations + 1):
        if active.size == 0:
            break
        with np.errstate(over="ignore"):
            f = np.exp(np.matmul(tha[:, None, :], Ba)[:, 0, :])
        finite = np.isfinite(f).all(axis=1)
        wf = w * f
        with np.errstate(invalid="ignore"):
            grad = np.matmul(Ba, wf[:, :, None])[:, :, 0] - da
            gnorm = np.abs(grad).max(axis=1)
        gna = np.where(finite, gnorm, gna)
        failed.update(int(i) for i in active[~finite])  # density overflow
        conv = finite & (gnorm < config.gradient_tol)
        for position in np.flatnonzero(conv):
            meta[int(active[position])] = (iteration - 1, float(gna[position]))
        working = finite & ~conv
        if not working.all():
            grad, wf = grad[working], wf[working]
            retire(working)
        if active.size == 0:
            break
        hessian = np.matmul(Ba * wf[:, None, :], np.swapaxes(Ba, 1, 2))
        try:
            step = np.linalg.solve(hessian, grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # Some problem's Hessian is singular: give each problem the
            # scalar solver's progressive ridge treatment individually.
            step = np.stack([_solve_newton_step(hessian[i], grad[i],
                                                config.ridge)
                             for i in range(active.size)])
        slope = _row_dots(grad, step)
        # Backtracking line search (Armijo on the convex dual), masked:
        # each problem halves its own alpha until its own candidate is
        # accepted, probing exactly the points the scalar search would.
        alpha = np.ones(active.size)
        accepted = np.zeros(active.size, dtype=bool)
        for search in range(config.max_line_search_steps):
            if search == 0:
                pending = np.arange(active.size)
                candidate = tha - step
                cvalue = _potential_rows(candidate, Ba, w, da)
            else:
                pending = np.flatnonzero(~accepted)
                if pending.size == 0:
                    break
                candidate = (tha[pending]
                             - alpha[pending, None] * step[pending])
                cvalue = _potential_rows(candidate, Ba[pending], w,
                                         da[pending])
            ok = np.isfinite(cvalue) & (
                cvalue <= lva[pending] - 1e-4 * alpha[pending] * slope[pending])
            taken = pending[ok]
            tha[taken] = candidate[ok]
            lva[taken] = cvalue[ok]
            accepted[taken] = True
            alpha[pending[~ok]] *= 0.5
        stalled = ~accepted
        if stalled.any():
            for position in np.flatnonzero(stalled):
                local = int(active[position])
                if gna[position] <= config.relaxed_gradient_tol:
                    meta[local] = (iteration, float(gna[position]))
                else:
                    failed.add(local)  # line search failed to make progress
            retire(~stalled)
    # Iteration cap: accept under the relaxed tolerance, like the scalar
    # solver, else leave the problem to the straggler fallback.
    theta[active] = tha
    for position, local in enumerate(active):
        local = int(local)
        if gna[position] <= config.relaxed_gradient_tol:
            meta[local] = (config.max_iterations, float(gna[position]))
        else:
            failed.add(local)
    return theta, meta, failed


def _verify_group(bases: list, thetas: np.ndarray, meta: dict,
                  config: SolverConfig) -> set:
    """Batched fine-grid verification (see ``solver._verify_solution``).

    Returns the local indices whose converged solutions fail the
    twice-finer moment re-check — grid-aliased "solutions" on
    near-discrete data — which are then demoted to the scalar fallback
    so they surface the canonical :class:`ConvergenceError`.
    """
    converged = sorted(meta)
    if not converged:
        return set()
    fine_nodes = chebyshev_nodes(2 * config.grid_size)
    fine_weights = clenshaw_curtis_weights(2 * config.grid_size)
    group = [bases[local] for local in converged]
    matrices = _basis_matrices_stacked(group, fine_nodes)
    targets = np.stack([b.targets for b in group])
    theta_c = thetas[converged]
    with np.errstate(all="ignore"):
        f = np.exp(np.matmul(theta_c[:, None, :], matrices)[:, 0, :])
        achieved = np.matmul(matrices, (fine_weights * f)[:, :, None])[:, :, 0]
        deviation = np.abs(achieved - targets).max(axis=1)
    grad_norms = np.array([meta[local][1] for local in converged])
    tolerance = np.maximum(config.verification_tol, 100.0 * grad_norms)
    bad = ~np.isfinite(deviation) | (deviation > tolerance)
    rejected = set()
    for position in np.flatnonzero(bad):
        local = converged[position]
        rejected.add(local)
        del meta[local]
    return rejected


# ----------------------------------------------------------------------
# Batched estimator construction
# ----------------------------------------------------------------------

def fit_estimators(sketches, config: SolverConfig | None = None,
                   allow_backoff: bool = False
                   ) -> tuple[list, list, BatchEstimationReport]:
    """Fit a :class:`QuantileEstimator` per sketch with one batched solve.

    The batched counterpart of ``QuantileEstimator.fit`` called in a
    loop: selection, Newton, CDF construction, and tabulation all run
    stacked.  Returns ``(estimators, errors, report)`` aligned with the
    input; ``estimators[i]`` is ``None`` exactly when ``errors[i]`` holds
    the :class:`ConvergenceError` the scalar path would have raised.
    ``allow_backoff`` applies the scalar moment-backoff ladder to
    problems the batch could not settle (matching
    ``QuantileEstimator.fit(..., allow_backoff=True)``).
    """
    config = config or SolverConfig()
    sketches = list(sketches)
    estimators: list = [None] * len(sketches)
    errors: list = [None] * len(sketches)
    solvable: list[int] = []
    point_masses = 0
    for index, sketch in enumerate(sketches):
        sketch.require_nonempty()
        if not sketch.max > sketch.min:
            estimators[index] = QuantileEstimator._point_mass(sketch, config)
            point_masses += 1
        else:
            solvable.append(index)
    if not solvable:
        return estimators, errors, BatchEstimationReport(
            problems=len(sketches), point_masses=point_masses,
            batched=0, stragglers=0, failures=0)

    selections = select_moments_batch([sketches[i] for i in solvable], config)
    bases = build_bases_batch([sketches[i] for i in solvable],
                              [sel.k1 for sel in selections],
                              [sel.k2 for sel in selections], config)
    outcome = solve_batch(bases, config)

    stragglers = len(outcome.stragglers)
    failures = 0
    pending: list[tuple[int, MaxEntBasis, MaxEntResult, MomentSelection]] = []
    for position, index in enumerate(solvable):
        result = outcome.results[position]
        if result is not None:
            pending.append((index, bases[position], result,
                            selections[position]))
            continue
        # The scalar solve failed too; apply the caller-selected backoff
        # ladder (or record the canonical error).
        if allow_backoff:
            try:
                estimators[index] = QuantileEstimator.fit(
                    sketches[index], config=config, allow_backoff=True)
            except ConvergenceError as exc:
                errors[index] = exc
                failures += 1
        else:
            errors[index] = outcome.errors[position]
            failures += 1
    _attach_cdfs(pending, sketches, estimators, config)
    return estimators, errors, BatchEstimationReport(
        problems=len(sketches), point_masses=point_masses,
        batched=outcome.batched, stragglers=stragglers, failures=failures)


def _attach_cdfs(pending: list, sketches: list, estimators: list,
                 config: SolverConfig) -> None:
    """Build every solved problem's CDF table in stacked passes.

    Reproduces ``QuantileEstimator._build_cdf`` + ``_tabulate`` row-wise:
    density on the fine Lobatto grid, batched DCT interpolation, noise
    trimming, closed-form antiderivative, and the dense monotone CDF
    table — each an element-wise or slice-wise operation, so every row
    matches the scalar construction for the same theta.
    """
    by_shape: dict[tuple, list] = {}
    for entry in pending:
        basis = entry[1]
        by_shape.setdefault((basis.k1, basis.k2, basis.domain), []).append(entry)
    for entries in by_shape.values():
        group = [entry[1] for entry in entries]
        nodes = chebyshev_nodes(config.cdf_grid_size)
        theta = np.stack([entry[2].theta for entry in entries])
        # The (rows, m, grid) basis block is built a slice of rows at a
        # time: every row is independent, so the densities are the same,
        # and the transient block stays a few MB however many rows.
        density = np.empty((len(entries), nodes.size))
        for start in range(0, len(entries), _CDF_ROWS_PER_BLOCK):
            rows = slice(start, start + _CDF_ROWS_PER_BLOCK)
            matrices = _basis_matrices_stacked(group[rows], nodes)
            density[rows] = np.exp(
                np.matmul(theta[rows, None, :], matrices)[:, 0, :])
        coeffs = dct(density, type=1, axis=-1) / config.cdf_grid_size
        coeffs[:, 0] *= 0.5
        coeffs[:, -1] *= 0.5
        # Trim float dust below each row's relative noise floor (same rule
        # as the scalar build; rows with nothing significant keep full
        # length there too).
        full = coeffs.shape[1]
        above = np.abs(coeffs) > (np.abs(coeffs).max(axis=1) * 1e-14)[:, None]
        has_significant = above.any(axis=1)
        last = np.where(has_significant,
                        full - 1 - np.argmax(above[:, ::-1], axis=1), full - 1)
        trim_len = last + 1
        columns = np.arange(full)
        coeffs = np.where(columns[None, :] < trim_len[:, None], coeffs, 0.0)
        # Antiderivative of each trimmed series (chebyshev.antiderivative_
        # series vectorized over rows; entries past a row's own length are
        # zeroed so trailing-zero Clenshaw padding stays exact).
        padded = np.zeros((len(entries), full + 2))
        padded[:, :full] = coeffs
        anti = np.zeros((len(entries), full + 1))
        anti[:, 1] = padded[:, 0] - padded[:, 2] / 2.0
        orders = np.arange(2, full + 1)
        anti[:, 2:] = (padded[:, 1:full] - padded[:, 3:full + 2]) \
            / (2.0 * orders)
        anti_len = trim_len + 1
        anti_columns = np.arange(full + 1)
        anti = np.where(anti_columns[None, :] < anti_len[:, None], anti, 0.0)
        # Clenshaw over the longest row only: the zero columns past it
        # would leave every row's recurrence state untouched.
        width = int(anti_len.max())
        lo = eval_chebyshev_series_stacked(anti[:, :width], np.asarray(-1.0))
        hi = eval_chebyshev_series_stacked(anti[:, :width], np.asarray(1.0))
        scale = hi - lo
        degenerate = ~(hi > lo)
        by_grid: dict[tuple[int, int], list[int]] = {}
        for row in range(len(entries)):
            if degenerate[row]:
                # "solved density integrates to zero": re-run the scalar
                # fit so the canonical EstimationError (or a backoff
                # recovery) surfaces exactly as it would have.
                index = entries[row][0]
                estimators[index] = QuantileEstimator.fit(
                    sketches[index], config=config)
                continue
            # Rows are bucketed by their own padded series length (a
            # multiple of 64), never by their batch-mates', so a row's
            # tabulation is identical whatever batch it rides in.
            bucket = min(-(-int(anti_len[row]) // 64) * 64, anti.shape[1])
            by_grid.setdefault(
                (max(4 * int(anti_len[row]), 2049), bucket), []).append(row)
        for (grid_size, bucket), rows in by_grid.items():
            grid = np.linspace(-1.0, 1.0, grid_size)
            # One small matmul per problem against the cached Chebyshev
            # value table (per-slice, so each row is independent of its
            # batch-mates); agrees with the scalar Clenshaw evaluation to
            # ~1e-13 relative, far inside the 1e-6 estimate contract.
            table = _chebyshev_value_table(grid_size, bucket)[:bucket]
            for start in range(0, len(rows), _CDF_ROWS_PER_BLOCK):
                block = rows[start:start + _CDF_ROWS_PER_BLOCK]
                raw = np.matmul(anti[block][:, None, :bucket], table)[:, 0, :]
                values = np.clip((raw - lo[block, None]) / scale[block, None],
                                 0.0, 1.0)
                values = np.maximum.accumulate(values, axis=1)
                for position, row in enumerate(block):
                    index, basis, result, selection = entries[row]
                    estimators[index] = QuantileEstimator(
                        sketch=sketches[index], basis=basis, result=result,
                        selection=selection,
                        _cdf_coeffs=anti[row, :int(anti_len[row])].copy(),
                        _cdf_offset=float(lo[row]),
                        _cdf_scale=float(scale[row]),
                        _grid_u=grid, _grid_cdf=values[position].copy())


def estimate_quantiles_batch(sketches, qs, config: SolverConfig | None = None,
                             allow_backoff: bool = True) -> np.ndarray:
    """Quantile estimates for many sketches, ``(N, len(qs))``, batched.

    Convenience wrapper over :func:`fit_estimators` with the production
    degradation of ``MomentsSummary``: problems that stay non-convergent
    even after backoff fall back to the two-point-mass model of
    :func:`repro.core.quantile.safe_estimate_quantiles`.
    """
    from .quantile import safe_estimate_quantiles

    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    estimators, _, _ = fit_estimators(sketches, config,
                                      allow_backoff=allow_backoff)
    out = np.empty((len(estimators), qs.size))
    for row, (sketch, estimator) in enumerate(zip(sketches, estimators)):
        if estimator is None:
            out[row] = safe_estimate_quantiles(sketch, qs, config=config)
        else:
            out[row] = estimator.quantiles(qs)
    return out
