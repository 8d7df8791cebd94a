"""Canonical quantile-fraction validation shared by every engine surface.

Every public entry point takes the quantile fraction as ``q``; the
fraction arrives from outside input (CLI flags, JSON specs, library
calls), so :func:`normalize_q` resolves its default and checks that it
lies in (0, 1) in one place.
"""

from __future__ import annotations

from .errors import QueryError


def normalize_q(q: float | None = None, default: float | None = None) -> float:
    """Resolve the quantile fraction ``q`` (or ``default`` when omitted).

    Raises :class:`QueryError` when neither is given or the fraction is
    outside (0, 1).
    """
    if q is None:
        if default is None:
            raise QueryError("a quantile fraction q is required")
        q = default
    q = float(q)
    if not 0.0 < q < 1.0:
        raise QueryError(f"quantile fraction must be in (0, 1), got {q}")
    return q
