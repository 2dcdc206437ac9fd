"""B-spline bases for additive location and dispersion functions.

Knots are placed at equally spaced quantiles of the observed covariate and
the basis is evaluated by the Cox-de Boor recursion. design.expand_design
centers the basis columns and drops the last, so the constant direction of
every smooth stays with the intercepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, SpecError


@dataclass(frozen=True)
class BasisDef:
    """Knot vector and dimensions of one B-spline basis."""

    degree: int
    n_basis: int
    knots: tuple  # length n_basis + degree + 1, nondecreasing
    lo: float
    hi: float


def knot_sequence(x, n_basis: int, degree: int = 3) -> BasisDef:
    """Build a knot vector for ``n_basis`` B-splines of the given degree.

    Boundary knots sit at min(x)/max(x), each repeated degree+1 times;
    the n_basis - degree - 1 interior knots sit at equally spaced quantiles.
    """
    x = np.asarray(x, dtype=float)
    if degree < 0:
        raise InvalidInputError(f"degree must be >= 0, got {degree}")
    if n_basis < degree + 1:
        raise SpecError(
            f"n_basis={n_basis} is below the minimum degree+1={degree + 1}"
        )
    distinct = np.unique(x)
    if distinct.size < n_basis:
        raise SpecError(
            f"need at least {n_basis} distinct values to place knots, "
            f"got {distinct.size}"
        )
    lo, hi = float(distinct[0]), float(distinct[-1])
    n_interior = n_basis - degree - 1
    if n_interior > 0:
        qs = np.arange(1, n_interior + 1) / (n_interior + 1)
        interior = np.quantile(x, qs)
    else:
        interior = np.empty(0)
    knots = np.concatenate([np.full(degree + 1, lo), interior, np.full(degree + 1, hi)])
    return BasisDef(degree=degree, n_basis=n_basis, knots=tuple(knots), lo=lo, hi=hi)


def bspline_basis(x, basis: BasisDef) -> np.ndarray:
    """Evaluate all basis functions at ``x`` (scalar or array).

    Values outside [lo, hi] are clamped to the boundary. Returns shape
    (..., n_basis); rows are nonnegative and sum to 1.
    """
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x must be finite")
    x = np.clip(x, basis.lo, basis.hi)
    t = np.asarray(basis.knots)
    d, m = basis.degree, basis.n_basis

    # degree-0 indicators on half-open intervals, closing the last one at hi
    n_cells = len(t) - 1
    b = np.zeros((x.size, n_cells))
    for s in range(n_cells):
        if t[s + 1] > t[s]:
            b[:, s] = (x >= t[s]) & (x < t[s + 1])
    last = np.max(np.nonzero(np.diff(t) > 0)[0])
    b[x == basis.hi, :] = 0.0
    b[x == basis.hi, last] = 1.0

    for deg in range(1, d + 1):
        nb = np.zeros((x.size, n_cells - deg))
        for s in range(n_cells - deg):
            left = t[s + deg] - t[s]
            if left > 0:
                nb[:, s] += (x - t[s]) / left * b[:, s]
            right = t[s + deg + 1] - t[s + 1]
            if right > 0:
                nb[:, s] += (t[s + deg + 1] - x) / right * b[:, s + 1]
        b = nb

    assert b.shape[1] == m
    return b[0] if scalar else b

