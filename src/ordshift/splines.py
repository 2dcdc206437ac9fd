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

    def __post_init__(self):
        # clamped: bspline_basis evaluates the degree+1 B-splines of a row's
        # knot interval, which exist for every x in [lo, hi] only then
        d, t = self.degree, self.knots
        if (len(t) != self.n_basis + d + 1 or any(a > b for a, b in zip(t, t[1:]))
                or not self.lo < self.hi
                or set(t[:d + 1]) != {self.lo} or set(t[-d - 1:]) != {self.hi}):
            raise InvalidInputError(
                f"knots must be {self.n_basis + d + 1} nondecreasing values that begin "
                f"with lo={self.lo} and end with hi={self.hi} > lo, each {d + 1} times; "
                f"got {t}"
            )


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
    if distinct.size < max(n_basis, 2):
        raise SpecError(
            f"need at least {max(n_basis, 2)} distinct values to place knots, "
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
    (..., n_basis); rows are nonnegative and sum to 1. Only the degree+1
    B-splines of each row's knot interval are evaluated, by the Cox-de Boor
    recurrence in its full-width order of operations: the others are zero.
    """
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x must be finite")
    x = np.clip(x, basis.lo, basis.hi)
    t = np.asarray(basis.knots)
    d, m = basis.degree, basis.n_basis

    # the knot interval of each row, half-open [t[mu], t[mu+1]) and the last
    # nonempty one, which ends at the first hi, closed: its degree-0
    # B-spline is the row's only nonzero one, and of degree d only B-splines
    # mu-d..mu can be nonzero
    mu = np.searchsorted(t, x, side="right") - 1
    mu[x == basis.hi] = basis.knots.index(basis.hi) - 1
    # one row per knot offset, one column per x
    window = t[np.arange(1 - d, d + 1)[:, None] + mu]  # t[mu-d+1], ..., t[mu+d]
    lo_t, hi_t = window[:d], window[d:]
    from_lo, to_hi = x - lo_t, hi_t - x
    b = np.ones((1, x.size))
    for deg in range(1, d + 1):
        # b holds B-splines mu-deg+1..mu of degree deg-1; B-spline s of
        # degree deg is (x - t[s]) / left * b[s] + (t[s+deg+1] - x) / right
        # * b[s+1], where b[s] has support left = t[s+deg] - t[s] and b[s+1]
        # right. An empty support holds a zero B-spline, whose term is zero:
        # its span is taken as 1.
        span = hi_t[:deg] - lo_t[d - deg:]
        span += span == 0
        nb = np.zeros((deg + 1, x.size))
        nb[1:] = from_lo[d - deg:] / span * b
        nb[:-1] += to_hi[:deg] / span * b
        b = nb
    # B-spline mu-d+j of row i, flat index i*m + mu-d+j, is b[j, i]
    out = np.zeros((x.size, m))
    out.ravel()[np.arange(d + 1)[:, None] + (np.arange(0, x.size * m, m) + mu - d)] = b
    return out[0] if scalar else out
