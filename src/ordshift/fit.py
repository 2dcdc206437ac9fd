"""Maximum-likelihood fitting of the ordinal models by Fisher scoring.

Reverse-representation specs are fitted canonically on the relabeled response
k+1-y and re-expressed afterwards: both families keep identical location and
dispersion coefficients under relabeling while the intercept (and any
category-specific) blocks reverse their index order, which reproduces the
reversed scaling factor exactly. That index reversal is an involution, so the
same permutation converts parameters in either direction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import OrdinalDataset
from .design import ModelSpec, ParamLayout, expand_design, make_layout
from .exceptions import (
    DataError,
    SeparationWarning,
    SpecError,
    StartError,
    ThresholdOrderError,
    ZeroProbabilityWarning,
)
from .links import PROB_FLOOR, Family, LogitLink, category_probs, scaling_factors

SEPARATION_BOUND = 30.0
WEIGHT_FLOOR = 1e-12  # probability floor inside score/information weights
# Rows per evaluation block of _Problem: a block's (rows, k-1) temporaries
# (288 KB at k=10) stay in cache and are reused by the allocator.
BLOCK_ROWS = 4096


@dataclass
class FitResult:
    """Estimates, covariance, and diagnostics of one fitted model."""

    spec: ModelSpec
    layout: ParamLayout
    params: np.ndarray
    covariance: np.ndarray
    loglik: float
    deviance: float
    n: int
    k: int
    iterations: int
    converged: bool
    monotonicity_ok: bool | None
    se_unavailable: np.ndarray
    warnings: list = field(default_factory=list)
    smooths: dict = field(default_factory=dict)
    variables: list = field(default_factory=list)

    @property
    def names(self):
        return self.layout.names

    @property
    def n_params(self) -> int:
        return int(self.params.size)

    @property
    def df_residual(self) -> int:
        """Residual degrees of freedom n(k-1) - n_params."""
        return self.n * (self.k - 1) - self.n_params

    @property
    def structure(self) -> str:
        return self.spec.structure


def _check_categories(data: OrdinalDataset) -> None:
    counts = data.category_counts()
    empty = np.nonzero(counts == 0)[0] + 1
    if empty.size:
        raise DataError(
            f"response categories {empty.tolist()} are unobserved; "
            "merge categories before fitting"
        )


class _Problem:
    """One (spec, data) pair compiled once for likelihood, score and information.

    Reverse specs are compiled on the relabeled response with the canonical
    family; ``perm`` maps parameter vectors between the reported and the
    canonical order (the identity for forward specs). Every design row of a
    global or location-shift spec is D_i = [I | 1 x_i' | w z_i'], and row r of
    a category-specific spec holds [1, x_i'] in threshold r's slots, so the
    predictors, the score and the information are assembled from X, Z and the
    scaling weights w without materializing the (n, k-1, n_params) tensor.
    The per-observation information in predictor space is kept in its
    structured form as well, never as an (n, k-1, k-1) array: tridiagonal
    bands for the cumulative family (_Tridiagonal), semiseparable factors for
    the adjacent family (_Semiseparable).

    Predictors, probabilities, score and information are evaluated over
    fixed blocks of BLOCK_ROWS rows, and the score and information are the
    sums of the per-block contributions. A block's (rows, k-1) temporaries
    stay in cache and the allocator recycles them from block to block, where
    fresh (n, k-1) temporaries page-fault on every pass; only eta, the
    probabilities and the cumulative logit's kept F(eta) are whole arrays.
    With n <= BLOCK_ROWS there is a single block.
    """

    def __init__(self, data: OrdinalDataset, spec: ModelSpec):
        self.reverse = spec.family.reverse
        if self.reverse:
            spec = replace(spec, family=Family(spec.family.kind, reverse=False))
            data = data.relabeled()
        self.spec = spec
        self.design = expand_design(data, spec)
        self.layout = make_layout(self.design, spec, data.k)
        self.y0 = data.y - 1
        self.X, self.Z = self.design.X, self.design.Z
        self.w = scaling_factors(spec.family, data.k)
        self.perm = (
            _reverse_permutation(self.layout) if self.reverse
            else np.arange(self.layout.n_params)
        )
        n, q = data.n, data.k - 1
        self.blocks = [slice(i, min(i + BLOCK_ROWS, n)) for i in range(0, n, BLOCK_ROWS)]
        self.ones = np.ones(self.blocks[0].stop)  # column sums of a block as ones @ block
        # F(eta) of the latest probs() call and that eta (cumulative logit only)
        keep_cdf = spec.family.kind == "cumulative" and isinstance(spec.link, LogitLink)
        self._cdf = np.empty((n, q)) if keep_cdf else None
        self._cdf_eta = None
        if spec.family.kind == "cumulative":
            self._weights = _Tridiagonal
        else:
            self._weights = _Semiseparable
            r = np.arange(q)
            # probs @ below_of = P(Y <= r); upto[s, r] = 1 when s <= r
            self.below_of = (np.arange(data.k)[:, None] <= r).astype(float)
            self.above_of = 1.0 - self.below_of
            self.upto = np.triu(np.ones((q, q)))
            self.after = 1.0 - self.upto
            # response masks of the score: 1 where y_i > r, and its complement
            self.y_above = (self.y0[:, None] > r).astype(float)
            self.y_below = 1.0 - self.y_above
        if spec.structure == "catspec":
            p = self.layout.p
            self._X1 = np.hstack([np.ones((n, 1)), self.X])
            self._X1X1 = (self._X1[:, :, None] * self._X1[:, None, :]).reshape(n, -1)
            # parameter slot of (threshold r, column j of [1, x])
            j = np.arange(p + 1)[None, :]
            r = np.arange(q)[:, None]
            self._slots = np.where(j == 0, r, q + r * p + j - 1).ravel()

    def canonical(self, params) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        if params.shape != (self.layout.n_params,):
            raise SpecError(f"expected {self.layout.n_params} parameters, got {params.shape}")
        return params[self.perm]

    def initial_params(self) -> np.ndarray:
        """Intercepts at the marginal cumulative quantiles (cumulative) or
        adjacent log-ratios, every covariate effect zero."""
        layout = self.layout
        counts = np.bincount(self.y0, minlength=layout.k).astype(float)
        theta = np.zeros(layout.n_params)
        if self.spec.family.kind == "cumulative":
            cum = np.cumsum(counts)[: layout.q] / counts.sum()
            theta[: layout.q] = self.spec.link.quantile(cum)
        else:
            theta[: layout.q] = np.log(counts[1:] / counts[:-1])
        return theta

    def eta(self, theta: np.ndarray) -> np.ndarray:
        """(n, k-1) linear predictors at canonical ``theta``."""
        layout = self.layout
        q = layout.q
        out = np.empty((self.y0.size, q))
        for rows in self.blocks:
            block = out[rows]
            if layout.structure == "catspec":
                np.add(theta[:q], self.X[rows] @ theta[q:].reshape(q, layout.p).T, out=block)
            else:
                np.add(theta[:q], (self.X[rows] @ theta[layout.location])[:, None], out=block)
                if layout.m:
                    block += (self.Z[rows] @ theta[layout.dispersion])[:, None] * self.w
        return out

    def probs(self, eta: np.ndarray) -> np.ndarray:
        """(n, k) category probabilities at ``eta``. For the cumulative logit
        model the F(eta) of the latest call is kept, in one buffer per
        problem, for the density of a score_info call at that same eta."""
        out = np.empty((eta.shape[0], self.layout.k))
        cdf = self._cdf
        self._cdf_eta = None  # the buffer is rewritten block by block
        for rows in self.blocks:
            out[rows] = category_probs(
                self.spec.family, self.spec.link, eta[rows],
                None if cdf is None else cdf[rows],
            )
        if cdf is not None:
            self._cdf_eta = eta
        return out

    def density(self, eta: np.ndarray, rows: slice) -> np.ndarray:
        """Link density F'(eta) of one block of rows. When ``eta`` is the
        array probs() was last called with (predictor arrays are never
        modified in place), the logistic F' = F (1 - F) comes from the F kept
        there, bit for bit LogitLink.density without a second evaluation."""
        if self._cdf_eta is not eta:
            return self.spec.link.density(eta[rows])
        F = self._cdf[rows]
        return F * (1.0 - F)

    def picked(self, probs: np.ndarray) -> np.ndarray:
        """Probability of each observation's own response category."""
        return probs[np.arange(self.y0.size), self.y0]

    def loglik(self, probs: np.ndarray) -> float:
        return float(np.log(np.maximum(self.picked(probs), PROB_FLOOR)).sum())

    def score_info(self, eta: np.ndarray, probs: np.ndarray):
        """Observed score and expected information in canonical order.

        u_i = d log pi_{y_i} / d eta_i and W_i = sum_c pi_c A_c A_c' with
        A_c = d log pi_c / d eta are each observation's score and information
        in predictor space, in the closed forms of the multinomial GLM
        (Fahrmeir & Tutz, Multivariate Statistical Modelling Based on GLMs).
        Global and location-shift blocks need only sum_i u_i, u_i 1, u_i w,
        sum_i W_i, W_i 1 and W_i w, and the quadratic forms of the last two
        against X and Z; the category-specific information contracts only
        the threshold pairs (r, s) where W_i[r, s] can be nonzero,
        (pairs, n) @ (n, (p+1)^2). No (n, k-1, k-1) array is formed, and
        every sum over observations is accumulated block by block.
        """
        layout = self.layout
        q, size = layout.q, layout.n_params
        s = np.zeros(size)
        info = np.zeros((size, size))
        if layout.structure == "catspec":
            p1 = layout.p + 1
            score_sum = np.zeros((q, p1))
            pair_sum = 0.0
            for rows in self.blocks:
                weights = self._weights(self, rows, eta, probs)
                score_sum += weights.score().T @ self._X1[rows]
                pair_rows, pair_cols, pair_weights = weights.pairs()
                pair_sum = pair_sum + pair_weights @ self._X1X1[rows]
            s[self._slots] = score_sum.ravel()
            pair_blocks = pair_sum.reshape(-1, p1, p1)
            blocks = np.zeros((q, q, p1, p1))
            blocks[pair_rows, pair_cols] = pair_blocks
            blocks[pair_cols, pair_rows] = pair_blocks
            info[np.ix_(self._slots, self._slots)] = blocks.transpose(0, 2, 1, 3).reshape(size, size)
        else:
            w, loc, disp = self.w, layout.location, layout.dispersion
            ones = np.ones(q)
            for rows in self.blocks:
                weights = self._weights(self, rows, eta, probs)
                X = self.X[rows]
                s_int, u1, uw = weights.score_sums(w)
                W1 = weights.times(ones)
                s[:q] += s_int
                s[loc] += X.T @ u1
                info[:q, :q] += weights.total()
                info[:q, loc] += W1.T @ X
                info[loc, loc] += X.T @ ((W1 @ ones)[:, None] * X)
                if layout.m:
                    Z = self.Z[rows]
                    Ww = weights.times(w)
                    s[disp] += Z.T @ uw
                    info[:q, disp] += Ww.T @ Z
                    info[loc, disp] += X.T @ ((Ww @ ones)[:, None] * Z)
                    info[disp, disp] += Z.T @ ((Ww @ w)[:, None] * Z)
        upper = np.triu_indices(size, 1)
        info[upper[::-1]] = info[upper]
        return s, info


class _Tridiagonal:
    """Cumulative-family score and weights of one block of rows: W_i is
    tridiagonal, so products with it are three-term band sums and only its
    two bands are stored.

    With f_r = F'(eta_r) and probabilities floored at WEIGHT_FLOOR (pi~),
    a_r = f_r / pi~_r = d log pi_r / d eta_r and b_r = f_r / pi~_{r+1} =
    -d log pi_{r+1} / d eta_r, the diagonal is d_r = pi_r a_r^2 + pi_{r+1} b_r^2
    and the off-diagonal o_r = W[r, r+1] = -pi_{r+1} b_r a_{r+1}. The score
    u_i has at most two nonzeros, a_{y_i} at r = y_i and -b_{y_i - 1} at
    r = y_i - 1 (0-based categories), both over pi~ of the observed category.
    """

    def __init__(self, problem, rows, eta, probs):
        probs = probs[rows]
        n, k = probs.shape
        q = k - 1
        y0 = problem.y0[rows]
        self.y0, self.k, self.ones = y0, k, problem.ones[:n]
        f = problem.density(eta, rows)
        g = probs / np.maximum(probs, WEIGHT_FLOOR) ** 2  # pi_c / pi~_c^2
        self.d = f * f * (g[:, :q] + g[:, 1:])
        self.o = -f[:, :-1] * f[:, 1:] * g[:, 1:q]
        index = np.arange(n)
        picked = np.maximum(probs[index, y0], WEIGHT_FLOOR)
        self.ua = np.where(y0 < q, f[index, np.minimum(y0, q - 1)], 0.0) / picked
        self.ub = np.where(y0 > 0, f[index, np.maximum(y0 - 1, 0)], 0.0) / picked

    def score_sums(self, w):
        """(sum_i u_i, u_i . 1, u_i . w)."""
        k, y0, ua, ub = self.k, self.y0, self.ua, self.ub
        total = np.bincount(y0, ua, k)[:-1] - np.bincount(y0, ub, k)[1:]
        weight_a = np.append(w, 0.0)[y0]  # w at r = y_i
        weight_b = np.insert(w, 0, 0.0)[y0]  # w at r = y_i - 1
        return total, ua - ub, ua * weight_a - ub * weight_b

    def score(self):
        """Dense (rows, k-1) score, for the category-specific contraction."""
        n = self.y0.size
        index = np.arange(n)
        padded = np.zeros((n, self.k + 1))  # column r + 1 holds u[:, r]
        padded[index, self.y0 + 1] = self.ua
        padded[index, self.y0] = -self.ub
        return padded[:, 1:self.k]

    def times(self, v):
        """W_i v for every observation, (rows, k-1): a three-term band sum."""
        out = self.d * v
        out[:, 1:] += self.o * v[:-1]
        out[:, :-1] += self.o * v[1:]
        return out

    def total(self):
        """sum_i W_i."""
        off = self.ones @ self.o
        return np.diag(self.ones @ self.d) + np.diag(off, 1) + np.diag(off, -1)

    def pairs(self):
        """Threshold pairs r <= s with W_i[r, s] not identically zero and the
        (pairs, rows) weights of each: the diagonal and the first superdiagonal."""
        q = self.d.shape[1]
        idx = np.arange(q)
        rows = np.concatenate([idx, idx[:-1]])
        cols = np.concatenate([idx, idx[1:]])
        return rows, cols, np.concatenate([self.d, self.o], axis=1).T


class _Semiseparable:
    """Adjacent-family score and weights of one block of rows:
    W_i[r, s] = B_min(r,s) A_max(r,s), with B_r = P(Y <= r) and
    A_r = P(Y > r), the cancellation-free form of T_max(r,s) - T_r T_s with
    T_r = P(Y > r). Only B and A are stored; the score is u_ir = B_r when
    y_i > r and -A_r otherwise, taken with the problem's response masks.
    """

    def __init__(self, problem, rows, eta, probs):
        probs = probs[rows]
        self.ones = problem.ones[:probs.shape[0]]
        self.upto, self.after = problem.upto, problem.after
        self.below = probs @ problem.below_of  # B, (rows, k-1)
        self.above = probs @ problem.above_of  # A, (rows, k-1)
        self.u = self.below * problem.y_above[rows] - self.above * problem.y_below[rows]

    def score_sums(self, w):
        """(sum_i u_i, u_i . 1, u_i . w)."""
        u = self.u
        return self.ones @ u, u @ np.ones(u.shape[1]), u @ w

    def score(self):
        return self.u

    def times(self, v):
        """W_i v for every observation, (rows, k-1), from a prefix and a
        suffix sum, each one product with a triangular 0/1 matrix:
        (W v)_r = A_r sum_{s <= r} B_s v_s + B_r sum_{s > r} A_s v_s."""
        return (
            self.above * (self.below @ (v[:, None] * self.upto))
            + self.below * (self.above @ (v[:, None] * self.after))
        )

    def total(self):
        """sum_i W_i: the upper triangle of B' A, mirrored."""
        upper = np.triu(self.below.T @ self.above)
        return upper + np.triu(upper, 1).T

    def pairs(self):
        """Every threshold pair r <= s (row-major) and the (pairs, rows)
        weights B_r A_s, built from contiguous rows of B' and A'."""
        below_t = np.ascontiguousarray(self.below.T)
        above_t = np.ascontiguousarray(self.above.T)
        q = below_t.shape[0]
        rows, cols = np.triu_indices(q)
        weights = np.concatenate([below_t[r] * above_t[r:] for r in range(q)])
        return rows, cols, weights


def _reverse_permutation(layout: ParamLayout) -> np.ndarray:
    """Self-inverse index map between canonical and reversed parameter order."""
    q = layout.q
    perm = np.arange(layout.n_params)
    perm[:q] = np.arange(q)[::-1]
    if layout.structure == "catspec":
        for r in range(q):
            src = layout.catspec_block(q - r)
            perm[q + r * layout.p:q + (r + 1) * layout.p] = np.arange(src.start, src.stop)
    return perm


def _covariance(info: np.ndarray):
    """Inverse information with honest flags for numerically singular slots."""
    eigval, eigvec = np.linalg.eigh(info)
    lam_max = float(eigval.max(initial=0.0))
    null = eigval <= max(lam_max, 1.0) * 1e-10
    if null.any():
        inv = np.where(null, 0.0, 1.0 / np.where(null, 1.0, eigval))
        cov = (eigvec * inv) @ eigvec.T
        bad = (np.abs(eigvec[:, null]) > 1e-8).any(axis=1)
    else:
        cov = (eigvec / eigval) @ eigvec.T
        bad = np.zeros(info.shape[0], dtype=bool)
    return cov, bad


def log_likelihood(params, data: OrdinalDataset, spec: ModelSpec) -> float:
    """Multinomial log-likelihood at ``params``, probabilities clamped at 1e-15.

    Warns when an observed response falls in a floor-probability category;
    cumulative specs raise ThresholdOrderError at infeasible parameters.
    """
    problem = _Problem(data, spec)
    probs = problem.probs(problem.eta(problem.canonical(params)))
    if np.any(problem.picked(probs) <= PROB_FLOOR):
        warnings.warn(
            "observed categories with probability at the 1e-15 floor",
            ZeroProbabilityWarning,
            stacklevel=2,
        )
    return problem.loglik(probs)


def score(params, data: OrdinalDataset, spec: ModelSpec) -> np.ndarray:
    """Analytic gradient of log_likelihood with respect to ``params``."""
    problem = _Problem(data, spec)
    eta = problem.eta(problem.canonical(params))
    s, _ = problem.score_info(eta, problem.probs(eta))
    return s[problem.perm]


def fisher_info(params, data: OrdinalDataset, spec: ModelSpec) -> np.ndarray:
    """Expected information matrix at ``params``."""
    problem = _Problem(data, spec)
    eta = problem.eta(problem.canonical(params))
    _, info = problem.score_info(eta, problem.probs(eta))
    return info[np.ix_(problem.perm, problem.perm)]


def category_probabilities(params, data: OrdinalDataset, spec: ModelSpec) -> np.ndarray:
    """Category probabilities (n, k) at ``params`` in the original labels."""
    problem = _Problem(data, spec)
    probs = problem.probs(problem.eta(problem.canonical(params)))
    return probs[:, ::-1] if problem.reverse else probs


def fit(
    spec: ModelSpec,
    data: OrdinalDataset,
    *,
    max_iter: int = 100,
    tol: float = 1e-8,
    score_tol: float = 1e-4,
    start=None,
) -> FitResult:
    """Fisher scoring with step halving until the deviance stabilizes.

    A step is halved (up to 10 times) when it would increase the deviance or,
    for cumulative specs, cross any observation's thresholds; two consecutive
    iterations without an accepted step stop the fit with converged=False.
    Convergence requires relative deviance change < tol and max |score| <
    score_tol * (1 + |loglik|) at the same iteration. The covariance is the
    inverse expected information at the optimum. Score and information are
    evaluated once at the start and once after each accepted step; that one
    evaluation serves the convergence test, the next step and the covariance.
    """
    _check_categories(data)
    problem = _Problem(data, spec)
    layout = problem.layout

    if start is not None:
        theta = np.asarray(start, dtype=float)
        if theta.shape != (layout.n_params,):
            raise StartError(f"start has {theta.shape} entries, expected {layout.n_params}")
        theta = theta[problem.perm]
        try:
            eta = problem.eta(theta)
            probs = problem.probs(eta)
        except ThresholdOrderError as exc:
            raise StartError(f"infeasible start: {exc}") from exc
    else:
        theta = problem.initial_params()
        eta = problem.eta(theta)
        probs = problem.probs(eta)

    deviance = -2.0 * problem.loglik(probs)
    s, info = problem.score_info(eta, probs)
    converged = False
    iterations = 0
    failures = 0
    for iteration in range(1, max_iter + 1):
        iterations = iteration
        try:
            step = np.linalg.solve(info, s)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(info, s, rcond=None)[0]
        accepted = False
        lam = 1.0
        for _ in range(11):
            cand = theta + lam * step
            try:
                cand_eta = problem.eta(cand)
                cand_probs = problem.probs(cand_eta)
            except ThresholdOrderError:
                lam /= 2.0
                continue
            cand_dev = -2.0 * problem.loglik(cand_probs)
            if np.isfinite(cand_dev) and cand_dev <= deviance:
                accepted = True
                break
            lam /= 2.0
        if not accepted:
            # a rejected step at a stationary point is convergence, not
            # failure: the deviance is already flat to rounding and the
            # score is below tolerance
            if np.max(np.abs(s)) < score_tol * (1.0 + abs(deviance) / 2.0):
                converged = True
                break
            failures += 1
            if failures >= 2:
                break
            continue
        failures = 0
        rel_change = abs(deviance - cand_dev) / (abs(deviance) + 1e-10)
        theta, eta, probs, deviance = cand, cand_eta, cand_probs, cand_dev
        s, info = problem.score_info(eta, probs)
        if rel_change < tol and np.max(np.abs(s)) < score_tol * (1.0 + abs(deviance) / 2.0):
            converged = True
            break

    cov, bad = _covariance(info)

    notes = []
    big = np.nonzero(np.abs(theta[layout.q:]) > SEPARATION_BOUND)[0] + layout.q
    if big.size:
        names = [layout.names[j] for j in big]
        notes.append(
            f"possible separation: coefficients beyond |{SEPARATION_BOUND:g}| "
            f"on the link scale: {names}"
        )
        warnings.warn(
            f"possible separation; diverging coefficients {names}",
            SeparationWarning,
            stacklevel=2,
        )
    if not converged:
        notes.append("did not converge")

    monotone = None
    if problem.spec.family.kind == "cumulative":
        monotone = bool(np.all(np.diff(eta, axis=1) >= -1e-12))

    perm = problem.perm
    return FitResult(
        spec=spec,
        layout=layout,
        params=theta[perm],
        covariance=cov[np.ix_(perm, perm)],
        loglik=-deviance / 2.0,
        deviance=deviance,
        n=data.n,
        k=data.k,
        iterations=iterations,
        converged=converged,
        monotonicity_ok=monotone,
        se_unavailable=bad[perm],
        warnings=notes,
        smooths=problem.design.smooths,
        variables=problem.design.variables,
    )


def standard_errors(result: FitResult) -> np.ndarray:
    """sqrt of the covariance diagonal; NaN where the information is singular."""
    se = np.sqrt(np.maximum(np.diag(result.covariance), 0.0)).copy()
    se[result.se_unavailable] = np.nan
    return se


def smooth_values(result: FitResult, side: str, name: str, grid) -> np.ndarray:
    """Fitted smooth f(grid) for one term, centered over the sample."""
    from .splines import bspline_basis

    try:
        info = result.smooths[(side, name)]
    except KeyError:
        raise SpecError(f"no {side} smooth for variable {name!r}") from None
    basis_matrix = bspline_basis(np.asarray(grid, dtype=float), info.basis) - info.col_means
    cols = result.layout.x_cols if side == "location" else result.layout.z_cols
    offset = (
        result.layout.location.start if side == "location" else result.layout.dispersion.start
    )
    idx = [offset + i for i, c in enumerate(cols) if c.source == name and c.basis_index]
    return basis_matrix @ result.params[idx]
