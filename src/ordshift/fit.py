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
from .links import PROB_FLOOR, Family, category_probs, scaling_factors

SEPARATION_BOUND = 30.0
WEIGHT_FLOOR = 1e-12  # probability floor inside score/information weights


@dataclass
class FitResult:
    """Estimates, covariance, and diagnostics of one fitted model."""

    spec: ModelSpec
    layout: ParamLayout
    params: np.ndarray
    covariance: np.ndarray
    loglik: float
    deviance: float
    df_residual: int
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
        if spec.structure == "catspec":
            q, p = self.layout.q, self.layout.p
            self._X1 = np.hstack([np.ones((data.n, 1)), self.X])
            self._X1X1 = (self._X1[:, :, None] * self._X1[:, None, :]).reshape(data.n, -1)
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
        if layout.structure == "catspec":
            return theta[:q] + self.X @ theta[q:].reshape(q, layout.p).T
        eta = theta[:q] + (self.X @ theta[layout.location])[:, None]
        if layout.m:
            eta = eta + (self.Z @ theta[layout.dispersion])[:, None] * self.w
        return eta

    def probs(self, eta: np.ndarray) -> np.ndarray:
        return category_probs(self.spec.family, self.spec.link, eta)

    def picked(self, probs: np.ndarray) -> np.ndarray:
        """Probability of each observation's own response category."""
        return probs[np.arange(self.y0.size), self.y0]

    def loglik(self, probs: np.ndarray) -> float:
        return float(np.log(np.maximum(self.picked(probs), PROB_FLOOR)).sum())

    def _predictor_terms(self, eta, probs):
        """u[i, r] = d log pi_{y_i} / d eta_ir and the (n, k-1, k-1) information
        W_i = sum_c pi_c A_c A_c' of each observation in predictor space, where
        A_c = d log pi_c / d eta, in closed form (Fahrmeir & Tutz, Multivariate
        Statistical Modelling Based on GLMs).

        Cumulative: W is tridiagonal, with pi_r a_r^2 + pi_{r+1} b_r^2 on the
        diagonal and -pi_{r+1} b_r a_{r+1} off it, where a_r = f_r / pi_r and
        b_r = f_r / pi_{r+1} with probabilities floored at WEIGHT_FLOOR.
        Adjacent: W[r, s] = P(Y <= min(r, s)) P(Y > max(r, s)), which is
        T_max(r,s) - T_r T_s with T_r = P(Y > r) written without cancellation.
        """
        n, k = probs.shape
        q = k - 1
        y0 = self.y0
        idx = np.arange(q)
        if self.spec.family.kind == "cumulative":
            f = self.spec.link.density(eta)
            floored = np.maximum(probs, WEIGHT_FLOOR)
            a = f / floored[:, :q]  # d log pi_r / d eta_r
            b = f / floored[:, 1:]  # -d log pi_{r+1} / d eta_r
            u = np.where(y0[:, None] == idx, a, 0.0) - np.where(y0[:, None] == idx + 1, b, 0.0)
            W = np.zeros((n, q * q))  # row-major (r, s) pairs: the diagonal has stride q+1
            W[:, ::q + 1] = probs[:, :q] * a * a + probs[:, 1:] * b * b
            off = -probs[:, 1:q] * b[:, :-1] * a[:, 1:]
            W[:, 1::q + 1] = off
            W[:, q::q + 1] = off
            W = W.reshape(n, q, q)
        else:
            below = np.cumsum(probs, axis=1)[:, :q]  # P(Y <= r)
            above = np.cumsum(probs[:, ::-1], axis=1)[:, ::-1][:, 1:]  # P(Y > r)
            u = np.where(y0[:, None] > idx, below, -above)
            W = below[:, np.minimum.outer(idx, idx)]
            W *= above[:, np.maximum.outer(idx, idx)]
        return u, W

    def score_info(self, eta: np.ndarray, probs: np.ndarray):
        """Observed score and expected information in canonical order.

        Global and location-shift blocks need only W, W 1 and W w per
        observation plus their quadratic forms against X and Z; the
        category-specific information is one (q^2, n) @ (n, (p+1)^2) product.
        """
        u, W = self._predictor_terms(eta, probs)
        layout = self.layout
        q, size = layout.q, layout.n_params
        s = np.empty(size)
        info = np.empty((size, size))
        if layout.structure == "catspec":
            n, p1 = u.shape[0], layout.p + 1
            s[self._slots] = (u.T @ self._X1).ravel()
            blocks = (W.reshape(n, q * q).T @ self._X1X1).reshape(q, q, p1, p1)
            info[np.ix_(self._slots, self._slots)] = blocks.transpose(0, 2, 1, 3).reshape(size, size)
        else:
            X, Z, w = self.X, self.Z, self.w
            loc, disp = layout.location, layout.dispersion
            W1 = W.sum(axis=2)
            s[:q] = u.sum(axis=0)
            s[loc] = X.T @ u.sum(axis=1)
            info[:q, :q] = W.sum(axis=0)
            info[:q, loc] = W1.T @ X
            info[loc, loc] = X.T @ (W1.sum(axis=1)[:, None] * X)
            if layout.m:
                Ww = W @ w
                s[disp] = Z.T @ (u @ w)
                info[:q, disp] = Ww.T @ Z
                info[loc, disp] = X.T @ (Ww.sum(axis=1)[:, None] * Z)
                info[disp, disp] = Z.T @ ((Ww @ w)[:, None] * Z)
        upper = np.triu_indices(size, 1)
        info[upper[::-1]] = info[upper]
        return s, info


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
        df_residual=data.n * (data.k - 1) - layout.n_params,
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


def deviance_report(result: FitResult, n: int, k: int):
    """(deviance, residual df) with df = n(k-1) - n_params."""
    return result.deviance, n * (k - 1) - result.n_params


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
