"""Shared builders and independent oracles for the test suite."""

import numpy as np

from ordshift.design import ModelSpec, Term
from ordshift.fit import FitResult, log_likelihood
from ordshift.links import Family
from ordshift.simulate import simulate_dataset


def random_dataset(rng, n=50, k=4, n_cov=2, family=Family("cumulative"), dual=True):
    """Dataset simulated from a modest location-shift model, x = z."""
    columns = {f"v{j + 1}": rng.normal(size=n) * 0.8 for j in range(n_cov)}
    terms = tuple(Term(f"v{j + 1}") for j in range(n_cov))
    spec = ModelSpec(
        family=family,
        structure="locshift",
        location=terms,
        dispersion=terms if dual else terms[:1],
    )
    q = k - 1
    intercepts = np.log(np.arange(1, k) / (k - np.arange(1, k)))
    if family.kind == "adjacent":
        intercepts = np.zeros(q)
    beta = rng.normal(scale=0.4, size=n_cov)
    alpha = rng.normal(scale=0.08, size=len(spec.dispersion))
    params = np.concatenate([intercepts, beta, alpha])
    data = simulate_dataset(spec, params, columns, k, rng)
    return data, spec, params


def feasible_params(rng, layout, spec, data, scale=0.3):
    """Random parameters at which the (possibly cumulative) model is feasible."""
    from ordshift.exceptions import ThresholdOrderError

    q = layout.q
    base = np.log(np.arange(1, layout.k) / (layout.k - np.arange(1, layout.k)))
    for _ in range(200):
        theta = rng.normal(scale=scale, size=layout.n_params)
        theta[:q] = base + rng.normal(scale=0.05, size=q)
        try:
            log_likelihood(theta, data, spec)
        except ThresholdOrderError:
            continue
        return theta
    raise AssertionError("could not sample feasible parameters")


def fd_gradient(fun, theta, rel_h=1e-6):
    """Central finite differences with per-coordinate step rel_h * scale."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for j in range(theta.size):
        h = rel_h * max(1.0, abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (fun(up) - fun(dn)) / (2.0 * h)
    return grad


def fd_hessian(fun, theta, h=1e-5):
    """Central finite-difference Hessian (dense, symmetric by construction)."""
    theta = np.asarray(theta, dtype=float)
    p = theta.size
    hess = np.empty((p, p))
    for i in range(p):
        for j in range(i, p):
            pp = theta.copy(); pp[i] += h; pp[j] += h
            pm = theta.copy(); pm[i] += h; pm[j] -= h
            mp = theta.copy(); mp[i] -= h; mp[j] += h
            mm = theta.copy(); mm[i] -= h; mm[j] -= h
            hess[i, j] = hess[j, i] = (fun(pp) - fun(pm) - fun(mp) + fun(mm)) / (4 * h * h)
    return hess


def nelder_mead_loglik(data, spec, start):
    """Derivative-free maximum log-likelihood, independent of Fisher scoring.

    Runs Nelder-Mead twice (restarting from the first optimum) with tight
    tolerances; infeasible cumulative parameters score -inf via a penalty.
    The objective is log_likelihood's own evaluation, bit for bit, on one
    problem compiled for (spec, data) instead of one per call.
    """
    from scipy.optimize import minimize

    from ordshift.exceptions import ThresholdOrderError
    from ordshift.fit import _Problem

    problem = _Problem(data, spec)

    def objective(theta):
        try:
            return -problem.loglik(problem.evaluate(problem.canonical(theta)).probs)
        except ThresholdOrderError:
            return 1e10

    x = np.asarray(start, dtype=float)
    for _ in range(2):
        res = minimize(
            objective, x, method="Nelder-Mead",
            options={"maxiter": 200000, "maxfev": 200000, "fatol": 1e-10, "xatol": 1e-8},
        )
        x = res.x
    return -res.fun


def empirical_start(data, spec):
    """Intercepts at empirical cumulative logits / adjacent log-ratios, slopes 0."""
    from ordshift.design import expand_design, make_layout

    layout = make_layout(expand_design(data, spec), spec, data.k)
    counts = data.category_counts().astype(float)
    theta = np.zeros(layout.n_params)
    if spec.family.kind == "cumulative":
        cum = np.cumsum(counts)[:-1] / counts.sum()
        theta[: layout.q] = np.log(cum) - np.log1p(-cum)
    else:
        theta[: layout.q] = np.log(counts[1:] / counts[:-1])
    return theta


def stub_fit(n_params, deviance=100.0, n=100, k=3, converged=True, family=Family("cumulative")):
    """A minimal FitResult carrying just what inference-level code reads."""
    spec = ModelSpec(family=family, structure="global", location=(Term("x"),))
    return FitResult(
        spec=spec,
        layout=None,
        params=np.zeros(n_params),
        covariance=np.eye(n_params),
        loglik=-deviance / 2.0,
        deviance=deviance,
        n=n,
        k=k,
        iterations=1,
        converged=converged,
        monotonicity_ok=True,
        se_unavailable=np.zeros(n_params, dtype=bool),
    )
