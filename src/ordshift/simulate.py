"""Simulation of ordinal responses from a fitted or specified model."""

from __future__ import annotations

import numpy as np

from .data import OrdinalDataset
from .design import ModelSpec, Term
from .exceptions import SpecError
from .fit import _compile
from .links import Family


def draw_responses(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw categories 1..k row-wise from an (n, k) probability matrix."""
    cdf = np.cumsum(probs, axis=1)
    u = rng.random((probs.shape[0], 1))
    return 1 + (u > cdf[:, :-1]).sum(axis=1)


def simulate_dataset(
    spec: ModelSpec, params, columns: dict, k: int, rng: np.random.Generator
) -> OrdinalDataset:
    """Dataset with responses drawn from ``spec`` at ``params``.

    ``columns`` holds the covariate columns; all of them must be numeric
    here (categorical simulation can pre-encode dummies as 0/1 columns).
    """
    n = len(next(iter(columns.values())))
    shell = OrdinalDataset(y=np.ones(n, dtype=int), k=k, columns=dict(columns))
    probs = _compile(shell, spec).category_probabilities(params)
    return OrdinalDataset(y=draw_responses(probs, rng), k=k, columns=dict(columns))


def locshift_example(
    n: int,
    k: int,
    beta=(1.0,),
    alpha=(0.3,),
    family: Family = Family("cumulative"),
    intercepts=None,
    rng: np.random.Generator | None = None,
):
    """A location-shift dataset with N(0,1) location covariates x1.. and
    U(-1,1) dispersion covariates z1.., plus the generating spec and params.

    Default intercepts sit at the equiprobable logits, whose spacing keeps
    cumulative predictors monotone for the bounded dispersion covariates.
    """
    rng = rng or np.random.default_rng(0)
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if intercepts is None:
        base = np.log(np.arange(1, k) / (k - np.arange(1, k)))
        intercepts = base if family.kind == "cumulative" else np.zeros(k - 1)
    intercepts = np.asarray(intercepts, dtype=float)
    if family.kind == "cumulative" and np.min(np.diff(intercepts), initial=np.inf) <= np.abs(alpha).sum():
        raise SpecError("intercept spacing too narrow for the dispersion effects")

    columns = {f"x{j + 1}": rng.normal(size=n) for j in range(beta.size)}
    columns.update({f"z{j + 1}": rng.uniform(-1.0, 1.0, size=n) for j in range(alpha.size)})
    spec = ModelSpec(
        family=family,
        structure="locshift",
        location=tuple(Term(f"x{j + 1}") for j in range(beta.size)),
        dispersion=tuple(Term(f"z{j + 1}") for j in range(alpha.size)),
    )
    params = np.concatenate([intercepts, beta, alpha])
    data = simulate_dataset(spec, params, columns, k, rng)
    return data, spec, params
