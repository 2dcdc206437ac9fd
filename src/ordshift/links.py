"""Link functions, response families, and category-probability maps.

The cumulative family turns a nondecreasing vector of threshold predictors
eta_1 <= ... <= eta_{k-1} into k category probabilities F(eta_r) - F(eta_{r-1});
the adjacent-categories family reads eta_r as the log-odds of category r+1
versus r. Both maps are pure and operate on the canonical (non-reverse)
orientation; reversal is handled by the fitting layer via response relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, ThresholdOrderError

# Probability clamp keeping logs finite under extreme transient predictors.
PROB_FLOOR = 1e-15

FAMILY_KINDS = ("cumulative", "adjacent")


class Link:
    """A strictly increasing distribution function with inverse and density."""

    name = "?"

    def cdf(self, eta):
        raise NotImplementedError

    def quantile(self, p):
        raise NotImplementedError

    def density(self, eta):
        raise NotImplementedError

    def __repr__(self):
        return f"Link({self.name})"


class LogitLink(Link):
    """Logistic distribution: F(eta) = exp(eta) / (1 + exp(eta))."""

    name = "logit"

    def cdf(self, eta):
        # 1 / (1 + e^-eta) for eta >= 0 and e^eta / (1 + e^eta) below it,
        # from one e = exp(-|eta|) that cannot overflow; the numerator
        # e [eta < 0] + [eta >= 0] picks the branch by arithmetic (exact:
        # e * 0 = 0 and 0 + 1 = 1), several times faster than np.where
        eta = np.asarray(eta, dtype=float)
        e = np.exp(-np.abs(eta))
        negative = eta < 0
        return (e * negative + ~negative) / (1.0 + e)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any((p <= 0) | (p >= 1)):
            raise InvalidInputError("quantile requires probabilities in (0,1)")
        return np.log(p) - np.log1p(-p)

    def density(self, eta):
        f = self.cdf(eta)
        return f * (1.0 - f)


LOGIT = LogitLink()


@dataclass(frozen=True)
class Family:
    """Response family; ``reverse`` flips the category representation and
    the sign of the dispersion scaling factor."""

    kind: str = "cumulative"
    reverse: bool = False

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise InvalidInputError(
                f"unknown family {self.kind!r}; expected one of {FAMILY_KINDS}"
            )


def link_eval(link: Link, eta):
    """Evaluate F(eta), clamped to [1e-15, 1-1e-15] for downstream log safety."""
    arr = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("eta must be finite")
    out = np.clip(link.cdf(arr), PROB_FLOOR, 1.0 - PROB_FLOOR)
    return float(out) if np.isscalar(eta) or arr.ndim == 0 else out


def scaling_factor(family: Family, r: int, k: int) -> float:
    """Category weight multiplying the dispersion predictor at threshold r.

    Cumulative: r - k/2; adjacent: k/2 - r; ``reverse`` flips the sign.
    """
    if k < 2:
        raise InvalidInputError(f"k must be >= 2, got {k}")
    if not 1 <= r <= k - 1:
        raise InvalidInputError(f"threshold index r={r} outside 1..{k - 1}")
    base = r - k / 2.0
    if family.kind == "adjacent":
        base = -base
    if family.reverse:
        base = -base
    return base


def scaling_factors(family: Family, k: int) -> np.ndarray:
    """Vector of scaling_factor(family, r, k) for r = 1..k-1."""
    return np.array([scaling_factor(family, r, k) for r in range(1, k)])


def _check_monotone(eta: np.ndarray) -> None:
    # eta has shape (..., q); tiny negative gaps are float noise, not crossings
    gaps = np.diff(eta, axis=-1)
    bad = gaps < -1e-12
    if np.any(bad):
        idx = int(np.argwhere(bad)[0][-1]) + 1
        raise ThresholdOrderError(idx)


def category_probs_cumulative(link: Link, eta, cdf_out=None) -> np.ndarray:
    """Category probabilities of the cumulative model, P(Y<=r) = F(eta_r).

    ``eta`` is a vector of k-1 nondecreasing thresholds (or an array of them
    in the last axis); returns k probabilities summing to 1. Equal adjacent
    thresholds yield a legal zero-width category. ``cdf_out``, an array of
    eta's shape, receives the unclipped F(eta) when given, so a caller that
    also needs the density does not evaluate the link a second time.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0 or eta.shape[-1] < 1:
        raise InvalidInputError("eta must hold at least one threshold")
    if not np.all(np.isfinite(eta)):
        raise InvalidInputError("eta must be finite")
    _check_monotone(eta)
    cdf = link.cdf(eta)
    if cdf_out is not None:
        cdf_out[...] = cdf
    gamma = np.clip(cdf, PROB_FLOOR, 1.0 - PROB_FLOOR)
    probs = np.empty(eta.shape[:-1] + (eta.shape[-1] + 1,))
    probs[..., 0] = gamma[..., 0]
    np.subtract(gamma[..., 1:], gamma[..., :-1], out=probs[..., 1:-1])
    probs[..., -1] = 1.0 - gamma[..., -1]
    return np.clip(probs, 0.0, 1.0, out=probs)


def category_probs_adjacent(link: Link, eta) -> np.ndarray:
    """Category probabilities of the adjacent-categories logit model.

    eta_r = log(pi_{r+1} / pi_r); probabilities are proportional to
    exp(cumsum(eta)) and normalized in log space (max subtraction), so large
    |eta| cannot overflow. Only the logit link is supported.
    """
    if link.name != "logit":
        raise InvalidInputError(
            "adjacent-categories probabilities are defined for the logit link"
        )
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0 or eta.shape[-1] < 1:
        raise InvalidInputError("eta must hold at least one log-ratio")
    if not np.all(np.isfinite(eta)):
        raise InvalidInputError("eta must be finite")
    q = eta.shape[-1]
    # log-weights sum_{r < c} eta_r as one product with the strictly upper
    # 0/1 (k-1, k) matrix; the row max and the normaliser avoid numpy's slow
    # reductions along the short category axis
    logw = eta @ np.triu(np.ones((q, q + 1)), 1)
    top = logw[..., 0].copy()
    for c in range(1, q + 1):
        np.maximum(top, logw[..., c], out=top)
    logw -= top[..., None]
    w = np.exp(logw, out=logw)
    w /= (w @ np.ones(q + 1))[..., None]
    return w


def category_probs(family: Family, link: Link, eta, cdf_out=None) -> np.ndarray:
    """Dispatch to the family's probability map (canonical orientation);
    ``cdf_out`` is passed to the cumulative map and unused by the adjacent one."""
    if family.kind == "cumulative":
        return category_probs_cumulative(link, eta, cdf_out)
    return category_probs_adjacent(link, eta)
