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
        # from one e = exp(-|eta|) that cannot overflow
        eta = np.asarray(eta, dtype=float)
        e = np.exp(-np.abs(eta))
        t = 1.0 + e
        return np.where(eta >= 0, 1.0 / t, e / t)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any((p <= 0) | (p >= 1)):
            raise InvalidInputError("quantile requires probabilities in (0,1)")
        return np.log(p) - np.log1p(-p)

    def density(self, eta):
        f = self.cdf(eta)
        return f * (1.0 - f)


LOGIT = LogitLink()

_LINKS = {"logit": LOGIT}


def get_link(name: str) -> Link:
    try:
        return _LINKS[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown link {name!r}; available: {sorted(_LINKS)}"
        ) from None


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


def category_probs_cumulative(link: Link, eta) -> np.ndarray:
    """Category probabilities of the cumulative model, P(Y<=r) = F(eta_r).

    ``eta`` is a vector of k-1 nondecreasing thresholds (or an array of them
    in the last axis); returns k probabilities summing to 1. Equal adjacent
    thresholds yield a legal zero-width category.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0 or eta.shape[-1] < 1:
        raise InvalidInputError("eta must hold at least one threshold")
    if not np.all(np.isfinite(eta)):
        raise InvalidInputError("eta must be finite")
    _check_monotone(eta)
    gamma = np.clip(link.cdf(eta), PROB_FLOOR, 1.0 - PROB_FLOOR)
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
    zeros = np.zeros(eta.shape[:-1] + (1,))
    logw = np.concatenate([zeros, np.cumsum(eta, axis=-1)], axis=-1)
    logw -= logw.max(axis=-1, keepdims=True)
    w = np.exp(logw)
    return w / w.sum(axis=-1, keepdims=True)


def category_probs(family: Family, link: Link, eta) -> np.ndarray:
    """Dispatch to the family's probability map (canonical orientation)."""
    if family.kind == "cumulative":
        return category_probs_cumulative(link, eta)
    return category_probs_adjacent(link, eta)
