"""Link functions, response families, and category-probability maps.

The cumulative family turns a nondecreasing vector of threshold predictors
eta_1 <= ... <= eta_{k-1} into k category probabilities F(eta_r) - F(eta_{r-1});
the adjacent-categories family reads eta_r as the log-odds of category r+1
versus r. Both maps operate on the canonical (non-reverse) orientation;
reversal is handled by the fitting layer via response relabeling.
``category_probs`` is threshold-first, the fit kernel's layout: the k-1
predictors in the first axis in, the k probabilities in the first axis out,
written into the caller's buffers when given. ``category_probs_cumulative``
and ``category_probs_adjacent`` take the predictors in the last axis and are
thin wrappers around it.
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

    def cdf(self, eta, out=None, work=None):
        """F(eta); ``out`` receives it and ``work`` is scratch, both arrays
        of eta's shape, allocated when not given."""
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

    def cdf(self, eta, out=None, work=None):
        # 1 / (1 + e^-eta) for eta >= 0 and e^eta / (1 + e^eta) below it,
        # from one e = exp(-|eta|) that cannot overflow: the numerator is
        # max(e, [eta >= 0]), which is 1 from 0 up (e <= 1 there) and e below
        eta = np.asarray(eta, dtype=float)
        e = np.abs(eta, out=np.empty_like(eta) if out is None else out)
        np.negative(e, out=e)
        np.exp(e, out=e)
        numerator = np.greater_equal(eta, 0.0, out=np.empty_like(eta) if work is None else work)
        np.maximum(numerator, e, out=numerator)
        e += 1.0
        return np.divide(numerator, e, out=e)[()]

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


def _check_finite(eta: np.ndarray) -> None:
    if not np.all(np.isfinite(eta)):
        raise InvalidInputError("eta must be finite")


def _check_monotone(eta: np.ndarray, gaps: np.ndarray) -> None:
    # eta has shape (q, ...) and gaps (q-1, ...) receives its differences;
    # tiny negative gaps are float noise, not crossings. The index reported
    # is the first crossing of the first observation that has one.
    np.subtract(eta[1:], eta[:-1], out=gaps)
    if gaps.size and gaps.min() < -1e-12:
        bad = np.moveaxis(gaps < -1e-12, 0, -1)
        raise ThresholdOrderError(int(np.argwhere(bad)[0][-1]) + 1)


def _cumulative_probs(link: Link, eta, out, cdf_out) -> np.ndarray:
    """Threshold-first cumulative map: eta (k-1, ...) into out (k, ...)."""
    _check_finite(eta)
    _check_monotone(eta, out[:-2])
    cdf = link.cdf(eta, out=np.empty_like(eta) if cdf_out is None else cdf_out, work=out[1:])
    # gamma = clipped F in rows 0..k-2, then pi_r = gamma_r - gamma_{r-1}
    # from the top down, so each row still holds gamma_{r-1} when it is read
    # (rows are indexed with [r, ...]: a view even when eta is a vector)
    gamma = np.clip(cdf, PROB_FLOOR, 1.0 - PROB_FLOOR, out=out[:-1])
    np.subtract(1.0, gamma[-1], out=out[-1, ...])
    for r in range(gamma.shape[0] - 1, 0, -1):
        np.subtract(out[r], out[r - 1], out=out[r, ...])
    return np.clip(out, 0.0, 1.0, out=out)


def _adjacent_probs(eta, out) -> np.ndarray:
    """Threshold-first adjacent map: eta (k-1, ...) into out (k, ...).

    The log-weights sum_{r < c} eta_r are running sums over the threshold
    rows, shifted by their maximum over the categories before exp, so large
    |eta| cannot overflow.
    """
    _check_finite(eta)
    out[0] = 0.0
    for c in range(1, out.shape[0]):
        np.add(out[c - 1], eta[c - 1], out=out[c, ...])
    out -= out.max(axis=0)
    np.exp(out, out=out)
    out /= out.sum(axis=0)
    return out


def category_probs(family: Family, link: Link, eta, out=None, cdf_out=None) -> np.ndarray:
    """Category probabilities of the family's model (canonical orientation),
    threshold-first: ``eta`` holds the k-1 predictors in its first axis and
    the result, written to ``out`` when given, the k probabilities.

    ``cdf_out``, an array of eta's shape, receives the unclipped F(eta) of
    the cumulative family, so a caller that also needs the density does not
    evaluate the link a second time; the adjacent family does not use it.
    Cumulative thresholds must be nondecreasing (ThresholdOrderError names
    the first crossing) and the adjacent family is defined for the logit
    link only.
    """
    cumulative = family.kind == "cumulative"
    if not cumulative and link.name != "logit":
        raise InvalidInputError(
            "adjacent-categories probabilities are defined for the logit link"
        )
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0 or eta.shape[0] < 1:
        what = "threshold" if cumulative else "log-ratio"
        raise InvalidInputError(f"eta must hold at least one {what}")
    if out is None:
        out = np.empty((eta.shape[0] + 1,) + eta.shape[1:])
    if cumulative:
        return _cumulative_probs(link, eta, out, cdf_out)
    return _adjacent_probs(eta, out)


def _last_axis(family: Family, link: Link, eta, cdf_out=None) -> np.ndarray:
    """category_probs with the thresholds and categories in the last axis."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0:
        return category_probs(family, link, eta)  # rejected there
    probs = np.empty(eta.shape[:-1] + (eta.shape[-1] + 1,))
    first = None if cdf_out is None else np.moveaxis(cdf_out, -1, 0)
    category_probs(family, link, np.moveaxis(eta, -1, 0), np.moveaxis(probs, -1, 0), first)
    return probs


def category_probs_cumulative(link: Link, eta, cdf_out=None) -> np.ndarray:
    """Category probabilities of the cumulative model, P(Y<=r) = F(eta_r).

    ``eta`` is a vector of k-1 nondecreasing thresholds (or an array of them
    in the last axis); returns k probabilities summing to 1. Equal adjacent
    thresholds yield a legal zero-width category. ``cdf_out``, an array of
    eta's shape, receives the unclipped F(eta) when given.
    """
    return _last_axis(Family("cumulative"), link, eta, cdf_out)


def category_probs_adjacent(link: Link, eta) -> np.ndarray:
    """Category probabilities of the adjacent-categories logit model.

    eta_r = log(pi_{r+1} / pi_r) in the last axis; probabilities are
    proportional to exp(cumsum(eta)) and normalized in log space (max
    subtraction), so large |eta| cannot overflow. Only the logit link is
    supported.
    """
    return _last_axis(Family("adjacent"), link, eta)
