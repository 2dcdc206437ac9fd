"""The logistic distribution function, response families, and
category-probability maps.

Every model here uses the logistic F. The cumulative family turns a
nondecreasing vector of threshold predictors eta_1 <= ... <= eta_{k-1} into k
category probabilities F(eta_r) - F(eta_{r-1}); the adjacent-categories
family reads eta_r as the log-odds of category r+1 versus r. Both maps
operate on the canonical (non-reverse) orientation; reversal is handled by
the fitting layer via response relabeling. ``category_probs`` is
threshold-first, the fit kernel's layout: the k-1 predictors in the first
axis in, the k probabilities in the first axis out, written into the
caller's buffers when given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, ThresholdOrderError

# Probability clamp keeping logs finite under extreme transient predictors.
PROB_FLOOR = 1e-15

FAMILY_KINDS = ("cumulative", "adjacent")


def logistic(eta, out=None, work=None):
    """F(eta) = exp(eta) / (1 + exp(eta)); ``out`` receives it and ``work``
    is scratch, both arrays of eta's shape, allocated when not given."""
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


def logit(p):
    """Inverse of the logistic, log(p / (1 - p)), for p in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0) | (p >= 1)):
        raise InvalidInputError("logit requires probabilities in (0,1)")
    return np.log(p) - np.log1p(-p)


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


def scaling_factors(family: Family, k: int) -> np.ndarray:
    """Category weights multiplying the dispersion predictor at thresholds
    r = 1..k-1.

    Cumulative: r - k/2; adjacent: k/2 - r; ``reverse`` flips the sign.
    """
    if k < 2:
        raise InvalidInputError(f"k must be >= 2, got {k}")
    w = np.arange(1, k) - k / 2.0
    if (family.kind == "adjacent") != family.reverse:
        w = -w
    return w


def _check_finite(eta: np.ndarray) -> None:
    if not np.isfinite(eta).all():
        raise InvalidInputError("eta must be finite")


def _check_monotone(eta: np.ndarray, gaps: np.ndarray) -> None:
    # eta has shape (q, ...) and gaps (q-1, ...) receives its differences;
    # tiny negative gaps are float noise, not crossings. The index reported
    # is the first crossing of the first observation that has one.
    np.subtract(eta[1:], eta[:-1], out=gaps)
    if gaps.size and gaps.min() < -1e-12:
        crossed = (gaps < -1e-12).reshape(len(gaps), -1)
        first = crossed[:, crossed.any(axis=0).argmax()]
        raise ThresholdOrderError(int(first.argmax()) + 1)


def _cumulative_probs(eta, out, cdf_out, work) -> np.ndarray:
    """Threshold-first cumulative map: eta (k-1, ...) into out (k, ...).

    gamma, F clipped to [PROB_FLOOR, 1 - PROB_FLOOR], goes to ``work``, and
    the probabilities are its differences gamma_r - gamma_{r-1} between
    gamma_0 and 1 - gamma_{k-2}, in one call: differencing the rows of one
    buffer in place would need a row loop or a copy. The differences can be
    slightly negative (the tolerated float-noise crossings), so they are
    raised to 0. None can exceed 1: each probability is gamma_0, a
    difference of two gammas or 1 - gamma_{k-2}, and every gamma lies in
    [PROB_FLOOR, 1 - PROB_FLOOR], so the map has no upper clip.
    """
    _check_finite(eta)
    _check_monotone(eta, out[:-2])
    cdf = logistic(eta, out=np.empty_like(eta) if cdf_out is None else cdf_out, work=out[1:])
    gamma = np.maximum(cdf, PROB_FLOOR, out=work)
    np.minimum(gamma, 1.0 - PROB_FLOOR, out=gamma)
    # rows are indexed with [r, ...]: a view even when eta is a vector
    np.copyto(out[0, ...], gamma[0, ...])
    np.subtract(gamma[1:], gamma[:-1], out=out[1:-1])
    np.subtract(1.0, gamma[-1], out=out[-1, ...])
    return np.maximum(out, 0.0, out=out)


def _adjacent_probs(eta, out) -> np.ndarray:
    """Threshold-first adjacent map: eta (k-1, ...) into out (k, ...).

    The log-weights sum_{r < c} eta_r are running sums over the threshold
    rows, shifted by their maximum over the categories before exp, so large
    |eta| cannot overflow. They are summed a row at a time: one
    np.cumsum(eta, axis=0) walks each observation's column with a stride,
    and took 3 times as long at 500 observations and k=5, and 6 times at
    4096 and k=10.
    """
    _check_finite(eta)
    out[0] = 0.0
    for c in range(1, out.shape[0]):
        np.add(out[c - 1], eta[c - 1], out=out[c, ...])
    out -= out.max(axis=0)
    np.exp(out, out=out)
    out /= out.sum(axis=0)
    return out


def category_probs(family: Family, eta, out=None, cdf_out=None, work=None) -> np.ndarray:
    """Category probabilities of the family's model (canonical orientation),
    threshold-first: ``eta`` holds the k-1 predictors in its first axis and
    the result, written to ``out`` when given, the k probabilities.

    ``cdf_out``, an array of eta's shape, receives the unclipped F(eta) of
    the cumulative family, so a caller that also needs the density does not
    evaluate F a second time. ``work``, also of eta's shape, is the
    cumulative family's scratch for the clipped F; it may be eta itself,
    which is not read once F is made. The adjacent family uses neither.
    Cumulative thresholds must be nondecreasing (ThresholdOrderError names
    the first crossing); equal adjacent thresholds yield a legal zero-width
    category.
    """
    cumulative = family.kind == "cumulative"
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0 or eta.shape[0] < 1:
        what = "threshold" if cumulative else "log-ratio"
        raise InvalidInputError(f"eta must hold at least one {what}")
    if out is None:
        out = np.empty((eta.shape[0] + 1,) + eta.shape[1:])
    if cumulative:
        return _cumulative_probs(eta, out, cdf_out, np.empty_like(eta) if work is None else work)
    return _adjacent_probs(eta, out)
