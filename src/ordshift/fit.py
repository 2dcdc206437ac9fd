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
# Rows per evaluation block of _Problem. The score/information scratch of a
# block, a few (k-1, rows) arrays (288 KB each at k=10), is allocated once per
# problem and written in place: a fresh temporary of that size costs ~28 us
# (its pages are mapped anew), against ~10 us to overwrite a kept one.
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


class _Workspace:
    """Threshold-major evaluation at one parameter vector: the (k-1, n)
    predictors, the (k-1, n) unclipped F(eta) of the cumulative family (None
    for the adjacent one) and the (k, n) category probabilities.
    _Problem.evaluate rewrites all three in place, so the kept F always
    belongs to the predictors beside it."""

    __slots__ = ("eta", "cdf", "probs")

    def __init__(self, q: int, n: int, cumulative: bool):
        self.eta = np.empty((q, n))
        self.cdf = np.empty((q, n)) if cumulative else None
        self.probs = np.empty((q + 1, n))


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

    Every per-observation, per-threshold quantity is threshold-major, a
    (k-1, rows) or (k, rows) array, so each step along the short threshold
    axis is a few contiguous loops over observations. The predictors, the
    kept F(eta) and the probabilities of a parameter vector live in a
    _Workspace that evaluate() rewrites in place: ``workspace`` serves
    one-shot calls and fit() adds a second one for its candidate steps.
    Score and information are summed over fixed blocks of BLOCK_ROWS rows (a
    single block when n <= BLOCK_ROWS), in block scratch that the family's
    weights helper allocates, with its gather indices and response masks, on
    the first score_info call. No step allocates an (n, k-1) temporary.
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
        n = data.n
        self.blocks = [slice(i, min(i + BLOCK_ROWS, n)) for i in range(0, n, BLOCK_ROWS)]
        self.cumulative = spec.family.kind == "cumulative"
        # flat index of (y_i, i) in a (k, n) array: each observation's own category
        self.own = self.y0 * n + np.arange(n)
        self._own = np.empty(n)
        self.workspace = self.new_workspace()
        self._weights = None
        self._upper = np.triu_indices(self.layout.n_params, 1)
        if spec.structure == "catspec":
            p, q = self.layout.p, self.layout.q
            self._X1 = np.hstack([np.ones((n, 1)), self.X])
            self._X1X1 = (self._X1[:, :, None] * self._X1[:, None, :]).reshape(n, -1)
            # parameter slot of (threshold r, column j of [1, x])
            j = np.arange(p + 1)[None, :]
            r = np.arange(q)[:, None]
            self._slots = np.where(j == 0, r, q + r * p + j - 1).ravel()
        else:
            # c_i x_i' and c_i z_i' of one block, row-major, for the
            # information's X' (C X) products. While a smooth block is
            # rank-deficient the rounding of these products decides its fits:
            # formed as (X' C) X from the columns as rows, 458 instead of 504
            # of 512 smooth sim-small fits converged.
            width = self.blocks[0].stop
            self._cX, self._cZ = np.empty((width, self.layout.p)), np.empty((width, self.layout.m))

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
        if self.cumulative:
            cum = np.cumsum(counts)[: layout.q] / counts.sum()
            theta[: layout.q] = self.spec.link.quantile(cum)
        else:
            theta[: layout.q] = np.log(counts[1:] / counts[:-1])
        return theta

    def new_workspace(self) -> _Workspace:
        return _Workspace(self.layout.q, self.y0.size, self.cumulative)

    def eta(self, theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(k-1, n) linear predictors at canonical ``theta``, into ``out``."""
        layout = self.layout
        q = layout.q
        if out is None:
            out = np.empty((q, self.y0.size))
        for rows in self.blocks:
            block = out[:, rows]
            if layout.structure == "catspec":
                np.matmul(theta[q:].reshape(q, layout.p), self.X[rows].T, out=block)
                block += theta[:q, None]
            else:
                np.add(theta[:q, None], self.X[rows] @ theta[layout.location], out=block)
                if layout.m:
                    spread = self.Z[rows] @ theta[layout.dispersion]
                    for r in range(q):
                        block[r] += spread * self.w[r]
        return out

    def evaluate(self, theta: np.ndarray, workspace: _Workspace | None = None) -> _Workspace:
        """Predictors, kept F and probabilities at canonical ``theta``, written
        into ``workspace`` (by default the problem's own). Infeasible
        cumulative thresholds raise ThresholdOrderError and leave the
        workspace partly rewritten: it must not be read until the next
        evaluate() into it succeeds."""
        ws = self.workspace if workspace is None else workspace
        family, link = self.spec.family, self.spec.link
        self.eta(theta, ws.eta)
        for rows in self.blocks:
            category_probs(family, link, ws.eta[:, rows], ws.probs[:, rows],
                           None if ws.cdf is None else ws.cdf[:, rows])
        return ws

    def picked(self, probs: np.ndarray) -> np.ndarray:
        """Probability of each observation's own response category."""
        return probs.take(self.own)

    def loglik(self, probs: np.ndarray) -> float:
        # the compiled indices are in range: mode="clip" gathers straight into
        # out, where the default mode buffers it through a fresh (n,) array
        own = np.take(probs, self.own, out=self._own, mode="clip")
        np.maximum(own, PROB_FLOOR, out=own)
        return float(np.log(own, out=own).sum())

    def weights(self):
        """The family's weights helper, compiled at the first call."""
        if self._weights is None:
            self._weights = (_Tridiagonal if self.cumulative else _Semiseparable)(self)
        return self._weights

    def score_info(self, ws: _Workspace):
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
        every sum over observations is accumulated block by block. Only the
        upper triangle is assembled; it is mirrored at the end.
        """
        layout = self.layout
        q, size = layout.q, layout.n_params
        weights = self.weights()
        s = np.zeros(size)
        info = np.zeros((size, size))
        if layout.structure == "catspec":
            p1 = layout.p + 1
            score_sum = np.zeros((q, p1))
            pair_sum = 0.0
            for rows in self.blocks:
                weights.load(ws, rows)
                score_sum += weights.score() @ self._X1[rows]
                pair_sum = pair_sum + weights.pairs() @ self._X1X1[rows]
            s[self._slots] = score_sum.ravel()
            pair_blocks = pair_sum.reshape(-1, p1, p1)
            pair_rows, pair_cols = weights.pair_rows, weights.pair_cols
            blocks = np.zeros((q, q, p1, p1))
            blocks[pair_rows, pair_cols] = pair_blocks
            blocks[pair_cols, pair_rows] = pair_blocks
            info[np.ix_(self._slots, self._slots)] = blocks.transpose(0, 2, 1, 3).reshape(size, size)
        else:
            loc, disp = layout.location, layout.dispersion
            top = info[:q, :q]
            for rows in self.blocks:
                weights.load(ws, rows)
                X, Z = self.X[rows], self.Z[rows]
                cX, cZ = self._cX[:X.shape[0]], self._cZ[:X.shape[0]]
                s_int, u1, uw = weights.score_sums()
                weights.add_total(top)
                # sum_i (W_i 1) x_i', sum_i (W_i w) z_i' and the quadratic
                # forms 1'W_i 1, 1'W_i w, w'W_i w of each row
                WX, WZ, forms = weights.forms(X, Z)
                s[:q] += s_int
                s[loc] += X.T @ u1
                info[:q, loc] += WX
                info[loc, loc] += X.T @ np.multiply(forms[0][:, None], X, out=cX)
                if layout.m:
                    s[disp] += Z.T @ uw
                    info[:q, disp] += WZ
                    info[loc, disp] += X.T @ np.multiply(forms[1][:, None], Z, out=cZ)
                    info[disp, disp] += Z.T @ np.multiply(forms[2][:, None], Z, out=cZ)
        info[self._upper[::-1]] = info[self._upper]
        return s, info


class _Tridiagonal:
    """Cumulative-family score and weights, one block of rows at a time:
    W_i is tridiagonal, so products with it are three-term band sums and
    only its two bands are stored.

    With f_r = F'(eta_r) and probabilities floored at WEIGHT_FLOOR (pi~),
    a_r = f_r / pi~_r = d log pi_r / d eta_r and b_r = f_r / pi~_{r+1} =
    -d log pi_{r+1} / d eta_r, the diagonal is d_r = pi_r a_r^2 + pi_{r+1} b_r^2
    and the off-diagonal o_r = W[r, r+1] = -pi_{r+1} b_r a_{r+1}. The score
    u_i has at most two nonzeros, a_{y_i} at r = y_i and -b_{y_i - 1} at
    r = y_i - 1 (0-based categories), both over pi~ of the observed category.
    load() rewrites the (k-1, rows) scratch for the next block.
    """

    def __init__(self, problem: _Problem):
        layout, y0, w = problem.layout, problem.y0, problem.w
        q, k, n = layout.q, layout.k, y0.size
        width = problem.blocks[0].stop
        # the helper keeps what it reads of the problem, not the problem: a
        # reference back would make a cycle that holds every workspace of the
        # problem until the garbage collector runs
        self.link, self.y0_all, self.own_index = problem.spec.link, y0, problem.own
        self.f = np.empty((q, width))
        self.g = np.empty((k, width))
        self.band = np.empty((2 * q - 1, width))  # d in rows 0..q-1, o after it
        self._ua, self._ub, self._own = np.empty(width), np.empty(width), np.empty(width)
        # f at (y_i, i) and (y_i - 1, i) as flat indices into the f scratch,
        # clamped to the band; the masks zero the clamped entries
        column = np.arange(n) % width
        self.at_y = np.minimum(y0, q - 1) * width + column
        self.below_y = np.maximum(y0 - 1, 0) * width + column
        self.has_a = (y0 < q).astype(float)
        self.has_b = (y0 > 0).astype(float)
        self.w_a = np.append(w, 0.0)[y0]  # w at r = y_i
        self.w_b = np.insert(w, 0, 0.0)[y0]  # w at r = y_i - 1
        # the pairs r <= s where W_i[r, s] can be nonzero: the band's rows
        index = np.arange(q)
        self.pair_rows = np.concatenate([index, index[:-1]])
        self.pair_cols = np.concatenate([index, index[1:]])
        if layout.structure == "catspec":
            self.padded = np.empty((k + 1, width))  # row r + 1 holds u[r]
            self.to_a = (y0 + 1) * width + column
            self.to_b = y0 * width + column
            return
        # W_i v = expand_v @ [d; o] for v = 1 and v = w, and the quadratic
        # forms 1'W 1, 1'W w and w'W w are rows of quadratic @ [d; o]
        ones = np.ones(q)
        self.expand = np.stack([_band_expansion(v) for v in (ones, w)])
        self.quadratic = np.array([_band_form(a, b) for a, b in ((ones, ones), (ones, w), (w, w))])
        self._forms = np.empty((3, width))

    def load(self, ws: _Workspace, rows: slice) -> None:
        q = self.f.shape[0]
        nb = rows.stop - rows.start
        self.rows, self.y0 = rows, self.y0_all[rows]
        f, g = self.f[:, :nb], self.g[:, :nb]
        self.d, self.o = self.band[:q, :nb], self.band[q:, :nb]
        probs = ws.probs[:, rows]
        self.density(ws, rows, f)
        np.maximum(probs, WEIGHT_FLOOR, out=g)
        np.square(g, out=g)
        np.divide(probs, g, out=g)  # pi_c / pi~_c^2
        own = np.take(ws.probs, self.own_index[rows], out=self._own[:nb], mode="clip")
        np.maximum(own, WEIGHT_FLOOR, out=own)
        self.ua = np.take(self.f, self.at_y[rows], out=self._ua[:nb], mode="clip")
        self.ua *= self.has_a[rows]
        self.ua /= own
        self.ub = np.take(self.f, self.below_y[rows], out=self._ub[:nb], mode="clip")
        self.ub *= self.has_b[rows]
        self.ub /= own
        np.negative(f[:-1], out=self.o)
        self.o *= f[1:]
        self.o *= g[1:q]
        np.multiply(f, f, out=f)
        np.add(g[:q], g[1:], out=self.d)
        self.d *= f

    def density(self, ws: _Workspace, rows: slice, out: np.ndarray) -> np.ndarray:
        """Link density F'(eta) of one block of rows, into ``out``. For the
        logistic, F' = F (1 - F) comes from the workspace's kept F, bit for
        bit LogitLink.density without a second evaluation of the link."""
        if isinstance(self.link, LogitLink):
            F = ws.cdf[:, rows]
            np.subtract(1.0, F, out=out)
            return np.multiply(out, F, out=out)
        out[...] = self.link.density(ws.eta[:, rows])
        return out

    def score_sums(self):
        """(sum_i u_i, u_i . 1, u_i . w)."""
        rows, y0, ua, ub = self.rows, self.y0, self.ua, self.ub
        k = self.g.shape[0]
        total = np.bincount(y0, ua, k)[:-1] - np.bincount(y0, ub, k)[1:]
        return total, ua - ub, ua * self.w_a[rows] - ub * self.w_b[rows]

    def score(self) -> np.ndarray:
        """Dense (k-1, rows) score, for the category-specific contraction."""
        nb = self.ua.size
        self.padded[:, :nb] = 0.0
        np.put(self.padded, self.to_a[self.rows], self.ua)
        np.put(self.padded, self.to_b[self.rows], -self.ub)
        return self.padded[1:-1, :nb]

    def forms(self, X: np.ndarray, Z: np.ndarray):
        """sum_i (W_i 1) x_i', sum_i (W_i w) z_i' and the (3, rows) quadratic
        forms of a block, from the two bands: W_i v is never formed."""
        band = self.pairs()
        forms = np.matmul(self.quadratic, band, out=self._forms[:, :band.shape[1]])
        return self.expand[0] @ (band @ X), self.expand[1] @ (band @ Z), forms

    def add_total(self, top: np.ndarray) -> None:
        """Add the upper triangle of sum_i W_i to ``top``."""
        top[self.pair_rows, self.pair_cols] += self.pairs().sum(axis=1)

    def pairs(self) -> np.ndarray:
        """(pairs, rows) weights of pair_rows/pair_cols: the two bands."""
        return self.band[:, :self.d.shape[1]]


class _Semiseparable:
    """Adjacent-family score and weights, one block of rows at a time:
    W_i[r, s] = B_min(r,s) A_max(r,s), with B_r = P(Y <= r) and
    A_r = P(Y > r), the cancellation-free form of T_max(r,s) - T_r T_s with
    T_r = P(Y > r). Only B and A are stored, as (k-1, rows) products of
    triangular 0/1 matrices with the probabilities; the score is u_ir = B_r
    when y_i > r and -A_r otherwise, taken with the (k-1, n) response masks.
    """

    def __init__(self, problem: _Problem):
        layout, y0, w = problem.layout, problem.y0, problem.w
        q = layout.q
        width = problem.blocks[0].stop
        self.w = w  # not the problem: see _Tridiagonal
        self.below, self.above, self._u, self._masked = (np.empty((q, width)) for _ in range(4))
        # B = below_of @ probs and A = above_of @ probs: below_of[r, c] = 1 when c <= r
        self.below_of = np.tril(np.ones((q, q + 1)))
        self.above_of = 1.0 - self.below_of
        # response masks of the score: 1 where y_i > r, and its complement
        self.y_above = (y0 > np.arange(q)[:, None]).astype(float)
        self.y_below = 1.0 - self.y_above
        self.pair_rows, self.pair_cols = np.triu_indices(q)
        if layout.structure == "catspec":
            self.pair_weights = np.empty((self.pair_rows.size, width))
            return
        # W_i v for v = 1 and, with dispersion terms, v = w: one product for
        # each of the two sums with the stacked triangular matrices
        # prefix[r, s] = v_s [s <= r] and suffix[r, s] = v_s [s > r]
        ones, zeros = np.ones(q), np.zeros(q)
        vectors = (ones, w) if layout.m else (ones,)
        upto = np.tril(np.ones((q, q)))
        self.prefix = np.stack([upto * v for v in vectors])
        self.suffix = np.stack([(1.0 - upto) * v for v in vectors])
        self.products = np.empty((len(vectors), q, width))
        self.product = np.empty_like(self.products)
        # rows taking the stacked products to 1'W 1, 1'W w and w'W w
        self.quadratic = (np.array([np.r_[ones, zeros], np.r_[zeros, ones], np.r_[zeros, w]])
                          if layout.m else ones[None, :])
        self._forms = np.empty((len(self.quadratic), width))

    def load(self, ws: _Workspace, rows: slice) -> None:
        nb = rows.stop - rows.start
        probs = ws.probs[:, rows]
        B = np.matmul(self.below_of, probs, out=self.below[:, :nb])
        A = np.matmul(self.above_of, probs, out=self.above[:, :nb])
        self.B, self.A = B, A
        self.u = np.multiply(B, self.y_above[:, rows], out=self._u[:, :nb])
        self.u -= np.multiply(A, self.y_below[:, rows], out=self._masked[:, :nb])

    def score_sums(self):
        """(sum_i u_i, u_i . 1, u_i . w)."""
        u = self.u
        return u.sum(axis=1), u.sum(axis=0), self.w @ u

    def score(self) -> np.ndarray:
        return self.u

    def forms(self, X: np.ndarray, Z: np.ndarray):
        """sum_i (W_i 1) x_i', sum_i (W_i w) z_i' and the (3, rows) quadratic
        forms of a block. W_i 1 and W_i w are each a prefix and a suffix sum,
        one product with a triangular matrix apiece:
        (W v)_r = A_r sum_{s <= r} B_s v_s + B_r sum_{s > r} A_s v_s."""
        B, A = self.B, self.A
        nb = B.shape[1]
        out, product = self.products[:, :, :nb], self.product[:, :, :nb]
        np.matmul(self.prefix, B, out=out)
        out *= A
        np.matmul(self.suffix, A, out=product)
        product *= B
        out += product
        forms = np.matmul(self.quadratic, out.reshape(-1, nb), out=self._forms[:, :nb])
        return out[0] @ X, out[-1] @ Z, forms

    def add_total(self, top: np.ndarray) -> None:
        """Add the upper triangle of sum_i W_i = B' A to ``top``."""
        pairs = self.pair_rows, self.pair_cols
        top[pairs] += (self.B @ self.A.T)[pairs]

    def pairs(self) -> np.ndarray:
        """Every threshold pair r <= s (row-major) and the (pairs, rows)
        weights B_r A_s."""
        B, A = self.B, self.A
        q, nb = B.shape
        weights = self.pair_weights[:, :nb]
        start = 0
        for r in range(q):
            np.multiply(B[r], A[r:], out=weights[start:start + q - r])
            start += q - r
        return weights


def _band_expansion(v: np.ndarray) -> np.ndarray:
    """(k-1, 2k-3) matrix taking the stacked bands [d; o] of a tridiagonal
    W to W v: (W v)_r = v_r d_r + v_{r-1} o_{r-1} + v_{r+1} o_r."""
    q = v.size
    index = np.arange(q - 1)
    out = np.zeros((q, 2 * q - 1))
    out[np.arange(q), np.arange(q)] = v
    out[index + 1, q + index] = v[:-1]
    out[index, q + index] = v[1:]
    return out


def _band_form(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row taking the stacked bands [d; o] of a tridiagonal W to a' W b."""
    return np.concatenate([a * b, a[:-1] * b[1:] + a[1:] * b[:-1]])


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
    probs = problem.evaluate(problem.canonical(params)).probs
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
    s, _ = problem.score_info(problem.evaluate(problem.canonical(params)))
    return s[problem.perm]


def fisher_info(params, data: OrdinalDataset, spec: ModelSpec) -> np.ndarray:
    """Expected information matrix at ``params``."""
    problem = _Problem(data, spec)
    _, info = problem.score_info(problem.evaluate(problem.canonical(params)))
    return info[np.ix_(problem.perm, problem.perm)]


def category_probabilities(params, data: OrdinalDataset, spec: ModelSpec) -> np.ndarray:
    """Category probabilities (n, k) at ``params`` in the original labels."""
    problem = _Problem(data, spec)
    probs = problem.evaluate(problem.canonical(params)).probs
    return (probs[::-1] if problem.reverse else probs).T.copy()


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

    # the accepted step's workspace and the candidates' (made at the first
    # candidate); accepting a step swaps them
    current, trial = problem.workspace, None
    if start is not None:
        theta = np.asarray(start, dtype=float)
        if theta.shape != (layout.n_params,):
            raise StartError(f"start has {theta.shape} entries, expected {layout.n_params}")
        theta = theta[problem.perm]
        try:
            problem.evaluate(theta, current)
        except ThresholdOrderError as exc:
            raise StartError(f"infeasible start: {exc}") from exc
    else:
        theta = problem.initial_params()
        problem.evaluate(theta, current)

    deviance = -2.0 * problem.loglik(current.probs)
    s, info = problem.score_info(current)
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
        if trial is None:
            trial = problem.new_workspace()
        for _ in range(11):
            cand = theta + lam * step
            try:
                problem.evaluate(cand, trial)
            except ThresholdOrderError:
                lam /= 2.0
                continue
            cand_dev = -2.0 * problem.loglik(trial.probs)
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
        theta, deviance = cand, cand_dev
        current, trial = trial, current
        s, info = problem.score_info(current)
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
    if problem.cumulative:
        monotone = bool(np.all(np.diff(current.eta, axis=0) >= -1e-12))

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
