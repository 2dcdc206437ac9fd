"""Maximum-likelihood fitting of the ordinal models by Fisher scoring.

Reverse-representation specs are fitted canonically on the relabeled response
k+1-y and re-expressed afterwards: both families keep identical location and
dispersion coefficients under relabeling while the intercept (and any
category-specific) blocks reverse their index order, which reproduces the
reversed scaling factor exactly. That index reversal is an involution, so the
same permutation converts parameters in either direction.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import OrdinalDataset, _brief_list
from .design import (
    ExpandedDesign,
    ModelSpec,
    ParamLayout,
    _smooth_columns,
    columns_dataset,
    design_columns,
    expand_design,
    frozen_design,
)
from .exceptions import (
    DataError,
    InvalidInputError,
    SeparationWarning,
    SpecError,
    StartError,
    ThresholdOrderError,
    ZeroProbabilityWarning,
)
from .links import PROB_FLOOR, Family, category_probs, logit, scaling_factors

SEPARATION_BOUND = 30.0
DEVIANCE_TOL = 1e-8  # convergence tolerances of fit(): see its docstring
SCORE_TOL = 1e-4
MAX_ITER = 100  # iteration cap of fit(), read at each call
WEIGHT_FLOOR = 1e-12  # probability floor inside score/information weights
# Rows per block of _Problem's pass. The block scratch, a few (k-1, rows)
# arrays (288 KB each at k=10), is allocated once per problem and written in
# place: a fresh temporary of that size costs ~28 us (its pages are mapped
# anew), against ~10 us to overwrite a kept one.
BLOCK_ROWS = 4096


@dataclass
class FitResult:
    """Estimates, covariance, and diagnostics of one fitted model.

    ``information`` is the expected information at ``params``, in their
    order: the matrix of the pass that accepted them, so fisher_info at
    ``params`` bit for bit. ``covariance``, its inverse, and
    ``se_unavailable``, the slots that a numerically null direction of it
    touches, are computed from it the first time either is read, and kept:
    until then the instance holds one P x P array, afterwards two. The
    eigendecomposition runs in the canonical order of the fit
    (_Shape.perm), so a reverse spec's covariance is its forward
    relabeling's, permuted, bit for bit. The model comparisons read
    deviances and parameter counts alone and never compute it.
    """

    spec: ModelSpec
    layout: ParamLayout
    params: np.ndarray
    information: np.ndarray
    deviance: float
    n: int
    k: int
    iterations: int
    converged: bool
    warnings: list = field(default_factory=list)

    @functools.cached_property
    def _inverse(self) -> tuple:
        layout, family = self.layout, self.spec.family
        perm = _shape(family.kind, layout.structure, layout.k, layout.p, layout.m,
                      family.reverse, layout.z_union).perm
        cov, bad = _covariance(self.information[np.ix_(perm, perm)])
        return cov[np.ix_(perm, perm)], bad[perm]

    @property
    def covariance(self) -> np.ndarray:
        """Inverse expected information at ``params``; computed on first read."""
        return self._inverse[0]

    @property
    def se_unavailable(self) -> np.ndarray:
        """Slots whose standard error the information cannot give; computed
        on first read, with ``covariance``."""
        return self._inverse[1]

    @property
    def loglik(self) -> float:
        """-deviance / 2: the log-likelihood at ``params``."""
        return -self.deviance / 2.0

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
        raise DataError(f"response categories {_brief_list(empty)} are unobserved; "
                        "merge categories before fitting")


def _unread() -> np.ndarray:
    """The value of a _Shape field that its shape never reads."""
    return np.empty(0)


@dataclass(frozen=True)
class _Shape:
    """The constants of a compiled problem and of its weights helper: what
    depends on the problem's shape alone, (family kind, structure, k, p, m,
    orientation, union pattern), and never on its data. _shape makes one per
    shape in a process, and every problem of that shape and its helper read
    it; each array is read-only, so none may be written through. A field
    that the shape's structure or family never reads is empty."""

    # the self-inverse map between reported and canonical parameter order:
    # parameter a's slot is that of (a's code, reversed, on a's column), the
    # identity for forward specs
    perm: np.ndarray
    w: np.ndarray  # scaling weights of the canonical family
    # the structure map M, (k-1)(1+u) x n_params, column a parameter a's
    # threshold vector on its union column: M theta, reshaped to (k-1, 1+u),
    # is the coefficient matrix B(theta) on the columns of the union design
    # [1 | U], row r [gamma_r, beta_r] (category-specific) or
    # [gamma_r, beta + w_r alpha] (global and location-shift)
    structure_map: np.ndarray
    # the threshold pairs r <= s, as rows and columns, where a family's
    # per-observation information W_i[r, s] can be nonzero: the diagonal and
    # then the upper band of the cumulative family's tridiagonal W_i, and
    # every pair, row-major, of the adjacent family's
    pair_rows: np.ndarray
    pair_cols: np.ndarray
    categories: np.ndarray  # 0..k-1 as a column, for the response masks
    # the shapes of the segments of the flat information sums, and the flat
    # index into those sums (and the zeros after them) of every information
    # cell, which places and mirrors them in one gather (see _info_layout)
    segments: tuple
    info_index: np.ndarray
    # (j, run of product rows) of each column j >= 1 of the union design
    # [1 | U], whose distinct products (j <= l) are the rows of one table,
    # row-major over the upper triangle: rows 0..u, (0, l), are [1 | U]
    # itself, and the pairs (j, l >= j) of each j >= 1 are one run of rows
    # after them
    runs: tuple
    # global and location-shift, cumulative (_Tridiagonal): the stacked
    # matrices taking the bands [d; o] to W_i 1 and W_i w
    expand: np.ndarray = field(default_factory=_unread)
    # global and location-shift: the rows taking the helper's stacked
    # products to the quadratic forms 1'W 1, 1'W w and w'W w (1'W 1 alone
    # without dispersion terms)
    quadratic: np.ndarray = field(default_factory=_unread)
    # adjacent (_Semiseparable): the triangular 0/1 matrices taking the
    # probabilities to B and A and, for global and location-shift problems,
    # the stacked triangular matrices prefix[r, s] = v_s [s <= r] and
    # suffix[r, s] = v_s [s > r] of v = 1 and, with dispersion terms, v = w
    below_of: np.ndarray = field(default_factory=_unread)
    above_of: np.ndarray = field(default_factory=_unread)
    prefix: np.ndarray = field(default_factory=_unread)
    suffix: np.ndarray = field(default_factory=_unread)

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


@functools.cache
def _shape(kind: str, structure: str, k: int, p: int, m: int, reverse: bool,
           z_union: tuple) -> _Shape:
    """The one _Shape of a problem shape, made at its first problem.
    ``z_union`` is the union column of each dispersion column
    (ParamLayout.z_union): the union pattern, in ints. Each canonical
    parameter is one threshold vector on one column of [1 | U]: its code, a
    row of the basis e_1 .. e_{k-1}, 1, w, and its union column. gamma_r is
    e_r on column 0, a category-specific beta_rj e_r on column 1+j, a global
    or location-shift beta_j 1 on column 1+j and alpha_j w on its union
    column; the structure map, the gather index and the reverse order are
    read off them."""
    q = k - 1
    # the union design [1 | U]: its columns, and those of the dispersion terms
    z_columns = 1 + np.asarray(z_union, dtype=np.intp)
    width = 1 + max([p, *z_columns])
    w = scaling_factors(Family(kind), k)
    ones = np.ones(q)
    basis = np.vstack([np.eye(q), ones, w])
    if structure == "catspec":
        code, column = np.repeat(np.arange(q), p), np.tile(1 + np.arange(p), q)
    else:
        code, column = np.repeat([q, q + 1], [p, m]), np.r_[1 + np.arange(p), z_columns]
    code, column = np.r_[np.arange(q), code], np.r_[np.zeros(q, dtype=np.intp), column]
    size = code.size
    structure_map = np.zeros((q, width, size))
    structure_map[:, column, np.arange(size)] = basis[code].T
    # a reverse spec reverses the thresholds, e_r <-> e_{k-r}, and keeps 1 and w
    flip = np.r_[np.arange(q)[::-1] if reverse else np.arange(q), q, q + 1]
    slot = np.empty((q + 2, width), dtype=np.intp)
    slot[code, column] = np.arange(size)
    if kind == "adjacent":
        pair_rows, pair_cols = np.triu_indices(q)
    else:
        index = np.arange(q)
        pair_rows = np.concatenate([index, index[:-1]])
        pair_cols = np.concatenate([index, index[1:]])
    pair_j, pair_l = np.triu_indices(width)
    first = np.searchsorted(pair_j, np.arange(width + 1))
    runs = tuple((j, slice(first[j], first[j + 1])) for j in range(1, width))
    # product row holding U_j U_l, for every (j, l)
    mirror = np.empty((width, width), dtype=np.intp)
    mirror[pair_j, pair_l] = mirror[pair_l, pair_j] = np.arange(pair_j.size)
    segments, base = _info_layout(kind, structure, q, width, m, pair_rows, pair_cols)
    fields = dict(segments=segments, info_index=base[np.ix_(code, code)]
                  + mirror[np.ix_(column, column)])
    vectors = (ones, w) if m else (ones,)
    if kind == "cumulative" and structure != "catspec":
        fields["expand"] = np.vstack([_band_expansion(v) for v in vectors])
        fields["quadratic"] = np.array(
            [_band_form(a, b) for a, b in ((ones, ones), (ones, w), (w, w))[:3 if m else 1]])
    elif kind == "adjacent":
        # below_of[r, c] = 1 when c <= r
        below_of = np.tril(np.ones((q, q + 1)))
        fields.update(below_of=below_of, above_of=1.0 - below_of)
        if structure != "catspec":
            zeros = np.zeros(q)
            upto = np.tril(np.ones((q, q)))
            fields["prefix"] = np.stack([upto * v for v in vectors])
            fields["suffix"] = np.stack([(1.0 - upto) * v for v in vectors])
            fields["quadratic"] = (
                np.array([np.r_[ones, zeros], np.r_[zeros, ones], np.r_[zeros, w]])
                if m else ones[None, :])
    return _Shape(perm=slot[flip[code], column], w=w,
                  structure_map=structure_map.reshape(q * width, size),
                  pair_rows=pair_rows, pair_cols=pair_cols, categories=np.arange(k)[:, None],
                  runs=runs, **fields)


def _info_layout(kind: str, structure: str, q: int, width: int, m: int, pair_rows,
                 pair_cols):
    """The segments of a shape's flat information sums, and base, the flat
    index where the sums of each pair of basis codes (e_1 .. e_{k-1}, 1, w)
    start: the information of parameters a and b is the sum at
    base[code_a, code_b] + mirror[column_a, column_b], mirror the products
    table's row of their union columns; a zero cell reads the n_products
    zeros after the sums. Category-specific, the one segment is the
    threshold pairs' sums of the products table. Global and location-shift,
    the segments are E, the sums of (W_i v) [1, U_i] for v = 1 (and w),
    stacked, read by (e_r, v); F, the quadratic forms 1'W_i 1 (and 1'W_i w,
    w'W_i w) against the products table, read by (v, v'); and, read by
    (e_r, e_s), the cumulative band sums G, whose column 0 is the threshold
    pairs' sum_i W_i, or the adjacent (k-1, k-1) sum_i B_i A_i', whose
    upper triangle is sum_i W_i."""
    n_products = width * (width + 1) // 2
    if structure == "catspec":
        segments = ((pair_rows.size, n_products),)
        pair_at = np.arange(pair_rows.size) * n_products
    else:
        n_vectors, n_forms = (2, 3) if m else (1, 1)
        vector = np.arange(n_vectors)
        third = (2 * q - 1, width) if kind == "cumulative" else (q, q)
        segments = ((n_vectors * q, width), (n_forms, n_products), third)
        f_at = n_vectors * q * width
        t_at = f_at + n_forms * n_products
        pair_at = t_at + (np.arange(pair_rows.size) * width if kind == "cumulative"
                          else pair_rows * q + pair_cols)
    base = np.full((q + 2, q + 2), sum(a * b for a, b in segments), dtype=np.intp)
    base[pair_rows, pair_cols] = base[pair_cols, pair_rows] = pair_at
    if structure != "catspec":
        v = q + vector
        base[:q, v] = (vector * q + np.arange(q)[:, None]) * width
        base[v, :q] = base[:q, v].T
        base[np.ix_(v, v)] = f_at + (vector[:, None] + vector) * n_products
    return segments, base


class _Problem:
    """A finished design, a family and responses, compiled once for
    likelihood, score, information and probabilities. _compile builds it
    from a design learned on the data; predict from a fit's layout, frozen,
    on new rows.

    Reverse specs are compiled on the relabeled response with the canonical
    family; ``shape.perm`` maps parameter vectors between the reported and
    the canonical order (the identity for forward specs). Every structure is
    fitted on one union design [1 | U], U the location columns X and then
    the dispersion columns Z that equal no X column, through its structure
    map M: the predictors of a block are B [1 | U]' with B = M theta
    reshaped to (k-1, 1+u), whose row r is [gamma_r, beta_r]
    (category-specific) or [gamma_r, beta + w_r alpha] (global and
    location-shift: the location-shift model is the category-specific one
    under design.constraint_map). So the (n, k-1, n_params) design tensor is
    never materialized, and neither are X and Z.
    The per-observation information in predictor space is kept in its
    structured form as well, never as an (n, k-1, k-1) array: tridiagonal
    bands for the cumulative family (_Tridiagonal), semiseparable factors for
    the adjacent family (_Semiseparable).

    What a problem holds has three lifetimes. Per shape, (family kind,
    structure, k, p, m, orientation, union pattern): the parameter
    permutation, the structure map and the information's gather index, each
    read off every parameter's threshold vector and union column, the
    scaling weights w and the weights helpers' band and triangular
    matrices, one read-only _Shape shared by every problem of that shape
    and made once per shape in a process by _shape. Per problem, the data, the weights helper
    and the scratch. Per block, nothing: every per-observation,
    per-threshold quantity is threshold-major, a (k-1, rows) or (k, rows)
    array of one block of BLOCK_ROWS rows (a single block when n <=
    BLOCK_ROWS; fewer rows when the products table below would pass 2**21
    floats) in block scratch allocated once per problem, so each step along
    the short threshold axis is a few contiguous loops over observations,
    and none outlives its block.

    evaluate() is one pass over the blocks: a block's predictors, F and
    probabilities, its log-likelihood, and then its score and information.
    The part of a block that depends on the data alone is block scratch too:
    the weights helper's response mask and the (1+u)(2+u)/2 distinct
    products (j <= l) of the columns of [1 | U], one row per product (as
    columns of a (rows, pairs) array they took five times as long),
    refilled for each block in turn and filled once when the problem is a
    single block. The score and information sums of a pass are problem
    scratch too, zeroed at its start. No step allocates an (n, k-1) array.
    """

    def __init__(self, design: ExpandedDesign, family: Family, y):
        self.reverse = family.reverse
        self.layout = layout = design.layout
        # 0-based responses; a reverse spec's are those of k+1-y
        self.y0 = layout.k - y if self.reverse else y - 1
        if self.reverse:
            family = Family(family.kind, reverse=False)
        self.family = family
        self.U = design.U
        self.shape = shape = _shape(family.kind, layout.structure, layout.k, layout.p, layout.m,
                                    self.reverse, layout.z_union)
        n = y.size
        union = 1 + self.U.shape[1]  # columns of [1 | U]
        n_products = union * (union + 1) // 2
        # a factor with many levels makes many products: the table stays
        # within 2**21 floats, 16 MB
        step = min(BLOCK_ROWS, max(1, 2**21 // n_products))
        self.blocks = [slice(i, min(i + step, n)) for i in range(0, n, step)]
        self.cumulative = family.kind == "cumulative"
        self.catspec = layout.structure == "catspec"
        q, width = layout.q, self.blocks[0].stop
        # flat index of (y_i, i) in the (k, width) probability scratch of i's block
        self.own_index = self.y0 * width + np.arange(n) % width
        self._eta = np.empty((q, width))
        self._cdf = np.empty((q, width)) if self.cumulative else None
        self._probs = np.empty((q + 1, width))
        self._own, self._logs = np.empty(width), np.empty(width)
        self._loaded = None  # first row of the block whose data-only scratch is filled
        self._products = np.empty((n_products, width))
        self._products[0] = 1.0
        # a pass's score sums u U, and its flat information sums in the
        # _Shape's segments with n_products zeros after them, which
        # info_index reads for the cells that are zero
        self._score = np.empty((q, union))
        self._sums = np.empty(sum(a * b for a, b in shape.segments) + n_products)
        self._segments, at = [], 0
        for rows, cols in shape.segments:
            self._segments.append(self._sums[at:at + rows * cols].reshape(rows, cols))
            at += rows * cols
        self.weights = (_Tridiagonal if self.cumulative else _Semiseparable)(self)

    def canonical(self, params) -> np.ndarray:
        """``params``, in the reported order, as canonical theta: the one
        check of a parameter vector's length and finiteness."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.layout.n_params,):
            raise SpecError(f"expected {self.layout.n_params} parameters, got {params.shape}")
        bad = np.flatnonzero(~np.isfinite(params))
        if bad.size:
            j = bad[0]
            raise InvalidInputError(
                f"parameter {j} ({self.layout.names[j]}) is not finite: {params[j]}")
        return params[self.shape.perm]

    def category_probabilities(self, params) -> np.ndarray:
        """(n, k) category probabilities at ``params``, in the original labels."""
        theta = self.canonical(params)
        out = np.empty((self.y0.size, self.layout.k))
        for rows in self.blocks:
            probs = self.probabilities(theta, rows)[0]
            out[rows] = (probs[::-1] if self.reverse else probs).T
        return out

    def initial_params(self) -> np.ndarray:
        """Intercepts at the marginal cumulative quantiles (cumulative) or
        adjacent log-ratios, every covariate effect zero."""
        layout = self.layout
        counts = np.bincount(self.y0, minlength=layout.k).astype(float)
        theta = np.zeros(layout.n_params)
        if self.cumulative:
            cum = np.cumsum(counts)[: layout.q] / counts.sum()
            theta[: layout.q] = logit(cum)
        else:
            theta[: layout.q] = np.log(counts[1:] / counts[:-1])
        return theta

    def predictors(self, theta: np.ndarray, rows: slice, out: np.ndarray) -> np.ndarray:
        """(k-1, rows) linear predictors B [1 | U]' of one block at canonical
        ``theta``, into ``out``, with B the (k-1, 1+u) coefficients M theta:
        the product with U, and then B's column 0, the intercepts, added."""
        coef = (self.shape.structure_map @ theta).reshape(out.shape[0], -1)
        np.matmul(coef[:, 1:], self.U[rows].T, out=out)
        out += coef[:, :1]
        return out

    def probabilities(self, theta: np.ndarray, rows: slice):
        """One block at canonical ``theta``, in block scratch: its (k, rows)
        probabilities, its (k-1, rows) kept F (None for the adjacent family)
        and each observation's own-category probability. The predictors go
        to block scratch and become F and the probabilities at once; the
        clipped F of the cumulative map overwrites the predictors.
        Infeasible cumulative thresholds raise ThresholdOrderError."""
        nb = rows.stop - rows.start
        eta = self.predictors(theta, rows, self._eta[:, :nb])
        cdf = None if self._cdf is None else self._cdf[:, :nb]
        probs = category_probs(self.family, eta, self._probs[:, :nb], cdf, eta)
        # the compiled indices are in range: mode="clip" gathers straight into
        # out, where the default mode buffers it through a fresh array
        own = np.take(self._probs, self.own_index[rows], out=self._own[:nb], mode="clip")
        return probs, cdf, own

    def _block_loglik(self, own: np.ndarray) -> float:
        logs = np.maximum(own, PROB_FLOOR, out=self._logs[:own.size])
        return float(np.log(logs, out=logs).sum())

    def loglik(self, theta: np.ndarray):
        """Log-likelihood at canonical ``theta`` and whether any observation's
        own category sits at the PROB_FLOOR floor: evaluate()'s walk over the
        blocks without its derivative work, so -2 times it is bit for bit
        evaluate()'s deviance."""
        total, floored = 0.0, False
        for rows in self.blocks:
            own = self.probabilities(theta, rows)[2]
            floored = floored or bool(own.min() <= PROB_FLOOR)
            total += self._block_loglik(own)
        return total, floored

    def _load_data(self, rows: slice) -> np.ndarray:
        """Fill the block scratch that depends on the data alone, the response
        mask and the union design's products table, unless it already holds
        this block: a one-block problem fills it once. Returns the block's
        (rows, pairs) products, whose first 1+u columns are its rows of
        [1 | U]."""
        products = self._products[:, :rows.stop - rows.start]
        if self._loaded != rows.start:
            self._loaded = rows.start
            self.weights.mask(self.y0[rows])
            union = 1 + self.U.shape[1]
            products[1:union] = self.U[rows].T
            for j, run in self.shape.runs:
                np.multiply(products[j], products[j:union], out=products[run])
        return products.T

    def evaluate(self, theta: np.ndarray):
        """Deviance, score and information at canonical ``theta`` in one pass
        over every block.

        Each block's probabilities are made in block scratch and its
        log-likelihood is added; then the weights helper loads the block's
        weights from its probabilities, and the block's score and
        information are added. Infeasible cumulative thresholds, in any
        block, raise ThresholdOrderError.

        u_i = d log pi_{y_i} / d eta_i and W_i = sum_c pi_c A_c A_c' with
        A_c = d log pi_c / d eta are each observation's score and information
        in predictor space, in the closed forms of the multinomial GLM
        (Fahrmeir & Tutz, Multivariate Statistical Modelling Based on GLMs).
        The weights helper's load() returns a block's scores as one dense
        (k-1, rows) array u, and every structure's score is M' vec(S) of the
        sums S = sum_i u_i [1, U_i], (k-1, rows) @ (rows, 1+u). Each block's
        information is summed in the _Shape's flat segments, and one gather
        through its info_index places and mirrors every cell:
        category-specific, the helper's pairs(), the threshold pairs (r, s)
        where W_i[r, s] can be nonzero, against the distinct products
        U_j U_l; global and location-shift, by the helper's add(), W_i 1 and
        W_i w against [1 | U] and the quadratic forms 1'W_i 1, 1'W_i w and
        w'W_i w against the products.
        No (n, k-1, k-1) array is formed. Score and information are in
        canonical order.
        """
        weights, score = self.weights, self._score
        score.fill(0.0)
        self._sums.fill(0.0)
        loglik = 0.0
        for rows in self.blocks:
            probs, cdf, own = self.probabilities(theta, rows)
            loglik += self._block_loglik(own)
            products = self._load_data(rows)
            u = weights.load(probs, cdf, own)
            block = products[:, :1 + self.U.shape[1]]
            score += u @ block
            if self.catspec:
                self._segments[0] += weights.pairs() @ products
            else:
                weights.add(block, products)
        if self.cumulative and not self.catspec:
            weights.finish()
        s = self.shape.structure_map.T @ score.ravel()
        return -2.0 * loglik, s, self._sums.take(self.shape.info_index)


class _Tridiagonal:
    """Cumulative-family score and weights, one block of rows at a time:
    W_i is tridiagonal, so products with it are three-term band sums and
    only its two bands are stored.

    With f_r = F'(eta_r) and probabilities floored at WEIGHT_FLOOR (pi~),
    a_r = f_r / pi~_r = d log pi_r / d eta_r and b_r = f_r / pi~_{r+1} =
    -d log pi_{r+1} / d eta_r, the diagonal is d_r = pi_r a_r^2 + pi_{r+1} b_r^2
    and the off-diagonal o_r = W[r, r+1] = -pi_{r+1} b_r a_{r+1}. The score
    is u_ir = f_r S_ir / pi~_{y_i} with the response mask S_ir = [y_i = r] -
    [y_i = r + 1] (0-based categories): a_{y_i} at r = y_i and -b_{y_i - 1}
    at r = y_i - 1, zero elsewhere. mask() and load() rewrite the helper's
    block scratch for the next block, and add() adds a global or
    location-shift block to the problem's information sums (a
    category-specific problem reads pairs()); its constants are the
    problem's _Shape.
    """

    def __init__(self, problem: _Problem):
        layout = problem.layout
        q, k = layout.q, layout.k
        width = problem.blocks[0].stop
        # the helper keeps what it reads of the problem, not the problem: a
        # reference back would make a cycle that holds the problem's block
        # scratch until the garbage collector runs
        self.shape = shape = problem.shape
        self.f, self.u = np.empty((q, width)), np.empty((q, width))
        self.g = np.empty((k, width))
        self.band = np.empty((2 * q - 1, width))  # d in rows 0..q-1, o after it
        self._own = np.empty(width)
        # [y_i = c] for c = 0..k-1 and S as int8: a float mask would be eight
        # times the memory
        self.is_y = np.empty((k, width), dtype=bool)
        self.sign = np.empty((q, width), dtype=np.int8)
        # global and location-shift information sums: E (sum_i (W_i 1) [1, U_i]
        # and sum_i (W_i w) [1, U_i], made by finish()), F (the quadratic
        # forms against the products) and G (the band against [1 | U])
        self.sums = problem._segments
        self._forms = np.empty((len(shape.quadratic), width))

    def mask(self, y0: np.ndarray) -> None:
        """Response mask S of the block whose 0-based responses are ``y0``."""
        nb = y0.size
        is_y = np.equal(y0, self.shape.categories, out=self.is_y[:, :nb]).view(np.int8)
        np.subtract(is_y[:-1], is_y[1:], out=self.sign[:, :nb])

    def load(self, probs: np.ndarray, cdf: np.ndarray, own: np.ndarray) -> np.ndarray:
        """Bands of a block from its probabilities, kept F and own-category
        probabilities, after mask(); returns its (k-1, rows) score."""
        q, nb = cdf.shape
        f, g, u = self.f[:, :nb], self.g[:, :nb], self.u[:, :nb]
        self.d, self.o = self.band[:q, :nb], self.band[q:, :nb]
        self.density(cdf, f)
        np.maximum(probs, WEIGHT_FLOOR, out=g)
        np.square(g, out=g)
        np.divide(probs, g, out=g)  # pi_c / pi~_c^2
        own = np.maximum(own, WEIGHT_FLOOR, out=self._own[:nb])
        np.multiply(f, self.sign[:, :nb], out=u)
        u /= own
        np.negative(f[:-1], out=self.o)
        self.o *= f[1:]
        self.o *= g[1:q]
        np.multiply(f, f, out=f)
        np.add(g[:q], g[1:], out=self.d)
        self.d *= f
        return u

    @staticmethod
    def density(cdf: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Logistic density F'(eta) = F (1 - F) into ``out``, from a block's
        kept F: no second evaluation of F."""
        np.subtract(1.0, cdf, out=out)
        return np.multiply(out, cdf, out=out)

    def add(self, block: np.ndarray, products: np.ndarray) -> None:
        """Add a loaded global or location-shift block's information sums,
        from its rows of [1 | U] and its (rows, pairs) products: W_i v is
        never formed."""
        band = self.pairs()
        _, F, G = self.sums
        G += band @ block
        F += np.matmul(self.shape.quadratic, band, out=self._forms[:, :band.shape[1]]) @ products

    def finish(self) -> None:
        """E of the pass from its band sums G: W 1 and W w are linear in the
        bands, so their sums against [1 | U] are formed once per pass, not
        per block."""
        E, _, G = self.sums
        np.matmul(self.shape.expand, G, out=E)

    def pairs(self) -> np.ndarray:
        """(pairs, rows) weights of the _Shape's threshold pairs: the two
        bands."""
        return self.band[:, :self.d.shape[1]]


class _Semiseparable:
    """Adjacent-family score and weights, one block of rows at a time:
    W_i[r, s] = B_min(r,s) A_max(r,s), with B_r = P(Y <= r) and
    A_r = P(Y > r), the cancellation-free form of T_max(r,s) - T_r T_s with
    T_r = P(Y > r). Only B and A are stored, as (k-1, rows) products of
    triangular 0/1 matrices with the probabilities; the score is u_ir = B_r
    when y_i > r and -A_r otherwise, taken with the block's response mask.
    Its constants are the problem's _Shape.
    """

    def __init__(self, problem: _Problem):
        q = problem.layout.q
        width = problem.blocks[0].stop
        self.shape = shape = problem.shape
        self.below, self.above, self.u = (np.empty((q, width)) for _ in range(3))
        self.y_above = np.empty((q, width), dtype=bool)  # response mask of the score
        if problem.catspec:
            self.pair_weights = np.empty((shape.pair_rows.size, width))
            return
        # global and location-shift information sums: E (sum_i (W_i 1) [1, U_i]
        # and sum_i (W_i w) [1, U_i]), F (the quadratic forms against the
        # products) and T (sum_i B_i A_i')
        self.sums = problem._segments
        # W_i 1 and, with dispersion terms, W_i w: one product for each of
        # the two sums with the stacked triangular matrices
        self.products = np.empty((len(shape.prefix), q, width))
        self.product = np.empty_like(self.products)
        self._forms = np.empty((len(shape.quadratic), width))

    def mask(self, y0: np.ndarray) -> None:
        """Response mask [y_i > r] of the block whose 0-based responses are ``y0``."""
        np.greater(y0, self.shape.categories[:-1], out=self.y_above[:, :y0.size])

    def load(self, probs: np.ndarray, cdf, own) -> np.ndarray:
        """B and A of a block from its probabilities, after mask(); returns
        its (k-1, rows) score."""
        nb = probs.shape[1]
        B = np.matmul(self.shape.below_of, probs, out=self.below[:, :nb])
        A = np.matmul(self.shape.above_of, probs, out=self.above[:, :nb])
        self.B, self.A = B, A
        u = np.negative(A, out=self.u[:, :nb])
        np.copyto(u, B, where=self.y_above[:, :nb])
        return u

    def add(self, block: np.ndarray, products: np.ndarray) -> None:
        """Add a loaded global or location-shift block's information sums,
        from its rows of [1 | U] and its (rows, pairs) products. W_i 1 and
        W_i w are each a prefix and a suffix sum, one product with a
        triangular matrix apiece:
        (W v)_r = A_r sum_{s <= r} B_s v_s + B_r sum_{s > r} A_s v_s."""
        B, A, shape = self.B, self.A, self.shape
        nb = B.shape[1]
        out, product = self.products[:, :, :nb], self.product[:, :, :nb]
        np.matmul(shape.prefix, B, out=out)
        out *= A
        np.matmul(shape.suffix, A, out=product)
        product *= B
        out += product
        vectors = out.reshape(-1, nb)
        E, F, T = self.sums
        E += vectors @ block
        F += np.matmul(shape.quadratic, vectors, out=self._forms[:, :nb]) @ products
        T += B @ A.T

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


def _score_converged(s: np.ndarray, deviance: float) -> bool:
    """max |score| < SCORE_TOL * (1 + |loglik|), the score half of convergence."""
    return bool(np.max(np.abs(s)) < SCORE_TOL * (1.0 + abs(deviance) / 2.0))


def _covariance(info: np.ndarray):
    """Inverse information with honest flags for numerically singular slots."""
    eigval, eigvec = np.linalg.eigh(info)
    null = eigval <= max(float(eigval.max(initial=0.0)), 1.0) * 1e-10
    # null directions get a zero inverse eigenvalue; without any, bad is all False
    cov = (eigvec / np.where(null, np.inf, eigval)) @ eigvec.T
    bad = (np.abs(eigvec[:, null]) > 1e-8).any(axis=1)
    return cov, bad


def _compile(data: OrdinalDataset, spec: ModelSpec) -> _Problem:
    """The problem of ``spec`` on ``data``, its design learned on ``data``.
    A location design [1 | X] or dispersion design [1 | Z] with more
    columns than ``data`` has rows is not identified (a null vector of it
    moves the thresholds and coefficients without changing any predictor):
    a SpecError naming the design, its width, n and the factor with the most
    levels. A saturated design, as wide as n, is allowed."""
    design = expand_design(data, spec)
    for side, cols in (("location design [1 | X]", design.layout.x_cols),
                       ("dispersion design [1 | Z]", design.layout.z_cols)):
        if 1 + len(cols) > data.n:
            levels = {c.source: len(c.levels) for c in cols if c.levels}
            widest = max(levels, key=levels.get, default=None)
            raise SpecError(
                f"{side} has {1 + len(cols)} columns, more than the n = {data.n} rows"
                + (f"; factor {widest!r} has {levels[widest]} levels" if widest else ""))
    return _Problem(design, spec.family, data.y)


def log_likelihood(params, data: OrdinalDataset, spec: ModelSpec) -> float:
    """Multinomial log-likelihood at ``params``, probabilities clamped at 1e-15.

    Warns when an observed response falls in a floor-probability category;
    cumulative specs raise ThresholdOrderError at infeasible parameters.
    """
    problem = _compile(data, spec)
    loglik, floored = problem.loglik(problem.canonical(params))
    if floored:
        warnings.warn(
            "observed categories with probability at the 1e-15 floor",
            ZeroProbabilityWarning,
            stacklevel=2,
        )
    return loglik


def score(params, data: OrdinalDataset, spec: ModelSpec) -> np.ndarray:
    """Analytic gradient of log_likelihood with respect to ``params``."""
    problem = _compile(data, spec)
    _, s, _ = problem.evaluate(problem.canonical(params))
    return s[problem.shape.perm]


def fisher_info(params, data: OrdinalDataset, spec: ModelSpec) -> np.ndarray:
    """Expected information matrix at ``params``."""
    problem = _compile(data, spec)
    _, _, info = problem.evaluate(problem.canonical(params))
    perm = problem.shape.perm
    return info[np.ix_(perm, perm)]


def predict(result: FitResult, columns: dict) -> np.ndarray:
    """Category probabilities (n, k) of a fitted model at the covariate
    ``columns`` (a dict of raw columns by variable name), in the original
    labels.

    The design is ``result.layout`` frozen, built by
    design.design_columns: the training data's factor levels, knots and
    smooth-term means are reused, never learned on ``columns``. A smooth
    term clamps to its boundary value outside the training range; a
    categorical value outside the training levels, or a variable the fit
    reads and ``columns`` lack, is a DataError naming it. Cumulative
    thresholds can still cross at covariates beyond the training rows,
    which raises ThresholdOrderError. On the training columns it is the
    probabilities of the problem compiled on the training data, bit for bit.
    """
    layout = result.layout
    rows = columns_dataset(layout.x_cols + layout.z_cols, columns, layout.k)
    problem = _Problem(frozen_design(layout, rows), result.spec.family, rows.y)
    return problem.category_probabilities(result.params)


def fit(spec: ModelSpec, data: OrdinalDataset, *, start=None) -> FitResult:
    """Fisher scoring with step halving until the deviance stabilizes.

    A step is halved (up to 10 times) when it would increase the deviance or,
    for cumulative specs, cross any observation's thresholds. An iteration
    without an accepted step stops the fit: converged when max |score| is
    already below tolerance, converged=False otherwise (retrying would solve
    for the same step); an unconverged stop at an iteration in which some
    candidate crossed thresholds is noted in ``warnings`` as a stop at the
    threshold-order boundary.
    Convergence requires relative deviance change < DEVIANCE_TOL and
    max |score| < SCORE_TOL * (1 + |loglik|) at the same iteration. The
    loop runs at most MAX_ITER iterations, the module constant read at each
    call; a fit still moving then stops, converged=False. ``start`` is a
    parameter vector in the reported order (default: initial_params()). Each
    candidate is evaluated in one whole pass over the rows, so a crossing
    in any block is seen; the score and information of an accepted step
    come from the pass that accepted it and serve the convergence test and
    the next step. A location or dispersion design with more columns than
    ``data`` has rows is a SpecError before any pass (_compile). The result
    keeps the information of its parameters; its covariance, the inverse
    expected information at the optimum, is computed from it on first read
    (FitResult).
    """
    _check_categories(data)
    problem = _compile(data, spec)
    layout = problem.layout

    try:
        theta = problem.initial_params() if start is None else problem.canonical(start)
    except (SpecError, InvalidInputError) as exc:
        raise StartError(f"start: {exc}") from exc
    try:
        deviance, s, info = problem.evaluate(theta)
    except ThresholdOrderError as exc:
        raise StartError(f"infeasible start: {exc}") from exc

    converged = False
    boundary = False
    iterations = 0
    for iteration in range(1, MAX_ITER + 1):
        iterations = iteration
        try:
            step = np.linalg.solve(info, s)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(info, s, rcond=None)[0]
        accepted = None
        crossed = False
        lam = 1.0
        for _ in range(11):
            cand = theta + lam * step
            try:
                result = problem.evaluate(cand)
            except ThresholdOrderError:
                crossed = True
            else:
                if result[0] <= deviance:
                    accepted = result
                    break
            lam /= 2.0
        if accepted is None:
            # a rejected step at a stationary point is convergence, not
            # failure: the deviance is already flat to rounding and the
            # score is below tolerance. Elsewhere it stops the fit: a retry
            # would solve for the same step from the same score and information
            converged = _score_converged(s, deviance)
            boundary = not converged and crossed
            break
        rel_change = abs(deviance - accepted[0]) / (abs(deviance) + 1e-10)
        theta = cand
        deviance, s, info = accepted
        if rel_change < DEVIANCE_TOL and _score_converged(s, deviance):
            converged = True
            break

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
    if boundary:
        notes.append("stopped at the threshold-order boundary")

    perm = problem.shape.perm
    return FitResult(
        spec=spec,
        layout=layout,
        params=theta[perm],
        information=info[np.ix_(perm, perm)],
        deviance=deviance,
        n=data.n,
        k=data.k,
        iterations=iterations,
        converged=converged,
        warnings=notes,
    )


def standard_errors(result: FitResult) -> np.ndarray:
    """sqrt of the covariance diagonal; NaN where the information is
    singular. The first read of a fit's covariance computes it."""
    se = np.sqrt(np.maximum(np.diag(result.covariance), 0.0)).copy()
    se[result.se_unavailable] = np.nan
    return se


def smooth_values(result: FitResult, side: str, name: str, grid) -> np.ndarray:
    """Fitted smooth f(grid) for one term, centered over the sample.

    The term's columns of ``result.layout`` are built on ``grid`` by
    design.design_columns, as the fit built them: the frozen basis, clamped
    outside the training range, less the training means.
    """
    found = _smooth_columns(result.layout, side, name)
    if not found:
        raise SpecError(f"no {side} smooth for variable {name!r}")
    index, cols = zip(*found)
    rows = columns_dataset(cols, {name: np.asarray(grid, dtype=float)}, result.k)
    return design_columns(cols, rows) @ result.params[list(index)]
