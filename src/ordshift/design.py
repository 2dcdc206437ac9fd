"""The design: raw covariates and a model spec as per-category design rows.

The multivariate GLM underneath every model here has k-1 linear predictors
per observation. ``expand_design`` is the one place that decides the design
columns: it learns the parameter vector layout [intercepts | location |
dispersion] (category-specific location blocks are laid out per threshold)
on the training data, with what that data fixes of each column (a dummy's
level, a smooth term's knots and training means), and builds the union
columns U: the location columns, then the dispersion columns that equal no
location column. ``design_columns`` is the one place where a layout column
becomes numbers: the fit, the smooth curves of ``fit.smooth_values`` and the
predictions of ``fit.predict`` all build their columns through it, so a
finished layout is reused on new rows as frozen, never learned again.
Every structure is fitted on the union design [1 | U] through a constraint
map from the parameters to per-threshold coefficients on its columns, and
the design rows are never materialized; ``build_design_tensor`` spells them
out as a dense (n, k-1, n_params) tensor, as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from operator import attrgetter

import numpy as np

from .data import OrdinalDataset
from .exceptions import DataError, SpecError
from .links import Family, scaling_factors
from .splines import BasisDef, bspline_basis, knot_sequence

STRUCTURES = ("global", "locshift", "catspec")

DEFAULT_N_BASIS = 6
SPLINE_DEGREE = 3


@dataclass(frozen=True)
class Term:
    """One formula term: a plain variable or a smooth s(name [, n_basis])."""

    name: str
    smooth: bool = False
    n_basis: int | None = None

    def __str__(self):
        if not self.smooth:
            return self.name
        if self.n_basis is None:
            return f"s({self.name})"
        return f"s({self.name}, {self.n_basis})"


@dataclass(frozen=True)
class ModelSpec:
    """Family, effect structure, and the location/dispersion terms."""

    family: Family
    structure: str
    location: tuple = ()
    dispersion: tuple = ()

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise SpecError(
                f"unknown structure {self.structure!r}; expected one of {STRUCTURES}"
            )
        object.__setattr__(self, "location", tuple(self.location))
        object.__setattr__(self, "dispersion", tuple(self.dispersion))
        # a variable listed twice on one side gives a singular design; the
        # same variable on both sides is a location-shift effect
        for side, terms in (("location", self.location), ("dispersion", self.dispersion)):
            seen = {}
            for t in terms:
                first = seen.setdefault(t.name, t)
                if first is not t:
                    why = (" (a smooth term already spans the linear one)"
                           if first.smooth != t.smooth else "")
                    raise SpecError(
                        f"variable {t.name!r} appears twice among the {side} terms{why}"
                    )
        if self.structure == "catspec":
            for t in self.location + self.dispersion:
                if t.smooth:
                    raise SpecError(
                        "category-specific structure does not support smooth terms"
                    )

    def with_structure(self, structure: str) -> "ModelSpec":
        return replace(self, structure=structure)


@dataclass(frozen=True)
class ColumnInfo:
    """One expanded design column: its name, the variable it reads, and
    what the training data fixed about it, so that design_columns builds it
    on any later rows as it was fitted.

    A linear column is its variable's values. A dummy column is the
    indicator of ``level`` among ``levels``, the variable's frozen level
    order (reference first). A smooth column is B-spline ``basis_index``
    (1-based) of its frozen ``basis`` less ``mean``, that B-spline's mean
    over the training rows.
    """

    name: str
    source: str
    basis_index: int | None = None
    basis: BasisDef | None = None
    mean: float = 0.0
    level: str | None = None
    levels: tuple | None = None


@dataclass
class ParamLayout:
    """Names and index ranges of the parameter vector blocks, and the
    expanded location (``x_cols``) and dispersion (``z_cols``) columns."""

    names: list
    structure: str
    k: int
    x_cols: list
    z_cols: list

    @property
    def q(self):
        return self.k - 1

    @property
    def p(self):
        return len(self.x_cols)

    @property
    def m(self):
        return len(self.z_cols)

    @property
    def n_params(self):
        return len(self.names)

    @property
    def location(self):
        width = self.p * self.q if self.structure == "catspec" else self.p
        return slice(self.q, self.q + width)

    @property
    def dispersion(self):
        start = self.location.stop
        return slice(start, start + self.m)

    @property
    def union_cols(self) -> list:
        """The union columns: the location columns, then each dispersion
        column that equals no location column. Equal means the same frozen
        transform (ColumnInfo), not the same name: s(x, 6) and s(x, 5)
        share column names but not bases."""
        return list(dict.fromkeys(self.x_cols + self.z_cols))

    @property
    def z_union(self) -> tuple:
        """The union column of each dispersion column, 0-based (the location
        columns are 0..p-1)."""
        column = {c: j for j, c in enumerate(self.union_cols)}
        return tuple(column[c] for c in self.z_cols)

    def location_index(self, column: str) -> int:
        for i, c in enumerate(self.x_cols):
            if c.name == column:
                return self.location.start + i
        raise KeyError(column)

    def dispersion_index(self, column: str) -> int:
        for i, c in enumerate(self.z_cols):
            if c.name == column:
                return self.dispersion.start + i
        raise KeyError(column)


@dataclass
class ExpandedDesign:
    """The union columns U of a design and its parameter layout.

    U is (n, u), the columns ``layout.union_cols``: a column that the
    location and dispersion sides share (the same frozen transform on both)
    is held, and was evaluated, once. The union design that every structure
    is fitted on is [1 | U]: the location columns are U's first p, the
    dispersion columns U's columns ``layout.z_union``."""

    U: np.ndarray
    layout: ParamLayout


def _catspec_fold(location, dispersion, key) -> tuple:
    """The category-specific location set: the ``location`` items, then the
    ``dispersion`` items whose ``key`` (a variable) no location item has.

    The category-specific model has no separate dispersion term but must
    nest the location-shift model; this is the order of its location columns
    whether the items are terms or a location-shift fit's columns.
    """
    have = {key(item) for item in location}
    return tuple(location) + tuple(item for item in dispersion if key(item) not in have)


def _smooth_columns(layout: ParamLayout, side: str, name: str) -> list:
    """(parameter index, column) of each column of the ``side`` smooth term
    of variable ``name`` in ``layout``; empty when there is none."""
    cols, start = {
        "location": (layout.x_cols, layout.location.start),
        "dispersion": (layout.z_cols, layout.dispersion.start),
    }.get(side, ((), 0))
    return [(start + i, c) for i, c in enumerate(cols) if c.source == name and c.basis is not None]


def _terms(cols):
    """(slice of ``cols``, its columns) of each term: a run of columns that
    read one variable through one basis. A side of a layout holds each
    variable at most once; the union design can hold it twice, as s(x, 6)
    and s(x, 5), one run per basis."""
    start = 0
    for _, group in groupby(cols, attrgetter("source", "basis")):
        group = list(group)
        yield slice(start, start + len(group)), group
        start += len(group)


def design_columns(cols, data: OrdinalDataset) -> np.ndarray:
    """The (n, len(cols)) matrix of the layout columns ``cols`` on the rows
    of ``data``: the one place where a column becomes numbers.

    A linear column is its variable's values; a dummy column the indicator
    of its level, from the dataset's kept level codes (``data`` holds each
    categorical variable on the column's frozen levels); a smooth column its
    frozen B-spline less its training mean, each term's basis evaluated once,
    clamped outside the training range. A categorical value outside the
    levels is a DataError naming it.
    """
    blocks = []
    for _, group in _terms(cols):
        first = group[0]
        values = data.columns[first.source]
        if first.levels is not None:
            codes = data.level_codes(first.source)
            unseen = np.flatnonzero(codes < 0)
            if unseen.size:
                raise DataError(f"variable {first.source!r}: unseen level {values[unseen[0]]!r}")
            indices = [first.levels.index(c.level) for c in group]
            blocks.append((codes[:, None] == np.asarray(indices)).astype(float))
        elif first.basis is not None:
            # take, not [:, index]: a fancy index returns the block in
            # Fortran order, and X must stay row-major
            basis = np.take(bspline_basis(values, first.basis),
                            [c.basis_index - 1 for c in group], axis=1)
            blocks.append(basis - [c.mean for c in group])
        else:
            blocks.append(np.asarray(values, dtype=float).reshape(-1, 1))
    return np.hstack(blocks) if blocks else np.empty((data.n, 0))


def columns_dataset(cols, columns: dict, k: int) -> OrdinalDataset:
    """The raw ``columns`` that the layout columns ``cols`` read, as a
    dataset that design_columns builds them on: each categorical variable on
    its frozen levels, and placeholder responses in 1..k. A variable that
    ``cols`` read and ``columns`` lack is a DataError naming it; columns that
    they do not read are ignored."""
    sources = list(dict.fromkeys(c.source for c in cols))
    missing = [name for name in sources if name not in columns]
    if missing:
        raise DataError(f"variable {missing[0]!r} not present in the data")
    needed = {name: columns[name] for name in sources}
    # a layout without columns reads none: its rows are any column's
    n = len(next(iter((needed or columns).values()), ()))
    levels = {c.source: c.levels for c in cols if c.levels is not None}
    return OrdinalDataset(y=np.ones(n, dtype=int), k=k, columns=needed,
                          categorical_levels=levels)


def _learn_side(data: OrdinalDataset, terms) -> list:
    """The columns of ``terms`` with the levels and knots that ``data``
    fixes; each smooth column's mean is left at zero for expand_design to
    learn."""
    cols = []
    for term in terms:
        if term.name not in data.columns:
            raise DataError(f"variable {term.name!r} not present in the data")
        values = data.columns[term.name]
        levels = data.categorical_levels.get(term.name)
        if levels is not None:
            if term.smooth:
                raise SpecError(f"smooth term on categorical variable {term.name!r}")
            if len(levels) < 2:
                raise SpecError(f"categorical {term.name!r} needs at least 2 levels")
            cols.extend(ColumnInfo(f"{term.name}{lev}", term.name, level=lev, levels=levels)
                        for lev in levels[1:])
        elif term.smooth:
            m = DEFAULT_N_BASIS if term.n_basis is None else term.n_basis
            try:
                basis = knot_sequence(values, m, SPLINE_DEGREE)
            except SpecError as exc:
                raise SpecError(f"smooth term s({term.name}, {m}): {exc}") from None
            # the B-splines sum to one, so their m centered columns sum to
            # zero: the last is dropped, and the m-1 left have full rank
            cols.extend(ColumnInfo(f"s({term.name}).{j}", term.name, j, basis)
                        for j in range(1, m))
        else:
            cols.append(ColumnInfo(term.name, term.name))
    return cols


def _center(cols, block: np.ndarray) -> list:
    """``cols`` with each smooth column's training mean, the mean of its
    column of ``block`` (built with zero means), which is subtracted from
    that column in place. A smooth column that is zero on every training
    row, which knots piled up where the data do leave behind, has no
    identified effect and is a SpecError naming the term."""
    cols = list(cols)
    for span, group in _terms(cols):
        first = group[0]
        if first.basis is not None:
            zero = [c.basis_index for c, hit in zip(group, block[:, span].any(axis=0)) if not hit]
            if zero:
                knots = ", ".join(f"{v:.4g}" for v in first.basis.knots)
                raise SpecError(
                    f"smooth term s({first.source}, {first.basis.n_basis}): B-spline columns "
                    f"{zero} are zero on every training row (knots {knots}); "
                    "use a smaller n_basis"
                )
            means = block[:, span].mean(axis=0)
            block[:, span] -= means
            cols[span] = [replace(c, mean=float(mean)) for c, mean in zip(group, means)]
    return cols


def expand_design(data: OrdinalDataset, spec: ModelSpec) -> ExpandedDesign:
    """Learn the layout of ``spec`` on ``data`` and build its union columns U.

    Learning fixes what the training data decide: the dataset's declared
    level order for dummy coding, the knots of a smooth term with n_basis m
    (DEFAULT_N_BASIS when it sets none), which becomes m-1 B-spline columns,
    and those columns' training means. U is frozen_design's: the smooth
    columns are built once with zero means, and centering them by their
    column means is building them with the learned means, without
    evaluating the B-splines again. A column that both sides share is built
    and centered once. The global structure drops the dispersion terms; the
    category-specific one folds them into the location set (_catspec_fold).
    """
    location, dispersion = spec.location, spec.dispersion
    if spec.structure == "catspec":
        location, dispersion = _catspec_fold(location, dispersion, attrgetter("name")), ()
    elif spec.structure == "global":
        dispersion = ()

    x_cols, z_cols = _learn_side(data, location), _learn_side(data, dispersion)
    k = data.k
    if z_cols and k == 2:
        raise SpecError(
            "dispersion terms are not identified for k=2 "
            "(the scaling factor is a single constant)"
        )
    names = [f"(Intercept):{r}" for r in range(1, k)]
    if spec.structure == "catspec":
        for r in range(1, k):
            names.extend(f"{c.name}:{r}" for c in x_cols)
    else:
        names.extend(c.name for c in x_cols + z_cols)
    layout = ParamLayout(names=names, structure=spec.structure, k=k, x_cols=x_cols, z_cols=z_cols)
    design = frozen_design(layout, data)
    union = layout.union_cols
    centered = dict(zip(union, _center(union, design.U)))
    layout.x_cols = [centered[c] for c in x_cols]
    layout.z_cols = [centered[c] for c in z_cols]
    return design


def frozen_design(layout: ParamLayout, data: OrdinalDataset) -> ExpandedDesign:
    """The union columns of a finished ``layout`` on the rows of ``data``:
    its levels, knots and training means reused, never learned again."""
    return ExpandedDesign(design_columns(layout.union_cols, data), layout)


def build_design_tensor(design: ExpandedDesign, spec: ModelSpec) -> np.ndarray:
    """(n, k-1, n_params) tensor of the design rows, in ``design.layout``."""
    layout = design.layout
    q, p = layout.q, layout.p
    X, Z = design.U[:, :p], design.U[:, list(layout.z_union)]
    D = np.zeros((X.shape[0], q, layout.n_params))
    D[:, range(q), range(q)] = 1.0
    if layout.structure == "catspec":
        for r in range(q):
            D[:, r, q + r * p:q + (r + 1) * p] = X
    else:
        D[:, :, q:q + p] = X[:, None, :]
    if layout.m:
        w = scaling_factors(spec.family, layout.k)
        D[:, :, layout.dispersion] = w[None, :, None] * Z[:, None, :]
    return D


def constraint_map(beta, alpha, k: int, family: Family = Family("cumulative")) -> np.ndarray:
    """Category-specific coefficients implied by a location-shift fit.

    Returns the (k-1, p) array with row r equal to beta + w_r * alpha, w the
    family's scaling_factors; the default family gives the canonical
    beta_r = beta + (r - k/2) * alpha.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if beta.shape != alpha.shape:
        raise SpecError(
            f"beta and alpha must have the same length, got {beta.size} and {alpha.size}"
        )
    w = scaling_factors(family, k)
    return beta[None, :] + w[:, None] * alpha[None, :]
