"""Expansion of raw covariates and a model spec into per-category design rows.

The multivariate GLM underneath every model here has k-1 linear predictors
per observation. ``expand_design`` builds the covariate matrices X (location)
and Z (dispersion) and ``make_layout`` the parameter vector layout
[intercepts | location | dispersion] (category-specific location blocks are
laid out per threshold). Fitting works from X, Z and the scaling weights
directly and never materializes the design rows; ``build_design_tensor``
spells them out as a dense (n, k-1, n_params) tensor, as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import OrdinalDataset
from .exceptions import DataError, SpecError
from .links import LOGIT, Family, Link, scaling_factors
from .splines import BasisDef, bspline_basis, center_basis, knot_sequence

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
    link: Link = LOGIT
    n_basis_default: int = DEFAULT_N_BASIS

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
        return ModelSpec(
            family=self.family,
            structure=structure,
            location=self.location,
            dispersion=self.dispersion,
            link=self.link,
            n_basis_default=self.n_basis_default,
        )


@dataclass(frozen=True)
class VariableSpec:
    """Per-variable summary of how a covariate enters the model."""

    name: str
    role: str  # location | dispersion | both
    form: str  # linear | smooth
    n_basis: int | None = None
    kind: str = "numeric"  # numeric | categorical
    levels: tuple | None = None


@dataclass(frozen=True)
class ColumnInfo:
    """Provenance of one expanded design column."""

    name: str
    source: str
    basis_index: int | None = None  # 1-based within a smooth block


@dataclass(frozen=True)
class SmoothInfo:
    """What is needed to evaluate a fitted smooth on a new grid."""

    side: str
    name: str
    basis: BasisDef
    col_means: np.ndarray


@dataclass
class ExpandedDesign:
    """Location columns X, dispersion columns Z, and column provenance."""

    X: np.ndarray
    Z: np.ndarray
    x_cols: list = field(default_factory=list)
    z_cols: list = field(default_factory=list)
    smooths: dict = field(default_factory=dict)  # (side, name) -> SmoothInfo
    variables: list = field(default_factory=list)

    @property
    def x_names(self):
        return [c.name for c in self.x_cols]

    @property
    def z_names(self):
        return [c.name for c in self.z_cols]


def _dummies(codes, values, levels, name) -> np.ndarray:
    """Dummy block from the level codes of ``values``, with a DataError that
    names the first value that is not one of ``levels``."""
    if len(levels) < 2:
        raise SpecError(f"categorical {name!r} needs at least 2 levels")
    unseen = np.flatnonzero(codes < 0)
    if unseen.size:
        raise DataError(f"variable {name!r}: unseen level {values[unseen[0]]!r}")
    return (codes[:, None] == np.arange(1, len(levels))).astype(float)


def _expand_side(data: OrdinalDataset, terms, side, n_basis_default, smooths, cols, blocks):
    for term in terms:
        if term.name not in data.columns:
            raise DataError(f"variable {term.name!r} not present in the data")
        values = data.columns[term.name]
        levels = data.categorical_levels.get(term.name)
        if levels is not None:
            if term.smooth:
                raise SpecError(f"smooth term on categorical variable {term.name!r}")
            blocks.append(_dummies(data.level_codes(term.name), values, levels, term.name))
            cols.extend(ColumnInfo(f"{term.name}{lev}", term.name) for lev in levels[1:])
        elif term.smooth:
            m = term.n_basis or n_basis_default
            basis = knot_sequence(values, m, SPLINE_DEGREE)
            centered, means = center_basis(bspline_basis(values, basis))
            blocks.append(centered)
            cols.extend(
                ColumnInfo(f"s({term.name}).{j}", term.name, basis_index=j)
                for j in range(1, m + 1)
            )
            smooths[(side, term.name)] = SmoothInfo(side, term.name, basis, means)
        else:
            blocks.append(np.asarray(values, dtype=float).reshape(-1, 1))
            cols.append(ColumnInfo(term.name, term.name))


def _variable_specs(spec: ModelSpec, data: OrdinalDataset):
    loc = {t.name: t for t in spec.location}
    disp = {t.name: t for t in spec.dispersion}
    out = []
    for name in dict.fromkeys(list(loc) + list(disp)):
        role = "both" if name in loc and name in disp else ("location" if name in loc else "dispersion")
        term = loc.get(name) or disp.get(name)
        levels = data.categorical_levels.get(name)
        out.append(
            VariableSpec(
                name=name,
                role=role,
                form="smooth" if term.smooth else "linear",
                n_basis=(term.n_basis or spec.n_basis_default) if term.smooth else None,
                kind="categorical" if levels is not None else "numeric",
                levels=levels,
            )
        )
    return out


def expand_design(data: OrdinalDataset, spec: ModelSpec) -> ExpandedDesign:
    """Expand raw columns into the X (location) and Z (dispersion) matrices.

    Dummy coding uses the dataset's declared level order; smooth terms become
    centered B-spline blocks. For the category-specific structure the
    dispersion variables are folded into the location set (the model has no
    separate dispersion term but must nest the location-shift model).
    """
    location = spec.location
    dispersion = spec.dispersion
    if spec.structure == "catspec":
        have = {t.name for t in location}
        location = location + tuple(t for t in dispersion if t.name not in have)
        dispersion = ()
    elif spec.structure == "global":
        dispersion = ()

    smooths, x_cols, z_cols, x_blocks, z_blocks = {}, [], [], [], []
    _expand_side(data, location, "location", spec.n_basis_default, smooths, x_cols, x_blocks)
    _expand_side(data, dispersion, "dispersion", spec.n_basis_default, smooths, z_cols, z_blocks)

    n = data.n
    X = np.hstack(x_blocks) if x_blocks else np.empty((n, 0))
    Z = np.hstack(z_blocks) if z_blocks else np.empty((n, 0))
    if Z.shape[1] > 0 and data.k == 2:
        raise SpecError(
            "dispersion terms are not identified for k=2 "
            "(the scaling factor is a single constant)"
        )
    return ExpandedDesign(
        X=X, Z=Z, x_cols=x_cols, z_cols=z_cols, smooths=smooths,
        variables=_variable_specs(spec, data),
    )


@dataclass
class ParamLayout:
    """Names and index ranges of the parameter vector blocks."""

    names: list
    structure: str
    k: int
    p: int  # expanded location columns
    m: int  # expanded dispersion columns
    x_cols: list
    z_cols: list

    @property
    def q(self):
        return self.k - 1

    @property
    def n_params(self):
        return len(self.names)

    @property
    def intercepts(self):
        return slice(0, self.q)

    @property
    def location(self):
        width = self.p * self.q if self.structure == "catspec" else self.p
        return slice(self.q, self.q + width)

    @property
    def dispersion(self):
        start = self.location.stop
        return slice(start, start + self.m)

    def catspec_block(self, r: int):
        """Location slice of threshold r (1-based) in the catspec layout."""
        if self.structure != "catspec":
            raise SpecError("catspec_block only applies to the catspec layout")
        start = self.q + (r - 1) * self.p
        return slice(start, start + self.p)

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


def make_layout(design: ExpandedDesign, spec: ModelSpec, k: int) -> ParamLayout:
    p, m = design.X.shape[1], design.Z.shape[1]
    names = [f"(Intercept):{r}" for r in range(1, k)]
    if spec.structure == "catspec":
        for r in range(1, k):
            names.extend(f"{c.name}:{r}" for c in design.x_cols)
    else:
        names.extend(c.name for c in design.x_cols)
    if spec.structure == "locshift":
        names.extend(c.name for c in design.z_cols)
    else:
        m = 0
    return ParamLayout(
        names=names, structure=spec.structure, k=k, p=p, m=m,
        x_cols=list(design.x_cols), z_cols=list(design.z_cols),
    )


def build_design_tensor(design: ExpandedDesign, spec: ModelSpec, k: int):
    """(n, k-1, n_params) tensor of design rows plus its parameter layout."""
    layout = make_layout(design, spec, k)
    n = design.X.shape[0]
    q, p, m = layout.q, layout.p, layout.m
    D = np.zeros((n, q, layout.n_params))
    D[:, range(q), range(q)] = 1.0
    if spec.structure == "catspec":
        for r in range(q):
            D[:, r, q + r * p:q + (r + 1) * p] = design.X
    else:
        D[:, :, q:q + p] = design.X[:, None, :]
    if spec.structure == "locshift" and m:
        w = scaling_factors(spec.family, k)
        D[:, :, layout.dispersion] = w[None, :, None] * design.Z[:, None, :]
    return D, layout


def constraint_map(beta, alpha, k: int, family: Family = Family("cumulative")) -> np.ndarray:
    """Category-specific coefficients implied by a location-shift fit.

    Returns the (k-1, p) array with row r equal to
    beta + scaling_factor(family, r, k) * alpha; the default family gives the
    canonical beta_r = beta + (r - k/2) * alpha.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if beta.shape != alpha.shape:
        raise SpecError(
            f"beta and alpha must have the same length, got {beta.size} and {alpha.size}"
        )
    w = scaling_factors(family, k)
    return beta[None, :] + w[:, None] * alpha[None, :]
