"""Deviance tests, the three-model comparison ladder, Wald tables, star data.

The chi-square survival function on integer df is its closed form, a finite
sum of positive terms plus an erfc for odd df; the normal tail uses erfc.
Both are accurate to about 1e-12 relative, well beyond the 1e-8 needed for
reported p-values. The normal quantile is the standard library's.
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from .data import OrdinalDataset
from .design import ModelSpec, Term, _catspec_fold, constraint_map
from .exceptions import DataError, InvalidInputError, NestingError, OrdshiftError, SpecError
from .fit import FitResult, fit, standard_errors

LADDER_LABELS = {
    "catspec": "Model with category-specific effects",
    "locshift": "Location-shift model",
    "global": "Model with global effects",
}

LADDER_ORDER = ("catspec", "locshift", "global")


def chisq_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X > x) on df degrees of freedom."""
    if not np.isfinite(x) or x < 0:
        raise InvalidInputError(f"chi-square statistic must be finite and >= 0, got {x}")
    if df != int(df) or df < 1:
        raise InvalidInputError(f"df must be a positive integer, got {df}")
    if x == 0.0:
        return 1.0
    # for integer df the tail is a finite sum of positive terms (Abramowitz &
    # Stegun, Handbook of Mathematical Functions, 26.4): h^a e^-h / Gamma(a+1)
    # for a = df/2 - 1, df/2 - 2, ... down to 0 or 1/2, plus erfc(sqrt(h))
    # when df is odd, so nothing cancels
    df, h = int(df), x / 2.0
    log_h = math.log(h)
    terms = [math.exp(a * log_h - h - math.lgamma(a + 1.0))
             for a in (df / 2.0 - i for i in range(1, df // 2 + 1))]
    if df % 2:
        terms.append(math.erfc(math.sqrt(h)))
    return min(1.0, math.fsum(terms))


def normal_cdf(z: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Standard normal quantile, by the standard library's
    statistics.NormalDist (Wichura's AS241, accurate to about 1e-15 relative)."""
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"probability must be in (0,1), got {p}")
    return statistics.NormalDist().inv_cdf(p)


@dataclass(frozen=True)
class TestResult:
    """A deviance-difference (likelihood-ratio) test."""

    statistic: float
    df: int
    p_value: float


def lrt(nested: FitResult, full: FitResult) -> TestResult:
    """Likelihood-ratio test of a nested model against a richer one."""
    if not (nested.converged and full.converged):
        raise NestingError("both fits must have converged")
    if nested.n != full.n or nested.k != full.k:
        raise NestingError("fits are not on the same data")
    if nested.spec.family.kind != full.spec.family.kind:
        raise NestingError("fits use different families")
    df = full.n_params - nested.n_params
    if df <= 0:
        raise NestingError("the full model must have more parameters")
    statistic = nested.deviance - full.deviance
    if statistic < -1e-6:
        raise NestingError(
            f"deviance difference {statistic:.3g} is negative; models are not "
            "nested or a fit did not converge"
        )
    statistic = max(0.0, statistic)
    return TestResult(statistic=statistic, df=df, p_value=chisq_sf(statistic, df))


@dataclass
class LadderRow:
    """One model in the comparison ladder."""

    structure: str
    label: str
    fit: FitResult | None = None
    error: str | None = None
    test: TestResult | None = None  # against the previous (richer) row
    note: str | None = None  # why a converged row has no test

    @property
    def ok(self) -> bool:
        return self.fit is not None and self.fit.converged


@dataclass
class ComparisonTable:
    """Ladder of global / location-shift / category-specific fits."""

    family: str
    reverse: bool
    rows: list = field(default_factory=list)

    def row(self, structure: str) -> LadderRow:
        for r in self.rows:
            if r.structure == structure:
                return r
        raise KeyError(structure)


def _catspec_start(locshift_fit: FitResult, spec: ModelSpec):
    """Warm start for the category-specific fit via the constraint map.

    The category-specific location columns are the location-shift fit's
    columns folded as expand_design folds the terms (_catspec_fold); a
    column without a term on one side has a zero coefficient there.
    """
    ls = locshift_fit.layout
    cols = [c.name for c in _catspec_fold(ls.x_cols, ls.z_cols, attrgetter("source"))]
    beta = dict(zip((c.name for c in ls.x_cols), locshift_fit.params[ls.location]))
    alpha = dict(zip((c.name for c in ls.z_cols), locshift_fit.params[ls.dispersion]))
    slopes = constraint_map([beta.get(c, 0.0) for c in cols], [alpha.get(c, 0.0) for c in cols],
                            locshift_fit.k, spec.family)
    return np.concatenate([locshift_fit.params[:ls.q], slopes.ravel()])


def model_ladder(data: OrdinalDataset, base_spec: ModelSpec) -> ComparisonTable:
    """Fit the three nested structures and the two adjacent deviance tests.

    One fit per structure. The category-specific fit starts from the
    location-shift solution through the constraint map when that fit
    converged, and from the default start otherwise. A row whose fit raises
    or does not converge within fit's iteration cap is marked failed;
    the remaining comparisons are still produced. A failed warm
    category-specific fit is not refitted from the default start: a
    cumulative one usually has no optimum inside the ordered-threshold
    region, which no start can reach. The global and location-shift rungs
    read only the data and the base spec's own terms, so a DataError or
    SpecError there is the caller's and propagates; the category-specific
    rung's SpecError (it takes no smooth terms) marks its row failed.

    At k=3 with every variable on both sides, beta + w_r * alpha is a
    linear reparametrization of the category-specific beta_r (w_1 != w_2):
    the two rungs are one model with equal parameter counts, reported with
    no test between them and a note saying so.
    """
    if not base_spec.dispersion:
        raise SpecError("the model ladder needs dispersion terms (y ~ x... | z...)")
    table = ComparisonTable(
        family=base_spec.family.kind, reverse=base_spec.family.reverse
    )
    fits = {}
    # fitted simplest-first so the location-shift solution can warm-start the
    # category-specific fit through the constraint map
    for structure in ("global", "locshift", "catspec"):
        row = LadderRow(structure=structure, label=LADDER_LABELS[structure])
        try:
            spec = base_spec.with_structure(structure)
            start = None
            if structure == "catspec" and "locshift" in fits and fits["locshift"].converged:
                start = _catspec_start(fits["locshift"], spec)
            row.fit = fits[structure] = fit(spec, data, start=start)
            if not row.fit.converged:
                row.error = "fit failed (did not converge)"
        except OrdshiftError as exc:
            if isinstance(exc, (DataError, SpecError)) and structure != "catspec":
                raise
            row.error = f"fit failed ({exc})"
        table.rows.append(row)

    order = {s: i for i, s in enumerate(LADDER_ORDER)}
    table.rows.sort(key=lambda r: order[r.structure])
    for prev, row in zip(table.rows, table.rows[1:]):
        if not (prev.ok and row.ok):
            continue
        if row.fit.n_params == prev.fit.n_params:
            row.note = ("the category-specific model reparametrized (k=3, every variable "
                        "on both sides); no test")
        else:
            row.test = lrt(row.fit, prev.fit)
    return table


@dataclass(frozen=True)
class WaldRow:
    name: str
    block: str  # threshold | location | dispersion
    coef: float
    se: float  # NaN when the information is singular
    z: float
    p: float


@dataclass
class WaldTable:
    rows: list

    def block(self, name: str):
        return [r for r in self.rows if r.block == name]


def wald_table(result: FitResult) -> WaldTable:
    """Per-parameter (coef, se, z, p) rows; blanks where no se is available."""
    se = standard_errors(result)
    layout = result.layout
    rows = []
    for j, name in enumerate(layout.names):
        if j < layout.q:
            block = "threshold"
        elif j < layout.location.stop:
            block = "location"
        else:
            block = "dispersion"
        coef = float(result.params[j])
        sj = float(se[j])
        if math.isnan(sj):
            z = p = float("nan")
        elif sj == 0.0:
            z = 0.0 if coef == 0.0 else math.copysign(math.inf, coef)
            p = 1.0 if coef == 0.0 else 0.0
        else:
            z = coef / sj
            p = 2.0 * normal_cdf(-abs(z))
        rows.append(WaldRow(name=name, block=block, coef=coef, se=sj, z=z, p=p))
    return WaldTable(rows=rows)


@dataclass(frozen=True)
class StarPoint:
    """Multiplicative location/dispersion effect of one variable with CIs."""

    variable: str
    loc: float
    loc_lo: float
    loc_hi: float
    disp: float
    disp_lo: float
    disp_hi: float


def _exp(value: float) -> float:
    """e^value, inf where it overflows."""
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def star_data(result: FitResult, level: float = 0.95):
    """(e^alpha, e^beta) star points for variables with both effects.

    Columns lacking one of the two effects, whose standard errors are
    unavailable, or whose interval ends are not finite and positive in
    floating point (e^x overflowing or underflowing to 0) are excluded with
    a warning that names them; the plot is only meaningful for dual-effect
    variables.
    """
    if not 0.0 < level < 1.0:
        raise InvalidInputError(f"level must be in (0,1), got {level}")
    layout = result.layout
    if layout.structure != "locshift":
        raise SpecError("star data requires a location-shift fit")
    se = standard_errors(result)
    zq = normal_quantile(1.0 - (1.0 - level) / 2.0)
    x_linear = [c.name for c in layout.x_cols if c.basis_index is None]
    z_linear = [c.name for c in layout.z_cols if c.basis_index is None]
    points = []
    for name in x_linear:
        if name not in z_linear:
            warnings.warn(f"{name!r} has only a location effect; excluded from star data")
            continue
        li = layout.location_index(name)
        di = layout.dispersion_index(name)
        if math.isnan(se[li]) or math.isnan(se[di]):
            warnings.warn(f"{name!r} has no available standard errors; excluded from star data")
            continue
        b, a = float(result.params[li]), float(result.params[di])
        loc = [_exp(b), _exp(b - zq * se[li]), _exp(b + zq * se[li])]
        disp = [_exp(a), _exp(a - zq * se[di]), _exp(a + zq * se[di])]
        if not all(0.0 < v < math.inf for v in loc + disp):
            warnings.warn(f"{name!r} has a confidence interval beyond the floating-point "
                          "range; excluded from star data")
            continue
        points.append(StarPoint(name, *loc, *disp))
    for name in z_linear:
        if name not in x_linear:
            warnings.warn(f"{name!r} has only a dispersion effect; excluded from star data")
    return points


def smooth_term_tests(data: OrdinalDataset, spec: ModelSpec, name: str, side: str = "location"):
    """LRTs for one smooth term: against dropping it and against a linear fit.

    Returns {"drop": TestResult, "linear": TestResult}; both baselines are
    exposed because either comparison can be the relevant one. The three
    fits stop at fit's iteration cap; lrt rejects any that did not converge
    with a NestingError.
    """
    if side not in ("location", "dispersion"):
        raise InvalidInputError(f"side must be location or dispersion, got {side!r}")
    terms = spec.location if side == "location" else spec.dispersion
    target = next((t for t in terms if t.name == name and t.smooth), None)
    if target is None:
        raise SpecError(f"no smooth {side} term for variable {name!r}")

    def rebuild(new_terms):
        return replace(spec, **{side: tuple(new_terms)})

    full = fit(spec, data)
    dropped = fit(rebuild([t for t in terms if t is not target]), data)
    linear = fit(rebuild([Term(t.name) if t is target else t for t in terms]), data)
    return {"drop": lrt(dropped, full), "linear": lrt(linear, full)}
