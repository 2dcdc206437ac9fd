"""Deviance tests, the three-model comparison ladder, Wald tables, star data.

The chi-square survival function is computed from the regularized upper
incomplete gamma function (series / Lentz continued fraction); the normal
tail uses erfc. Both are accurate well beyond the 1e-8 needed for reported
p-values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import OrdinalDataset
from .design import ModelSpec, Term
from .exceptions import InvalidInputError, NestingError, OrdshiftError, SpecError
from .fit import FitResult, fit, standard_errors
from .links import scaling_factors

_GAMMA_EPS = 1e-15
_GAMMA_ITMAX = 500

LADDER_LABELS = {
    "catspec": "Model with category-specific effects",
    "locshift": "Location-shift model",
    "global": "Model with global effects",
}

LADDER_ORDER = ("catspec", "locshift", "global")


def _gamma_series(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x) by series, for x < a + 1."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_GAMMA_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_cf(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) by continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a)."""
    if a <= 0:
        raise InvalidInputError(f"shape a must be positive, got {a}")
    if x < 0:
        raise InvalidInputError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


def chisq_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X > x) on df degrees of freedom."""
    if not np.isfinite(x) or x < 0:
        raise InvalidInputError(f"chi-square statistic must be finite and >= 0, got {x}")
    if df != int(df) or df < 1:
        raise InvalidInputError(f"df must be a positive integer, got {df}")
    return min(1.0, max(0.0, gammainc_upper(df / 2.0, x / 2.0)))


def normal_cdf(z: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Standard normal quantile: rational approximation polished by Newton."""
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"probability must be in (0,1), got {p}")
    lower = min(p, 1.0 - p)
    t = math.sqrt(-2.0 * math.log(lower))
    x = t - (2.30753 + 0.27061 * t) / (1.0 + 0.99229 * t + 0.04481 * t * t)
    if p < 0.5:
        x = -x
    for _ in range(3):
        err = normal_cdf(x) - p
        x -= err / (math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
    return x


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


def _catspec_start(locshift_fit: FitResult, data: OrdinalDataset, spec: ModelSpec):
    """Warm start for the category-specific fit via the constraint map.

    The category-specific location columns are the location-shift fit's
    location columns followed by the dispersion columns of variables without
    a location term, the order in which expand_design folds them.
    """
    ls = locshift_fit.layout
    have = {c.source for c in ls.x_cols}
    cols = ls.x_cols + [c for c in ls.z_cols if c.source not in have]
    beta = {
        c.name: locshift_fit.params[ls.location.start + i]
        for i, c in enumerate(ls.x_cols)
    }
    alpha = {
        c.name: locshift_fit.params[ls.dispersion.start + i]
        for i, c in enumerate(ls.z_cols)
    }
    w = scaling_factors(spec.family, data.k)
    q = ls.q
    slopes = [[beta.get(c.name, 0.0) + w[r] * alpha.get(c.name, 0.0) for c in cols]
              for r in range(q)]
    return np.concatenate([locshift_fit.params[:q], np.ravel(slopes)])


def model_ladder(data: OrdinalDataset, base_spec: ModelSpec, **fit_options) -> ComparisonTable:
    """Fit the three nested structures and the two adjacent deviance tests.

    A row whose fit raises or does not converge is marked failed; the
    remaining comparisons are still produced.
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
                start = _catspec_start(fits["locshift"], data, spec)
            result = fit(spec, data, start=start, **fit_options)
            if structure == "catspec" and start is not None and not result.converged:
                cold = fit(spec, data, **fit_options)
                if cold.converged:
                    result = cold
            row.fit = result
            fits[structure] = result
            if not result.converged:
                row.error = "fit failed (did not converge)"
        except OrdshiftError as exc:
            row.error = f"fit failed ({exc})"
        table.rows.append(row)

    order = {s: i for i, s in enumerate(LADDER_ORDER)}
    table.rows.sort(key=lambda r: order[r.structure])
    for prev, row in zip(table.rows, table.rows[1:]):
        if prev.ok and row.ok:
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


def star_data(result: FitResult, level: float = 0.95):
    """(e^alpha, e^beta) star points for variables with both effects.

    Columns lacking one of the two effects (or whose standard errors are
    unavailable) are excluded with a warning; the plot is only meaningful
    for dual-effect variables.
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
        points.append(
            StarPoint(
                variable=name,
                loc=math.exp(b),
                loc_lo=math.exp(b - zq * se[li]),
                loc_hi=math.exp(b + zq * se[li]),
                disp=math.exp(a),
                disp_lo=math.exp(a - zq * se[di]),
                disp_hi=math.exp(a + zq * se[di]),
            )
        )
    for name in z_linear:
        if name not in x_linear:
            warnings.warn(f"{name!r} has only a dispersion effect; excluded from star data")
    return points


def smooth_term_tests(
    data: OrdinalDataset, spec: ModelSpec, name: str, side: str = "location", **fit_options
):
    """LRTs for one smooth term: against dropping it and against a linear fit.

    Returns {"drop": TestResult, "linear": TestResult}; both baselines are
    exposed because either comparison can be the relevant one.
    """
    if side not in ("location", "dispersion"):
        raise InvalidInputError(f"side must be location or dispersion, got {side!r}")
    terms = spec.location if side == "location" else spec.dispersion
    target = next((t for t in terms if t.name == name and t.smooth), None)
    if target is None:
        raise SpecError(f"no smooth {side} term for variable {name!r}")

    def rebuild(new_terms):
        kwargs = dict(
            family=spec.family, structure=spec.structure, link=spec.link,
            n_basis_default=spec.n_basis_default,
        )
        if side == "location":
            return ModelSpec(location=tuple(new_terms), dispersion=spec.dispersion, **kwargs)
        return ModelSpec(location=spec.location, dispersion=tuple(new_terms), **kwargs)

    full = fit(spec, data, **fit_options)
    dropped = fit(rebuild([t for t in terms if t is not target]), data, **fit_options)
    linear = fit(
        rebuild([Term(t.name) if t is target else t for t in terms]), data, **fit_options
    )
    return {"drop": lrt(dropped, full), "linear": lrt(linear, full)}
