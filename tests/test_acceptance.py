"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline;
criterion 9 needs tests/data/relgoods_safety.csv (an export of the public
safety survey: columns Feelsafe, Age [years], Gender [0/1], Residence [1-4],
EduDegree [1-5]) and is skipped when that file is absent.
"""

import pathlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from helpers import (
    empirical_start,
    fd_gradient,
    fd_hessian,
    feasible_params,
    location_columns,
    nelder_mead_loglik,
    stub_fit,
)

from ordshift.data import OrdinalDataset, load_csv
from ordshift.design import ModelSpec, Term, constraint_map, expand_design
from ordshift.fit import (
    fisher_info,
    fit,
    log_likelihood,
    score,
    standard_errors,
)
from ordshift.formula import parse_formula
from ordshift.inference import chisq_sf, model_ladder, normal_quantile
from ordshift.links import Family
from ordshift.simulate import locshift_example, simulate_dataset
from ordshift.splines import bspline_basis, knot_sequence

DATA_DIR = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"
SAFETY_CSV = DATA_DIR / "relgoods_safety.csv"


def announce(number, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {number:2d} {state} - {name}" + (f" ({detail})" if detail else ""), flush=True)
    assert ok, f"criterion {number}: {name} {detail}"


def test_criterion_01_df_arithmetic():
    expected = {90: 19935, 27: 19998, 18: 20007}
    results = {p: stub_fit(p, n=2225, k=10).df_residual for p in expected}
    ok = results == expected
    announce(1, "df arithmetic n=2225 k=10", ok, f"{results}")


def test_criterion_02_chisq_tail():
    a = chisq_sf(73.89, 63)
    b = chisq_sf(6.75, 12)
    ok = abs(a - 0.1640) <= 5e-4 and abs(b - 0.873) <= 5e-3
    announce(2, "chi-square tail values", ok, f"sf(73.89,63)={a:.5f}, sf(6.75,12)={b:.4f}")


def _criterion3_dataset(seed, kind):
    rng = np.random.default_rng(seed)
    n, k = 50, 4
    cols = {f"v{j}": (rng.random(n) < 0.5).astype(float) for j in (1, 2)}
    terms = (Term("v1"), Term("v2"))
    spec = ModelSpec(Family(kind), "locshift", terms, terms)
    icepts = (
        np.log(np.arange(1, k) / (k - np.arange(1, k)))
        if kind == "cumulative"
        else np.zeros(k - 1)
    )
    params = np.concatenate([icepts, [0.4, -0.3], [0.1, -0.05]])
    return simulate_dataset(spec, params, cols, k, rng), spec


def test_criterion_03_brute_force_equivalence():
    # seeds fixed where all three structures admit interior optima; a fit
    # that stops converging here fails the criterion outright
    cases = [(s, "cumulative") for s in range(3, 8)] + [(s, "adjacent") for s in range(5)]
    worst = 0.0
    ok = True
    for seed, kind in cases:
        data, base = _criterion3_dataset(seed, kind)
        for structure in ("global", "locshift", "catspec"):
            spec = base.with_structure(structure)
            result = fit(spec, data)
            if not result.converged:
                ok = False
                continue
            oracle = nelder_mead_loglik(data, spec, empirical_start(data, spec))
            worst = max(worst, abs(result.loglik - oracle))
    ok = ok and worst < 1e-6
    announce(3, "10 datasets x 3 structures vs derivative-free oracle", ok, f"max |diff| {worst:.2e}")


def test_criterion_04_gradient_and_information():
    worst_grad = 0.0
    for kind, seed in (("cumulative", 10), ("adjacent", 11)):
        rng = np.random.default_rng(seed)
        cols = {"a": rng.normal(size=45) * 0.7, "b": rng.normal(size=45) * 0.7}
        y = rng.integers(1, 5, size=45)
        y[:4] = [1, 2, 3, 4]
        data = OrdinalDataset(y=y, k=4, columns=cols)
        spec = ModelSpec(Family(kind), "locshift", (Term("a"), Term("b")), (Term("a"),))
        layout = expand_design(data, spec).layout
        for _ in range(10):
            theta = feasible_params(rng, layout, spec, data, scale=0.25)
            numeric = fd_gradient(lambda t: log_likelihood(t, data, spec), theta)
            analytic = score(theta, data, spec)
            rel = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0))
            worst_grad = max(worst_grad, rel)

    rng = np.random.default_rng(12)
    cols = {"a": rng.normal(size=60)}
    y = rng.integers(1, 5, size=60)
    y[:4] = [1, 2, 3, 4]
    data = OrdinalDataset(y=y, k=4, columns=cols)
    spec = ModelSpec(Family("adjacent"), "locshift", (Term("a"),), (Term("a"),))
    result = fit(spec, data)
    info = fisher_info(result.params, data, spec)
    hess = fd_hessian(lambda t: log_likelihood(t, data, spec), result.params)
    rel_info = np.abs(info + hess).max() / np.abs(info).max()
    ok = worst_grad < 1e-6 and rel_info < 1e-4
    announce(
        4, "analytic score vs FD; information vs -Hessian at MLE", ok,
        f"grad rel {worst_grad:.2e}, info rel {rel_info:.2e}",
    )


def test_criterion_05_constraint_equivalence():
    worst = 0.0
    ok_all = True
    for kind, seed in (("cumulative", 2), ("adjacent", 3)):
        rng = np.random.default_rng(seed)
        n = 400
        cols = {"a": rng.uniform(-1, 1, n), "b": (rng.random(n) < 0.5).astype(float)}
        terms = (Term("a"), Term("b"))
        spec = ModelSpec(Family(kind), "locshift", terms, terms)
        icepts = (
            np.log(np.arange(1, 5) / (5 - np.arange(1, 5)))
            if kind == "cumulative"
            else np.zeros(4)
        )
        params = np.concatenate([icepts, [0.5, -0.4], [0.15, -0.1]])
        data = simulate_dataset(spec, params, cols, 5, rng)
        ls = fit(spec, data)
        ok_all = ok_all and ls.converged
        q = data.k - 1
        mapped = np.concatenate([
            ls.params[:q],
            constraint_map(ls.params[q:q + 2], ls.params[q + 2:], data.k, spec.family).ravel(),
        ])
        ll = log_likelihood(mapped, data, spec.with_structure("catspec"))
        worst = max(worst, abs(ll - ls.loglik))
    ok = ok_all and worst < 1e-9
    announce(5, "category-specific likelihood at constraint map", ok, f"max |diff| {worst:.2e}")


def test_criterion_06_nesting_monotonicity():
    violations = 0
    converged_all = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n, k = 500, 5
        cols = {
            "a": rng.uniform(-1, 1, n),
            "b": (rng.random(n) < 0.5).astype(float),
        }
        terms = (Term("a"), Term("b"))
        spec = ModelSpec(Family("cumulative"), "locshift", terms, terms)
        params = np.concatenate(
            [np.log(np.arange(1, k) / (k - np.arange(1, k))), [0.6, -0.4], [0.12, -0.08]]
        )
        data = simulate_dataset(spec, params, cols, k, rng)
        fits = {}
        for structure in ("global", "locshift", "catspec"):
            try:
                fits[structure] = fit(spec.with_structure(structure), data)
            except Exception:
                fits[structure] = None
        if not all(f is not None and f.converged for f in fits.values()):
            continue
        converged_all += 1
        d = {s: f.deviance for s, f in fits.items()}
        if d["catspec"] > d["locshift"] + 1e-6 or d["locshift"] > d["global"] + 1e-6:
            violations += 1
    ok = violations == 0 and converged_all >= 40
    announce(
        6, "deviance nesting over 50 simulations", ok,
        f"{converged_all}/50 fully converged, {violations} violations",
    )


def test_criterion_07_parameter_recovery():
    reps = 200
    within3 = 0
    cover_b = 0
    cover_a = 0
    converged = 0
    z95 = normal_quantile(0.975)
    for rep in range(reps):
        rng = np.random.default_rng(50_000 + rep)
        data, spec, _ = locshift_example(2000, 6, beta=1.0, alpha=0.3, rng=rng)
        result = fit(spec, data)
        if not result.converged:
            continue
        converged += 1
        se = standard_errors(result)
        q = 5
        b_err = result.params[q] - 1.0
        a_err = result.params[q + 1] - 0.3
        if abs(b_err) <= 3 * se[q] and abs(a_err) <= 3 * se[q + 1]:
            within3 += 1
        if abs(b_err) <= z95 * se[q]:
            cover_b += 1
        if abs(a_err) <= z95 * se[q + 1]:
            cover_a += 1
    frac3 = within3 / reps
    cb, ca = cover_b / reps, cover_a / reps
    ok = converged == reps and frac3 >= 0.95 and 0.90 <= cb <= 0.99 and 0.90 <= ca <= 0.99
    announce(
        7, "parameter recovery and CI coverage (200 reps)", ok,
        f"converged {converged}/200, within-3se {frac3:.3f}, coverage beta {cb:.3f} alpha {ca:.3f}",
    )


def test_criterion_08_spline_properties():
    rng = np.random.default_rng(7)
    x = rng.normal(size=500)
    basis = knot_sequence(x, 6, 3)
    grid = np.linspace(x.min(), x.max(), 1000)
    values = bspline_basis(grid, basis)
    unity = np.max(np.abs(values.sum(axis=1) - 1.0))

    coef, *_ = np.linalg.lstsq(values, grid, rcond=None)
    linear = np.max(np.abs(values @ coef - grid))

    y = np.tile([1, 2, 3], 200)[:500]
    spec = ModelSpec(Family("cumulative"), "global", (Term("x", smooth=True, n_basis=6),))
    centered = location_columns(expand_design(OrdinalDataset(y=y, k=3, columns={"x": x}), spec))
    means = np.max(np.abs(centered.mean(axis=0)))

    ok = unity < 1e-12 and linear < 1e-10 and means < 1e-14
    announce(
        8, "spline partition/linearity/centering", ok,
        f"unity {unity:.1e}, linear {linear:.1e}, means {means:.1e}",
    )


@pytest.mark.skipif(not SAFETY_CSV.exists(), reason="safety survey CSV not bundled; criteria 1-8 stand alone")
def test_criterion_09_safety_survey_reproduction():
    formula = parse_formula("Feelsafe ~ Aged + Gender + Residence + EduDegree | Aged + Gender + Residence + EduDegree")
    raw = load_csv(SAFETY_CSV, parse_formula(
        "Feelsafe ~ Age + Gender + Residence + EduDegree | Age + Gender + Residence + EduDegree"
    ), categorical=("Residence", "EduDegree"))
    columns = dict(raw.columns)
    columns["Aged"] = columns.pop("Age") / 10.0  # age in decades
    # level 1 must be the dummy reference whatever the row order
    levels = {name: tuple(sorted(lv, key=float)) for name, lv in raw.categorical_levels.items()}
    data = OrdinalDataset(y=raw.y, k=10, columns=columns, categorical_levels=levels)

    results = {}
    for kind, targets in (
        ("cumulative", (9825.78, 9899.67, 9948.99)),
        ("adjacent", (9828.07, 9902.43, 9959.00)),
    ):
        spec = ModelSpec(Family(kind, reverse=True), "locshift", formula.location, formula.dispersion)
        table = model_ladder(data, spec)
        devs = tuple(r.fit.deviance for r in table.rows if r.ok)
        results[kind] = devs
        for got, want in zip(devs, targets):
            assert abs(got - want) <= 0.05, (kind, got, want)
        if kind == "cumulative":
            ls = table.row("locshift").fit
            se = standard_errors(ls)
            i = ls.layout.location_index("Gender")
            assert abs(ls.params[i] - (-0.327)) <= 0.005
            assert abs(se[i] - 0.075) <= 0.005
            j = ls.layout.location_index("Residence4")
            assert abs(ls.params[j] - 1.339) <= 0.005
            d = ls.layout.dispersion_index("Residence4")
            assert abs(ls.params[d] - (-0.155)) <= 0.005
    announce(9, "safety survey ladder reproduction", True, f"{results}")


def test_criterion_10_cli_end_to_end(tmp_path):
    from test_cli import ladder_args, run_cli

    proc = run_cli(*ladder_args(tmp_path))
    report_ok = (tmp_path / "report.txt").read_bytes() == (GOLDEN / "report.txt").read_bytes()
    star_bytes = (tmp_path / "star.svg").read_bytes()
    star_ok = star_bytes == (GOLDEN / "star.svg").read_bytes()
    root = ET.fromstring(star_bytes)
    stars = [e for e in root.iter("{http://www.w3.org/2000/svg}circle") if e.get("class") == "star"]
    ok = proc.returncode == 0 and report_ok and star_ok and len(stars) == 3
    announce(
        10, "CLI ladder run, byte-stable report, valid star SVG", ok,
        f"exit {proc.returncode}, report match {report_ok}, stars {len(stars)}",
    )
