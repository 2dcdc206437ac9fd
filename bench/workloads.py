"""The benchmark's workloads: inputs made from a seed, one operation, its checks.

Each workload builds a pool of inputs from the seed before anything is timed;
operation j runs on pool item j mod len(pool). An operation returns what its
checks need; the checks run outside the timed region.
"""

from __future__ import annotations

import atexit
import math
import os
import shutil
from pathlib import Path

import numpy as np

from ordshift import cli, inference
from ordshift.data import OrdinalDataset
from ordshift.design import ModelSpec, Term
from ordshift.exceptions import NestingError
from ordshift.fit import log_likelihood, score
from ordshift.links import Family

ROOT = Path(__file__).resolve().parent.parent
SYNTHETIC_CSV = ROOT / "tests" / "data" / "synthetic.csv"
GOLDEN = ROOT / "tests" / "golden"
OUT = ROOT / ".bench_out"

# Tolerances of the intrinsic checks on converged fits.
DEVIANCE_RTOL = 1e-9  # deviance against -2 * log_likelihood(params)
SCORE_TOL = 1e-4  # fit's own: max |score| <= SCORE_TOL * (1 + |loglik|)
NESTING_TOL = 1e-6  # catspec <= locshift <= global + NESTING_TOL


def _cut(latent: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    return 1 + (latent[:, None] > cuts[None, :]).sum(axis=1)


def _all_categories(y: np.ndarray, k: int) -> bool:
    return bool(np.all(np.bincount(y, minlength=k + 1)[1:] > 0))


# --- ladder-survey-20k -------------------------------------------------------

SURVEY_N = 20000
SURVEY_K = 10
SURVEY_TERMS = tuple(Term(name) for name in ("age", "gender", "residence", "education"))
SURVEY_FAMILIES = (Family("cumulative", reverse=True), Family("adjacent"))


def survey_pool(seed: int, n: int = SURVEY_N) -> list:
    """One survey-shaped dataset: response 1..10 from a latent logistic
    location-scale model, so location and dispersion effects are both real.

    Residence has four levels (three dummies), so each side has six columns.
    """
    rng = np.random.default_rng([seed, 20])
    age = rng.uniform(1.8, 8.5, n)  # decades
    gender = rng.integers(0, 2, n).astype(float)
    residence = rng.choice(np.array(["1", "2", "3", "4"], dtype=object), n, p=[0.3, 0.3, 0.2, 0.2])
    education = rng.integers(1, 6, n).astype(float)
    res_loc = {"1": 0.0, "2": 0.4, "3": 0.9, "4": 1.3}
    res_scale = {"1": 0.0, "2": -0.05, "3": 0.1, "4": -0.15}
    location = (0.08 * age - 0.33 * gender + 0.1 * education
                + np.array([res_loc[r] for r in residence]))
    log_scale = (0.03 * age + 0.05 * gender - 0.04 * education
                 + np.array([res_scale[r] for r in residence]))
    latent = location + np.exp(log_scale) * rng.logistic(size=n)
    cuts = location.mean() + 1.1 * np.log(np.arange(1, SURVEY_K) / (SURVEY_K - np.arange(1, SURVEY_K)))
    y = _cut(latent, cuts)
    data = OrdinalDataset(
        y=y, k=SURVEY_K,
        columns={"age": age, "gender": gender, "residence": residence, "education": education},
        categorical_levels={"residence": ("1", "2", "3", "4")},
    )
    return [data]


def survey_op(data: OrdinalDataset) -> dict:
    ladders = []
    for family in SURVEY_FAMILIES:
        spec = ModelSpec(family, "locshift", SURVEY_TERMS, SURVEY_TERMS)
        ladders.append(inference.model_ladder(data, spec))
    return {"ladders": ladders}


# --- sim-small ---------------------------------------------------------------

SIM_N = 500
SIM_K = 5
SIM_POOL = 64
SIM_FAMILIES = (Family("cumulative"), Family("adjacent"))
SIM_LOCATION = (Term("x1"), Term("x2"))
SIM_SMOOTH_LOCATION = (Term("x1", smooth=True, n_basis=6), Term("x2"))
SIM_DISPERSION = (Term("x2"), Term("z"))


def sim_pool(seed: int, n: int = SIM_N, size: int = SIM_POOL) -> list:
    """Replicates with a nonlinear true effect of x1, a linear x2 and a
    dispersion effect of x2 and z; every category is observed in each."""
    rng = np.random.default_rng([seed, 500])
    cuts = 1.3 * np.log(np.arange(1, SIM_K) / (SIM_K - np.arange(1, SIM_K)))
    pool = []
    while len(pool) < size:
        x1 = rng.uniform(-2.0, 2.0, n)
        x2 = rng.uniform(-1.5, 1.5, n)
        z = rng.uniform(-1.0, 1.0, n)
        location = 1.2 * np.sin(1.5 * x1) + 0.5 * x2
        latent = location + np.exp(0.15 * x2 + 0.3 * z) * rng.logistic(size=n)
        y = _cut(latent, cuts)
        if _all_categories(y, SIM_K):
            pool.append(OrdinalDataset(y=y, k=SIM_K, columns={"x1": x1, "x2": x2, "z": z}))
    return pool


def sim_op(data: OrdinalDataset) -> dict:
    ladders, smooth = [], []
    for family in SIM_FAMILIES:
        spec = ModelSpec(family, "locshift", SIM_LOCATION, SIM_DISPERSION)
        ladders.append(inference.model_ladder(data, spec))
        spec = ModelSpec(family, "locshift", SIM_SMOOTH_LOCATION, SIM_DISPERSION)
        try:
            tests = inference.smooth_term_tests(data, spec, "x1")
        except NestingError as exc:  # judged by check_op against the op's fits
            tests = exc
        smooth.append((family, tests))
    return {"ladders": ladders, "smooth": smooth}


# --- cli-synthetic -----------------------------------------------------------

CLI_LADDER_FORMULA = "y ~ age + group + score | age + group"
CLI_SMOOTH_FORMULA = "y ~ s(age) + group + score | age + group"
CLI_FILES = ("report.txt", "star.svg", "smooth_report.txt", "smooth.svg")


def cli_pool(seed: int) -> list:
    """The bundled CSV is the input whatever the seed: the goldens pin it."""
    out = OUT / f"cli-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    atexit.register(shutil.rmtree, out, ignore_errors=True)
    return [out]


def cli_argvs(out: Path) -> list:
    common = ["--data", str(SYNTHETIC_CSV), "--categorical", "group"]
    return [
        common + ["--formula", CLI_LADDER_FORMULA, "--structure", "ladder",
                  "--out", str(out / "report.txt"), "--star", str(out / "star.svg")],
        common + ["--formula", CLI_SMOOTH_FORMULA, "--structure", "locshift",
                  "--out", str(out / "smooth_report.txt"),
                  "--smooth", f"age:{out / 'smooth.svg'}"],
    ]


def cli_op(out: Path) -> dict:
    codes = [cli.main(argv) for argv in cli_argvs(out)]
    return {"exit_codes": codes, "out": out}


# --- checks ------------------------------------------------------------------


def check_fit(spec, data, result) -> list:
    """Intrinsic checks of one converged fit through the public functions."""
    problems = []
    loglik = log_likelihood(result.params, data, spec)
    if not math.isclose(result.deviance, -2.0 * loglik, rel_tol=DEVIANCE_RTOL, abs_tol=DEVIANCE_RTOL):
        problems.append(f"{spec.structure}: deviance {result.deviance!r} != -2*loglik {-2.0 * loglik!r}")
    worst = float(np.max(np.abs(score(result.params, data, spec))))
    if not worst <= SCORE_TOL * (1.0 + abs(loglik)):
        problems.append(f"{spec.structure}: max |score| {worst:.3g} above tolerance")
    return problems


def check_ladder(table) -> list:
    devs = {row.structure: row.fit.deviance for row in table.rows if row.ok}
    problems = []
    for richer, simpler in (("catspec", "locshift"), ("locshift", "global")):
        if richer in devs and simpler in devs and devs[richer] > devs[simpler] + NESTING_TOL:
            problems.append(f"{richer} deviance {devs[richer]!r} above {simpler} {devs[simpler]!r}")
    return problems


def check_files(out: Path, reference: dict) -> list:
    """report.txt and star.svg against the goldens; the smooth outputs, which
    have no golden, against the first operation's bytes (determinism)."""
    problems = []
    for name in CLI_FILES:
        path = out / name
        got = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)  # the next operation must write it afresh
        want = reference.get(name)
        if got is None:
            problems.append(f"{name} was not written")
        elif want is None:
            reference[name] = got
        elif got != want:
            problems.append(f"{name} differs from the reference bytes")
    return problems


def golden_reference() -> dict:
    return {name: (GOLDEN / name).read_bytes() for name in ("report.txt", "star.svg")}


def _summary(fits: list) -> list:
    return [(spec, None if r is None else (r.converged, r.iterations, r.deviance, r.params))
            for spec, _, r in fits]


def _same_fits(first: list, again: list) -> bool:
    """A repeat of an input reproduces its checked fits."""
    if len(first) != len(again):
        return False
    for (spec_a, a), (spec_b, b) in zip(first, again):
        if spec_a != spec_b or (a is None) != (b is None):
            return False
        if a is not None and not (
            a[:2] == b[:2]
            and math.isclose(a[2], b[2], rel_tol=DEVIANCE_RTOL)
            and np.allclose(a[3], b[3], rtol=1e-8, atol=1e-8)
        ):
            return False
    return True


def check_fits(fits: list) -> list:
    """The intrinsic checks of every converged fit of one operation."""
    problems = []
    for spec, data, result in fits:
        if result is not None and result.converged:
            problems += check_fit(spec, data, result)
    return problems


def check_op(outputs: dict, fits: list, ladders: list, reference: dict, first: dict, item: int) -> list:
    """The failures of one operation found without recomputing likelihoods:
    nonzero exits, output bytes, ladder nesting, refused smooth tests, and a
    repeat that does not reproduce the first fits on its pool item. Those
    first fits get check_fits, which the caller runs after the timed loop."""
    problems = []
    for code in outputs.get("exit_codes", ()):
        if code != 0:
            problems.append(f"cli exited {code}")
    if "out" in outputs:
        problems += check_files(outputs["out"], reference)
    for table in ladders:
        problems += check_ladder(table)
    for family, tests in outputs.get("smooth", ()):
        # the likelihood-ratio tests refuse a non-converged fit: an outcome,
        # counted in converged_frac, unless every such fit converged
        if isinstance(tests, NestingError) and all(
            r is not None and r.converged for spec, _, r in fits
            if spec.family == family and spec.structure == "locshift"
        ):
            problems.append(f"smooth_term_tests raised with every {family.kind} fit converged: {tests}")
    if item not in first:
        first[item] = _summary(fits)
    elif not _same_fits(first[item], _summary(fits)):
        problems.append("the fits differ from the first operation on this input")
    return problems


WORKLOADS = {
    "ladder-survey-20k": (survey_pool, survey_op),
    "sim-small": (sim_pool, sim_op),
    "cli-synthetic": (cli_pool, cli_op),
}
