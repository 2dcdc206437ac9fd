"""Property checks drawn by Hypothesis, derandomized: every run draws the
same cases, so a failure reproduces and the suite's time is fixed.

- predict on the training columns is category_probabilities on the
  training data, bit for bit, for both families, every structure and both
  orientations, with and without smooth terms;
- predict on a grid of four rows works for every smooth spec, where a
  design learned on those rows could not place the knots;
- a reverse-orientation fit is the forward fit on the responses relabeled
  k+1-y, bit for bit, its parameters permuted;
- a valid CSV through the CLI with a star plot exits 0, 2 or 3, never
  with a traceback.
"""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordshift import cli
from ordshift.data import OrdinalDataset
from ordshift.design import ModelSpec, Term
from ordshift.exceptions import SeparationWarning
from ordshift.fit import category_probabilities, fit, predict
from ordshift.links import Family

PROPERTY = settings(derandomize=True, database=None, deadline=None)
FAMILIES = st.builds(Family, st.sampled_from(["cumulative", "adjacent"]), st.booleans())
K = 4


def _dataset(seed: int, n: int = 80) -> OrdinalDataset:
    """x drives the response; g (three levels) and z are noise. Every
    category is observed."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, n)
    z = rng.uniform(-1.0, 1.0, n)
    g = rng.choice(np.array(["a", "b", "c"], dtype=object), n)
    latent = np.sin(1.5 * x) + rng.logistic(size=n)
    y = 1 + (latent[:, None] > [-1.0, 0.0, 1.0]).sum(axis=1)
    y[:K] = np.arange(1, K + 1)
    return OrdinalDataset(y=y, k=K, columns={"x": x, "z": z, "g": g},
                          categorical_levels={"g": ("a", "b", "c")})


def _fit(spec, data):
    """A few Fisher-scoring iterations: predict reads the parameters, not
    whether they converged."""
    return fit(spec, data, max_iter=4)


@settings(PROPERTY, max_examples=30)
@given(seed=st.integers(0, 2**16), family=FAMILIES,
       structure=st.sampled_from(["global", "locshift", "catspec"]), smooth=st.booleans())
def test_predict_on_training_columns_is_category_probabilities(seed, family, structure, smooth):
    x = Term("x", smooth=smooth and structure != "catspec", n_basis=5)
    spec = ModelSpec(family, structure, (x, Term("g")), (Term("z"), Term("g")))
    data = _dataset(seed)
    result = _fit(spec, data)
    assert np.array_equal(predict(result, data.columns),
                          category_probabilities(result.params, data, spec))


SMOOTH_SPECS = [(kind, structure, side)
                for kind in ("cumulative", "adjacent")
                for structure, side in (("global", "location"), ("locshift", "location"),
                                        ("locshift", "dispersion"))]


@pytest.mark.parametrize("kind, structure, side", SMOOTH_SPECS)
@settings(PROPERTY, max_examples=6)
@given(seed=st.integers(0, 2**16), reverse=st.booleans(),
       rows=st.lists(st.integers(0, 79), min_size=4, max_size=4))
def test_predict_on_a_four_row_grid(kind, structure, side, seed, reverse, rows):
    smooth = Term("x", smooth=True)
    location, dispersion = (smooth, Term("g")), (Term("z"),)
    if side == "dispersion":
        location, dispersion = (Term("x"), Term("g")), (smooth,)
    spec = ModelSpec(Family(kind, reverse), structure, location, dispersion)
    data = _dataset(seed)
    result = _fit(spec, data)
    grid = {name: values[rows] for name, values in data.columns.items()}
    probs = predict(result, grid)
    assert probs.shape == (4, K)
    assert probs.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-12)
    assert probs == pytest.approx(predict(result, data.columns)[rows], abs=1e-12)


@settings(PROPERTY, max_examples=30)
@given(seed=st.integers(0, 2**16), kind=st.sampled_from(["cumulative", "adjacent"]),
       structure=st.sampled_from(["global", "locshift", "catspec"]), smooth=st.booleans())
def test_reverse_fit_is_the_forward_fit_relabeled(seed, kind, structure, smooth):
    x = Term("x", smooth=smooth and structure != "catspec", n_basis=5)
    location, dispersion = (x, Term("g")), (Term("z"), Term("g"))
    data = _dataset(seed)
    relabeled = OrdinalDataset(y=K + 1 - data.y, k=K, columns=data.columns,
                               categorical_levels={"g": ("a", "b", "c")})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SeparationWarning)
        reverse = fit(ModelSpec(Family(kind, True), structure, location, dispersion), data)
        forward = fit(ModelSpec(Family(kind), structure, location, dispersion), relabeled)
    # the reverse fit reads the intercepts, and the category-specific
    # threshold blocks of p columns each, in reverse threshold order
    layout = forward.layout
    q, n_params = layout.q, layout.n_params
    perm = np.arange(n_params)
    perm[:q] = np.arange(q)[::-1]
    if structure == "catspec":
        perm[q:] = np.arange(q, n_params).reshape(q, layout.p)[::-1].ravel()
    assert np.array_equal(reverse.params, forward.params[perm])
    assert np.array_equal(reverse.covariance, forward.covariance[np.ix_(perm, perm)])
    assert np.array_equal(reverse.se_unavailable, forward.se_unavailable[perm])
    assert reverse.deviance == forward.deviance
    assert reverse.iterations == forward.iterations
    assert reverse.converged == forward.converged
    assert reverse.warnings == forward.warnings
    assert reverse.names == forward.names


@st.composite
def _csv(draw):
    """A CSV that names y, v, g with y in 1..k (k >= 3 observed), v numbers
    and g two text levels, both present. When ``top`` is drawn, every b row
    is in one of the top two categories: g then nearly separates, and its
    standard errors can run to thousands."""
    n = draw(st.integers(8, 40))
    k = draw(st.integers(3, 5))
    y = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    y[0] = k
    v = draw(st.lists(st.one_of(st.integers(-3, 3), st.floats(-50, 50, width=32)),
                      min_size=n, max_size=n))
    g = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    g[:2] = ["a", "b"]
    if draw(st.booleans()):
        y = [max(a, k - 1) if c == "b" else a for a, c in zip(y, g)]
    lines = ["y,v,g"] + [f"{a},{b!r},{c}" for a, b, c in zip(y, v, g)]
    return ("\n".join(lines) + "\n").encode()


@settings(PROPERTY, max_examples=50)
@given(csv=_csv(), family=st.sampled_from(["cumulative", "acat"]), reverse=st.booleans(),
       structure=st.sampled_from(["ladder", "locshift"]))
def test_cli_star_exits_with_a_code(tmp_path_factory, csv, family, reverse, structure):
    out = tmp_path_factory.mktemp("cli")
    (out / "data.csv").write_bytes(csv)
    argv = ["--data", str(out / "data.csv"), "--formula", "y ~ v + g | v + g",
            "--family", family, "--structure", structure,
            "--out", str(out / "report.txt"), "--star", str(out / "star.svg")]
    if reverse:
        argv.append("--reverse")
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        stack.enter_context(warnings.catch_warnings())
        # separation and star exclusions warn on such data; a numpy
        # overflow or invalid value still fails (pyproject.toml)
        warnings.simplefilter("ignore", UserWarning)
        code = cli.main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        svg = (out / "star.svg").read_text(encoding="utf-8")
        assert "inf" not in svg and "nan" not in svg
