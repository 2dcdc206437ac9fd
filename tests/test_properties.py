"""Property checks drawn by Hypothesis, derandomized: every run draws the
same cases, so a failure reproduces and the suite's time is fixed.

- predict on the training columns is category_probabilities on the
  training data, bit for bit, for both families, every structure and both
  orientations, with and without smooth terms;
- predict on a grid of four rows works for every smooth spec, where a
  design learned on those rows could not place the knots;
- a reverse-orientation fit is the forward fit on the responses relabeled
  k+1-y, bit for bit, its parameters permuted;
- load_csv, which converts each column in one call, reads every cell as
  the stripped cell through int() or float() would, and fails with the
  same message naming the same cell;
- a valid CSV through the CLI with a star plot exits 0, 2 or 3, never
  with a traceback, or 4 when a smooth term cannot be placed on its data;
  3 only with a fit that failed.
"""

import contextlib
import importlib
import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import category_probabilities

from ordshift import cli
from ordshift.data import OrdinalDataset, load_csv
from ordshift.design import ModelSpec, Term
from ordshift.exceptions import DataError, SeparationWarning
from ordshift.fit import fit, predict
from ordshift.formula import parse_formula
from ordshift.inference import LADDER_LABELS
from ordshift.links import Family

FIT_MODULE = importlib.import_module("ordshift.fit")
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
    with mock.patch.object(FIT_MODULE, "MAX_ITER", 4):
        return fit(spec, data)


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


def _cells(valid, *others):
    """Cells that read as valid numbers, then those mixed with each of
    ``others`` in turn, with whitespace that int() and float() skip around
    them."""
    space = st.sampled_from(["", "", " ", "  ", "\t", "\u00a0"])
    pools = [valid]
    for other in others:
        pools.append(st.one_of(pools[-1], other))
    return tuple(st.tuples(space, cells, space).map("".join) for cells in pools)


RESPONSE_CELLS = _cells(
    st.one_of(st.integers(1, 4).map(str), st.sampled_from(["+2", "\u0663", "0_3"])),
    st.sampled_from(["0", "5", "-1", "1_0"]),
    st.sampled_from(["2.0", "", "x", "1__0", "1e0"]),
)
NUMBER_CELLS = _cells(
    st.one_of(st.integers(-999, 999).map(str), st.floats(-1e6, 1e6, width=32).map(repr),
              st.sampled_from(["+5", "1_000", "1e3", "-0", ".5", "5.", "\u0665"])),
    st.sampled_from(["nan", "inf", "-Infinity", "1e999"]),
    st.sampled_from(["1__0", "_1", "1_", "0x1p3", "1e", "e3", "--1"]),
    st.sampled_from(["", "oops", "a"]),
)
CODE_CELLS = _cells(
    st.one_of(st.integers(1, 3).map(str), st.sampled_from(["+1", "01", "1.0"])),
    st.sampled_from(["a", "b", "", "nan"]),
)


@st.composite
def _table(draw):
    """Up to eight rows of y, a and g; each column draws from one pool of
    its cells, the response mostly from the valid one, so that the other
    columns are read."""
    n = draw(st.integers(1, 8))
    table = {}
    for name, pools, choices in (("y", RESPONSE_CELLS, [0, 0, 0, 1, 2]),
                                 ("a", NUMBER_CELLS, [0, 1, 2, 3]), ("g", CODE_CELLS, [0, 1])):
        cells = pools[draw(st.sampled_from(choices))]
        table[name] = draw(st.lists(cells, min_size=n, max_size=n))
    return table


def _reference_load(table, declared):
    """The per-cell reading: each stripped cell through int() (the
    response) or float(), with load_csv's messages; a column declared
    categorical, or without a number, is text with its levels in
    first-seen order."""
    cells = {name: [c.strip() for c in column] for name, column in table.items()}
    y = []
    for row, value in enumerate(cells["y"], start=2):
        try:
            y.append(int(value))
        except ValueError:
            raise DataError(f"column 'y' row {row}: response {value!r} is not an integer") from None
    k = max(y)
    for row, value in enumerate(y, start=2):
        if not 1 <= value <= k:
            raise DataError(f"column 'y' row {row}: response {value}; "
                            f"response categories must be 1..{k}")
    columns, levels = {}, {}
    for name in ("a", "g"):
        values = cells[name]
        numbers = []
        for value in values:
            try:
                numbers.append(float(value))
            except ValueError:
                numbers.append(None)
        if name in declared or numbers.count(None) == len(numbers):
            columns[name] = np.array(values, dtype=object)
            levels[name] = tuple(dict.fromkeys(values))
            continue
        for row, (value, number) in enumerate(zip(values, numbers), start=2):
            if number is None:
                raise DataError(f"column {name!r} row {row}: could not parse {value!r} as a number")
        for row, (value, number) in enumerate(zip(values, numbers), start=2):
            if not math.isfinite(number):
                raise DataError(f"column {name!r} row {row}: {value!r} is not a finite number")
        columns[name] = np.array(numbers)
    if k > len(y):
        row = 2 + y.index(max(y))
        raise DataError(f"column 'y' row {row}: largest response {max(y)}; "
                        f"k={k} categories cannot all be observed in {len(y)} rows")
    return OrdinalDataset(y=np.array(y), k=k, columns=columns, categorical_levels=levels)


def _outcome(load):
    try:
        return load()
    except DataError as exc:
        return str(exc)


@settings(PROPERTY, max_examples=150)
@given(table=_table(), declared=st.sets(st.sampled_from(["a", "g"])))
def test_load_csv_reads_each_cell_as_int_or_float(tmp_path_factory, table, declared):
    path = tmp_path_factory.getbasetemp() / "load_csv.csv"  # each example rewrites it
    rows = zip(*table.values())
    path.write_text("y,a,g\n" + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    got = _outcome(lambda: load_csv(path, parse_formula("y ~ a + g | a"),
                                    categorical=sorted(declared)))
    want = _outcome(lambda: _reference_load(table, declared))
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got.k == want.k
    assert got.y.dtype == want.y.dtype and np.array_equal(got.y, want.y)
    assert got.categorical_levels == want.categorical_levels
    for name in ("a", "g"):
        column, expected = got.columns[name], want.columns[name]
        assert column.dtype == expected.dtype
        if column.dtype == object:
            assert column.tolist() == expected.tolist()
        else:  # to the bit: -0 stays -0
            assert column.tobytes() == expected.tobytes()


@st.composite
def _csv(draw):
    """A CSV that names y, v, g with y in 1..k (k >= 3 observed), v numbers
    (at times most of them equal) and g two text levels, both present. When
    ``top`` is drawn, every b row is in one of the top two categories: g
    then nearly separates, and its standard errors can run to thousands."""
    n = draw(st.integers(8, 40))
    k = draw(st.integers(3, 5))
    y = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    y[0] = k
    v = draw(st.lists(st.one_of(st.integers(-3, 3), st.floats(-50, 50, width=32)),
                      min_size=n, max_size=n))
    if draw(st.booleans()):
        # most of v at its smallest value, where the knots of s(v) then pile up
        piled = draw(st.integers(n // 2, n - 1))
        v[:piled] = [min(v)] * piled
    g = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    g[:2] = ["a", "b"]
    if draw(st.booleans()):
        y = [max(a, k - 1) if c == "b" else a for a, c in zip(y, g)]
    lines = ["y,v,g"] + [f"{a},{b!r},{c}" for a, b, c in zip(y, v, g)]
    return ("\n".join(lines) + "\n").encode()


@settings(PROPERTY, max_examples=50)
@given(csv=_csv(), family=st.sampled_from(["cumulative", "acat"]), reverse=st.booleans(),
       structure=st.sampled_from(["ladder", "locshift"]), smooth=st.booleans())
def test_cli_star_exits_with_a_code(tmp_path_factory, csv, family, reverse, structure, smooth):
    out = tmp_path_factory.mktemp("cli")
    (out / "data.csv").write_bytes(csv)
    # s(v, 6) needs six distinct values of v, and a B-spline that is not
    # zero on every row: either failing is a usage error
    location = "s(v, 6)" if smooth else "v"
    argv = ["--data", str(out / "data.csv"), "--formula", f"y ~ {location} + g | v + g",
            "--family", family, "--structure", structure,
            "--out", str(out / "report.txt"), "--star", str(out / "star.svg")]
    if reverse:
        argv.append("--reverse")
    stderr = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stderr(stderr))
        stack.enter_context(warnings.catch_warnings())
        # separation and star exclusions warn on such data; a numpy
        # overflow or invalid value still fails (pyproject.toml)
        warnings.simplefilter("ignore", UserWarning)
        code = cli.main(argv)
    event(f"{structure} exit {code}")
    assert code in ((0, 2, 3, 4) if smooth else (0, 2, 3))
    last = stderr.getvalue().strip().splitlines()[-1]
    if code == 4:
        assert last.startswith("error[usage]: smooth term s(v, 6): "), last
    if code == 3:
        # only a fit that failed: the requested structure's, every rung's, or
        # the location-shift rung's that the star plot needs
        if last.startswith("error[fit]: every model in the ladder failed: "):
            assert all(f"{label}: fit failed (" in last for label in LADDER_LABELS.values()), last
        elif last == "error[fit]: star plot needs a converged location-shift fit":
            assert "note: Location-shift model: fit failed (" in (out / "report.txt").read_text()
        else:
            assert last.startswith(f"error[fit]: {structure} fit stopped at iteration "), last
            assert "did not converge" in last, last
    if code == 0:
        svg = (out / "star.svg").read_text(encoding="utf-8")
        assert "inf" not in svg and "nan" not in svg
