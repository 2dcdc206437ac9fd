"""B-spline basis construction against a naive recursive oracle."""

import numpy as np
import pytest

from ordshift.exceptions import InvalidInputError, SpecError
from ordshift.splines import BasisDef, bspline_basis, knot_sequence


def naive_bspline(x, degree, i, knots):
    """Textbook Cox-de Boor recursion, scalar, independent of the library."""
    if degree == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    left = 0.0
    if knots[i + degree] > knots[i]:
        left = (x - knots[i]) / (knots[i + degree] - knots[i]) * naive_bspline(
            x, degree - 1, i, knots
        )
    right = 0.0
    if knots[i + degree + 1] > knots[i + 1]:
        right = (knots[i + degree + 1] - x) / (
            knots[i + degree + 1] - knots[i + 1]
        ) * naive_bspline(x, degree - 1, i + 1, knots)
    return left + right


def naive_basis_row(x, basis):
    return np.array(
        [naive_bspline(x, basis.degree, i, basis.knots) for i in range(basis.n_basis)]
    )


def full_width_basis(x, basis):
    """Cox-de Boor over every B-spline of every degree, a column at a time,
    on half-open knot intervals with the last nonempty one closed at hi."""
    x = np.clip(np.asarray(x, dtype=float), basis.lo, basis.hi)
    t = np.asarray(basis.knots)
    n_cells = len(t) - 1
    b = np.zeros((x.size, n_cells))
    for s in range(n_cells):
        if t[s + 1] > t[s]:
            b[:, s] = (x >= t[s]) & (x < t[s + 1])
    last = np.max(np.nonzero(np.diff(t) > 0)[0])
    b[x == basis.hi, :] = 0.0
    b[x == basis.hi, last] = 1.0
    for deg in range(1, basis.degree + 1):
        nb = np.zeros((x.size, n_cells - deg))
        for s in range(n_cells - deg):
            left = t[s + deg] - t[s]
            if left > 0:
                nb[:, s] += (x - t[s]) / left * b[:, s]
            right = t[s + deg + 1] - t[s + 1]
            if right > 0:
                nb[:, s] += (t[s + deg + 1] - x) / right * b[:, s + 1]
        b = nb
    return b


class TestKnotSequence:
    def test_bernstein_case(self):
        x = np.linspace(0, 1, 50)
        basis = knot_sequence(x, 4, 3)
        assert basis.knots == (0, 0, 0, 0, 1, 1, 1, 1)
        assert (basis.lo, basis.hi) == (0.0, 1.0)

    def test_interior_quantiles(self):
        rng = np.random.default_rng(4)
        x = rng.gamma(2.0, size=500)  # skewed on purpose
        basis = knot_sequence(x, 6, 3)
        knots = np.array(basis.knots)
        assert len(knots) == 6 + 3 + 1
        expected = np.quantile(x, [1 / 3, 2 / 3])
        assert knots[4:6] == pytest.approx(expected)
        assert np.all(np.diff(knots) >= 0)

    def test_too_small_basis(self):
        with pytest.raises(SpecError):
            knot_sequence(np.linspace(0, 1, 50), 3, 3)

    def test_too_few_distinct(self):
        with pytest.raises(SpecError):
            knot_sequence(np.array([1.0, 1.0, 2.0, 2.0]), 5, 3)

    def test_constant_values_rejected(self):
        # one B-spline of degree 0 still needs a range to span
        with pytest.raises(SpecError, match="at least 2 distinct values"):
            knot_sequence(np.full(10, 3.0), 1, 0)

    @pytest.mark.parametrize("knots, n_basis, lo, hi", [
        ((-1.0, 0.0, 1.0, 1.0), 2, 0.0, 1.0),  # not clamped at lo
        ((0.0, 0.0, 0.5, 1.0), 2, 0.0, 1.0),  # not clamped at hi
        ((0.0, 0.0, 1.0), 2, 0.0, 1.0),  # one knot short
        ((0.0, 0.0, 0.7, 0.5, 1.0, 1.0), 4, 0.0, 1.0),  # decreasing
        ((1.0, 1.0, 1.0, 1.0), 2, 1.0, 1.0),  # empty range
    ])
    def test_basis_def_requires_clamped_knots(self, knots, n_basis, lo, hi):
        with pytest.raises(InvalidInputError, match="knots must be"):
            BasisDef(degree=1, n_basis=n_basis, knots=knots, lo=lo, hi=hi)


class TestBasisEvaluation:
    def test_degree_zero_indicator(self):
        basis = BasisDef(degree=0, n_basis=1, knots=(0.0, 1.0), lo=0.0, hi=1.0)
        assert bspline_basis(0.4, basis) == pytest.approx([1.0])

    def test_bernstein_endpoints(self):
        basis = knot_sequence(np.linspace(0, 1, 40), 4, 3)
        assert bspline_basis(0.0, basis) == pytest.approx([1, 0, 0, 0], abs=1e-15)
        assert bspline_basis(1.0, basis) == pytest.approx([0, 0, 0, 1], abs=1e-15)

    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=300)
        basis = knot_sequence(x, 6, 3)
        interior = basis.knots[4]
        points = np.concatenate([[interior], rng.uniform(x.min(), x.max(), size=40)])
        values = bspline_basis(points, basis)
        for row, point in zip(values, points):
            assert row == pytest.approx(naive_basis_row(point, basis), abs=1e-12)

    def test_matches_naive_other_degrees(self):
        # interior points only: the naive half-open recursion has no
        # right-endpoint convention (the boundary is covered elsewhere)
        rng = np.random.default_rng(18)
        x = rng.uniform(0, 10, size=200)
        for degree, m in ((1, 4), (2, 5), (3, 8)):
            basis = knot_sequence(x, m, degree)
            pts = rng.uniform(basis.lo, np.nextafter(basis.hi, -np.inf), size=25)
            values = bspline_basis(pts, basis)
            for row, point in zip(values, pts):
                assert row == pytest.approx(naive_basis_row(point, basis), abs=1e-12)

    def test_partition_of_unity(self):
        x = np.random.default_rng(2).normal(size=400)
        basis = knot_sequence(x, 7, 3)
        grid = np.linspace(x.min(), x.max(), 1000)
        values = bspline_basis(grid, basis)
        assert np.all(values >= 0)
        assert np.max(np.abs(values.sum(axis=1) - 1.0)) < 1e-12

    def test_local_support(self):
        x = np.linspace(0, 10, 200)
        basis = knot_sequence(x, 8, 3)
        knots = np.array(basis.knots)
        grid = np.linspace(0, 10, 500)
        values = bspline_basis(grid, basis)
        for s in range(basis.n_basis):
            lo, hi = knots[s], knots[s + basis.degree + 1]
            outside = (grid < lo - 1e-12) | (grid > hi + 1e-12)
            assert np.all(np.abs(values[outside, s]) == 0.0)

    def test_clamps_out_of_range(self):
        basis = knot_sequence(np.linspace(0, 1, 30), 5, 3)
        assert bspline_basis(-3.0, basis) == pytest.approx(bspline_basis(0.0, basis))
        assert bspline_basis(7.0, basis) == pytest.approx(bspline_basis(1.0, basis))

    def test_linear_reproduction(self):
        # least-squares fit of f(x) = x onto the basis must be exact
        rng = np.random.default_rng(12)
        x = rng.uniform(-2, 5, size=300)
        for m in (4, 6, 9):
            basis = knot_sequence(x, m, 3)
            grid = np.linspace(x.min(), x.max(), 500)
            values = bspline_basis(grid, basis)
            coef, *_ = np.linalg.lstsq(values, grid, rcond=None)
            assert np.max(np.abs(values @ coef - grid)) < 1e-10

    @pytest.mark.parametrize("degree, n_basis", [(0, 3), (1, 4), (2, 5), (3, 6), (3, 9), (4, 7)])
    def test_bit_identical_to_the_full_width_recurrence(self, degree, n_basis):
        # piled-up data repeat interior knots at the boundary and inside:
        # empty supports, zero B-splines and the closed last interval
        rng = np.random.default_rng(degree * 10 + n_basis)
        for x in (rng.normal(size=200),
                  np.where(rng.random(200) < 0.7, 0.0, rng.exponential(size=200)),
                  rng.integers(0, n_basis + 2, size=200).astype(float)):
            basis = knot_sequence(x, n_basis, degree)
            grid = np.concatenate([x, basis.knots, np.linspace(basis.lo - 1, basis.hi + 1, 61)])
            got = bspline_basis(grid, basis)
            assert got.tobytes() == full_width_basis(grid, basis).tobytes()
            assert bspline_basis(float(grid[0]), basis).tobytes() == got[0].tobytes()

    def test_nonfinite_rejected(self):
        basis = knot_sequence(np.linspace(0, 1, 30), 4, 3)
        with pytest.raises(InvalidInputError):
            bspline_basis(np.nan, basis)

