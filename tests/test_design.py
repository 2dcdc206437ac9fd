"""Design expansion: dummies, design rows, constraint map, parameter counts."""

import numpy as np
import pytest

from helpers import dispersion_columns, kernel_predictors, location_columns, random_dataset

from ordshift.data import OrdinalDataset
from ordshift.design import (
    ModelSpec,
    Term,
    build_design_tensor,
    constraint_map,
    expand_design,
)
from ordshift.exceptions import DataError, SpecError
from ordshift.fit import _compile, fit, log_likelihood, smooth_values
from ordshift.links import Family
from ordshift.splines import bspline_basis


def _dataset_with(columns, k=4, y=None, categorical=None):
    n = len(next(iter(columns.values())))
    rng = np.random.default_rng(0)
    if y is None:
        y = rng.integers(1, k + 1, size=n)
        y[:k] = np.arange(1, k + 1)  # each category observed
    return OrdinalDataset(y=y, k=k, columns=columns, categorical_levels=categorical or {})


def dummy_block(values, levels, name="variable"):
    """Dummy block as expand_design builds it: the levels learned from the
    dataset, then design_columns from its kept level codes."""
    data = OrdinalDataset(y=np.ones(len(values), dtype=int), k=2, columns={name: values},
                          categorical_levels={name: levels})
    return location_columns(expand_design(data, ModelSpec(Family("cumulative"), "global",
                                                          (Term(name),))))


def _loop_dummies(values, levels):
    """Row-by-row dummy coding: the reference for the vectorised coding."""
    index = {lev: j for j, lev in enumerate(levels)}
    out = np.zeros((len(values), len(levels) - 1))
    for i, v in enumerate(values):
        j = index[v]
        if j > 0:
            out[i, j - 1] = 1.0
    return out


class TestDummies:
    def test_indicator_coding(self):
        out = dummy_block(["1", "2", "4", "1"], ["1", "2", "3", "4"])
        assert out.T.tolist() == [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]

    def test_unseen_level(self):
        with pytest.raises(DataError, match=r"Residence.*'5'"):
            dummy_block(["1", "5"], ["1", "2"], name="Residence")

    def test_unseen_level_names_first_offender(self):
        with pytest.raises(DataError, match=r"variable 'Residence': unseen level '7'$"):
            dummy_block(["1", "7", "2", "5"], ["1", "2"], name="Residence")

    def test_matches_row_loop(self):
        # a column mixing every level, the reference first, in random order,
        # against the row-by-row coding the vectorised version replaced
        rng = np.random.default_rng(12)
        levels = ("3", "1", "b", "20", "a")
        values = rng.choice(np.array(levels, dtype=object), size=500)
        out = dummy_block(values, levels, name="mixed")
        assert out.dtype == np.float64
        assert np.array_equal(out, _loop_dummies(values, levels))
        assert np.array_equal(dummy_block(list(values), levels), out)

    def test_single_level_rejected(self):
        with pytest.raises(SpecError):
            dummy_block(["a", "a"], ["a"])

    def test_expanded_names_match_levels(self):
        rng = np.random.default_rng(1)
        res = rng.integers(1, 5, size=40).astype(str).astype(object)
        edu = rng.integers(1, 6, size=40).astype(str).astype(object)
        data = _dataset_with(
            {"Residence": res, "EduDegree": edu},
            categorical={"Residence": ("1", "2", "3", "4"),
                         "EduDegree": ("1", "2", "3", "4", "5")},
        )
        spec = ModelSpec(
            family=Family("cumulative"), structure="global",
            location=(Term("Residence"), Term("EduDegree")),
        )
        design = expand_design(data, spec)
        assert [c.name for c in design.layout.x_cols] == [
            "Residence2", "Residence3", "Residence4",
            "EduDegree2", "EduDegree3", "EduDegree4", "EduDegree5",
        ]


def _design_rows(spec, x_row, z_row, k):
    """The (k-1, n_params) design rows of one observation whose location
    terms take the values ``x_row`` and dispersion terms ``z_row``, as the
    design built from a one-row dataset lays them out."""
    values = list(zip(spec.location, np.atleast_1d(x_row)))
    if z_row is not None:
        values += list(zip(spec.dispersion, np.atleast_1d(z_row)))
    data = OrdinalDataset(y=[1], k=k, columns={t.name: np.array([v], float) for t, v in values})
    D = build_design_tensor(expand_design(data, spec), spec)
    return D[0]


class TestDesignRows:
    def test_global_has_no_alpha_block(self):
        spec = ModelSpec(Family("cumulative"), "global", (Term("a"),))
        rows = _design_rows(spec, [2.0], [9.9], k=4)
        assert rows.shape == (3, 4)
        assert rows[:, :3] == pytest.approx(np.eye(3))
        assert rows[:, 3] == pytest.approx([2.0, 2.0, 2.0])

    def test_locshift_scaling_weights(self):
        # threshold diagram, k=6: row 5 carries +2z in the alpha slot
        spec = ModelSpec(Family("cumulative"), "locshift", (Term("a"),), (Term("b"),))
        z = 1.7
        rows = _design_rows(spec, [0.5], [z], k=6)
        assert rows.shape == (5, 7)
        assert rows[4, 6] == pytest.approx(2.0 * z)
        assert rows[0, 6] == pytest.approx(-2.0 * z)
        assert rows[2, 6] == 0.0

    def test_catspec_block_placement(self):
        spec = ModelSpec(Family("cumulative"), "catspec", (Term("a"), Term("b")))
        x = [1.5, -0.5]
        rows = _design_rows(spec, x, None, k=4)
        assert rows.shape == (3, 3 + 6)
        assert rows[1, 5:7] == pytest.approx(x)
        assert rows[1, 3:5] == pytest.approx([0.0, 0.0])
        assert rows[1, 7:9] == pytest.approx([0.0, 0.0])

    def test_linearity(self):
        spec = ModelSpec(Family("adjacent"), "locshift", (Term("a"),), (Term("b"),))
        rows1 = _design_rows(spec, [1.2], [0.7], k=5)
        rows2 = _design_rows(spec, [2.4], [1.4], k=5)
        q = 4
        assert rows2[:, q:] == pytest.approx(2.0 * rows1[:, q:])
        assert rows2[:, :q] == pytest.approx(rows1[:, :q])

    def test_eta_is_exact_dot_product(self):
        rng = np.random.default_rng(3)
        spec = ModelSpec(Family("cumulative"), "locshift", (Term("a"), Term("b")), (Term("c"),))
        x, z = rng.normal(size=2), rng.normal(size=1)
        rows = _design_rows(spec, x, z, k=5)
        theta = rng.normal(size=rows.shape[1])
        w = np.array([r - 2.5 for r in range(1, 5)])
        manual = theta[:4] + x @ theta[4:6] + w * (z @ theta[6:])
        assert rows @ theta == pytest.approx(manual, abs=1e-14)

    def test_k2_with_dispersion_rejected(self):
        spec = ModelSpec(Family("cumulative"), "locshift", (Term("a"),), (Term("b"),))
        with pytest.raises(SpecError):
            _design_rows(spec, [1.0], [1.0], k=2)

    def test_tensor_matches_row_builder(self):
        # the tensor's rows of each observation reproduce the predictors the
        # fitting kernel computes from X, Z and the scaling weights
        rng = np.random.default_rng(7)
        data, spec, _ = random_dataset(rng, n=20, k=5)
        for structure in ("global", "locshift", "catspec"):
            s = spec.with_structure(structure)
            design = expand_design(data, s)
            D, layout = build_design_tensor(design, s), design.layout
            assert D.shape == (20, 4, layout.n_params)
            theta = rng.normal(size=layout.n_params)
            eta = kernel_predictors(_compile(data, s), theta)
            for i in range(0, 20, 7):
                assert D[i] @ theta == pytest.approx(eta[:, i], abs=1e-14)


class TestParameterCounts:
    def test_safety_survey_shape(self):
        # n=2225, k=10, 9 expanded columns: 90 / 27 / 18 parameter slots
        rng = np.random.default_rng(5)
        columns = {f"c{j}": rng.normal(size=60) for j in range(9)}
        y = np.tile(np.arange(1, 11), 6)
        data = OrdinalDataset(y=y, k=10, columns=columns)
        terms = tuple(Term(f"c{j}") for j in range(9))
        expected = {"catspec": 90, "locshift": 27, "global": 18}
        for structure, count in expected.items():
            spec = ModelSpec(Family("cumulative"), structure, terms, terms)
            layout = expand_design(data, spec).layout
            assert layout.n_params == count

    def test_structure_arithmetic(self):
        rng = np.random.default_rng(6)
        data, spec, _ = random_dataset(rng, n=30, k=6, n_cov=3)
        k, p, m = 6, 3, 3
        for structure, count in (
            ("global", (k - 1) + p),
            ("locshift", (k - 1) + p + m),
            ("catspec", (k - 1) + (k - 1) * p),
        ):
            s = spec.with_structure(structure)
            layout = expand_design(data, s).layout
            assert layout.n_params == count


class TestConstraintMap:
    def test_direct_substitution(self):
        rows = constraint_map([1.0], [0.5], k=6)
        assert rows[:, 0] == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    def test_zero_alpha_collapses(self):
        beta = np.array([0.3, -1.2])
        rows = constraint_map(beta, [0.0, 0.0], k=5)
        assert rows == pytest.approx(np.tile(beta, (4, 1)))

    def test_mean_recovers_beta(self):
        rng = np.random.default_rng(9)
        beta, alpha = rng.normal(size=3), rng.normal(size=3)
        for k in (3, 6, 11):
            rows = constraint_map(beta, alpha, k)
            assert rows.mean(axis=0) == pytest.approx(beta, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(SpecError):
            constraint_map([1.0, 2.0], [0.5], k=4)

    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_predictor_equivalence(self, kind):
        # location-shift loglik == category-specific loglik at mapped params
        rng = np.random.default_rng(13)
        data, spec, params = random_dataset(rng, n=60, k=5, family=Family(kind))
        cs = spec.with_structure("catspec")
        q = data.k - 1
        beta, alpha = params[q:q + 2], params[q + 2:]
        mapped = np.concatenate(
            [params[:q], constraint_map(beta, alpha, data.k, spec.family).ravel()]
        )
        ll_ls = log_likelihood(params, data, spec)
        ll_cs = log_likelihood(mapped, data, cs)
        assert ll_cs == pytest.approx(ll_ls, abs=1e-10)


class TestGuards:
    def test_unknown_structure(self):
        with pytest.raises(SpecError):
            ModelSpec(Family("cumulative"), "partial", (Term("a"),))

    @pytest.mark.parametrize(
        "location, dispersion, side",
        [
            ((Term("a"), Term("a")), (Term("a"),), "location"),
            ((Term("a"), Term("a", smooth=True)), (), "location"),
            ((Term("a"),), (Term("b", smooth=True), Term("b", n_basis=5, smooth=True)), "dispersion"),
        ],
    )
    def test_variable_twice_on_one_side_rejected(self, location, dispersion, side):
        # a repeated column, or a linear term inside its own smooth's span,
        # makes the design singular
        with pytest.raises(SpecError, match=rf"variable '\w' appears twice among the {side} terms"):
            ModelSpec(Family("cumulative"), "locshift", location, dispersion)

    def test_variable_on_both_sides_accepted(self):
        spec = ModelSpec(Family("cumulative"), "locshift", (Term("a"), Term("b", smooth=True)),
                         (Term("a"), Term("b", smooth=True)))
        assert [t.name for t in spec.dispersion] == ["a", "b"]

    def test_catspec_smooth_rejected(self):
        with pytest.raises(SpecError):
            ModelSpec(Family("cumulative"), "catspec", (Term("a", smooth=True),))

    def test_smooth_on_categorical_rejected(self):
        data = _dataset_with(
            {"g": np.array(list("abab") * 10, dtype=object)},
            categorical={"g": ("a", "b")},
        )
        spec = ModelSpec(Family("cumulative"), "global", (Term("g", smooth=True),))
        with pytest.raises(SpecError):
            expand_design(data, spec)

    def test_zero_basis_smooth_rejected(self):
        # n_basis=0 is a request, not "unset": it must not fall back to the default
        data = _dataset_with({"a": np.linspace(0, 1, 40)})
        spec = ModelSpec(Family("cumulative"), "global", (Term("a", smooth=True, n_basis=0),))
        with pytest.raises(SpecError, match="n_basis=0"):
            expand_design(data, spec)

    def test_smooth_column_zero_on_every_training_row_rejected(self):
        # 400 of 500 values are 0: knot_sequence puts both interior knots of
        # s(x, 6) at 0, and B-splines 1 and 2, of empty support, are zero on
        # every row; their SEs would be NaN and an LR test's df overstated
        rng = np.random.default_rng(2)
        x = np.where(np.arange(500) < 400, 0.0, rng.random(500))
        data = _dataset_with({"x": x})
        spec = ModelSpec(Family("cumulative"), "locshift", (Term("x", smooth=True),))
        with pytest.raises(SpecError, match=r"^smooth term s\(x, 6\): B-spline columns "
                                            r"\[1, 2\] are zero on every training row"):
            expand_design(data, spec)
        # four B-splines have no interior knot, and all span the data
        spec = ModelSpec(Family("cumulative"), "locshift", (Term("x", smooth=True, n_basis=4),))
        assert location_columns(expand_design(data, spec)).shape == (500, 3)

    def test_k2_dispersion_rejected_at_expansion(self):
        data = _dataset_with({"a": np.linspace(0, 1, 12)}, k=2, y=np.tile([1, 2], 6))
        spec = ModelSpec(Family("cumulative"), "locshift", (Term("a"),), (Term("a"),))
        with pytest.raises(SpecError):
            expand_design(data, spec)

    def test_missing_variable(self):
        data = _dataset_with({"a": np.linspace(0, 1, 12)})
        spec = ModelSpec(Family("cumulative"), "global", (Term("nope"),))
        with pytest.raises(DataError):
            expand_design(data, spec)

    def test_catspec_folds_dispersion_variables(self):
        data = _dataset_with({"a": np.linspace(0, 1, 12), "b": np.linspace(1, 2, 12)})
        spec = ModelSpec(Family("cumulative"), "catspec", (Term("a"),), (Term("b"),))
        design = expand_design(data, spec)
        assert [c.name for c in design.layout.x_cols] == ["a", "b"]
        assert design.layout.z_cols == []

    def test_smooth_block_centered(self):
        rng = np.random.default_rng(2)
        data = _dataset_with({"a": rng.normal(size=80)})
        spec = ModelSpec(
            Family("cumulative"), "global", (Term("a", smooth=True, n_basis=5),)
        )
        design = expand_design(data, spec)
        # five B-splines sum to one: centered, four of them span the block
        assert location_columns(design).shape == (80, 4)
        assert np.max(np.abs(location_columns(design).mean(axis=0))) < 1e-14
        assert [c.basis_index for c in design.layout.x_cols] == [1, 2, 3, 4]
        assert {c.basis.n_basis for c in design.layout.x_cols} == {5}


class TestSmoothColumns:
    def test_columns_carry_frozen_basis_and_training_means(self):
        # each smooth column is its B-spline less the training mean, both
        # kept on the column, and the centered block has full column rank
        rng = np.random.default_rng(6)
        a = rng.normal(size=120)
        data = _dataset_with({"a": a, "b": rng.normal(size=120)})
        spec = ModelSpec(Family("cumulative"), "locshift", (Term("b"),),
                         (Term("a", smooth=True, n_basis=6),))
        design = expand_design(data, spec)
        cols = design.layout.z_cols
        assert [c.name for c in cols] == [f"s(a).{j}" for j in range(1, 6)]
        assert all(c.source == "a" for c in cols)
        raw = bspline_basis(a, cols[0].basis)
        Z = dispersion_columns(design)
        for j, c in enumerate(cols):
            assert c.basis is cols[0].basis
            assert c.mean == pytest.approx(raw[:, c.basis_index - 1].mean(), abs=1e-15)
            assert np.array_equal(Z[:, j], raw[:, c.basis_index - 1] - c.mean)
        assert np.max(np.abs(Z.mean(axis=0))) < 1e-14
        assert np.linalg.matrix_rank(np.column_stack([np.ones(120), Z])) == 6
        assert design.layout.x_cols[0].basis is None

    def test_new_grid_uses_the_training_transform(self):
        # smooth_values evaluates the frozen basis less the training means:
        # at the training rows it reproduces the design's block, and on a
        # grid beyond them it clamps rather than re-placing knots
        rng = np.random.default_rng(8)
        data, _, _ = random_dataset(rng, n=200, k=4)
        spec = ModelSpec(Family("cumulative"), "global", (Term("v1", smooth=True, n_basis=5),))
        result = fit(spec, data)
        design = expand_design(data, spec)
        coef = result.params[result.layout.location]
        v1 = data.columns["v1"]
        assert smooth_values(result, "location", "v1", v1) == pytest.approx(
            location_columns(design) @ coef, abs=1e-12)
        lo, hi = v1.min(), v1.max()
        outside = smooth_values(result, "location", "v1", [lo - 5.0, hi + 5.0])
        assert outside == pytest.approx(smooth_values(result, "location", "v1", [lo, hi]),
                                        abs=1e-15)
