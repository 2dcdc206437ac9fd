"""Chi-square tails, LRT, the model ladder, Wald tables, and star data."""

import math

import numpy as np
import pytest

from helpers import random_dataset, stub_fit

from ordshift.data import OrdinalDataset
from ordshift.design import ModelSpec, Term, expand_design, make_layout
from ordshift.exceptions import InvalidInputError, NestingError, SpecError
from ordshift.fit import fit, log_likelihood
from ordshift.inference import (
    _catspec_start,
    chisq_sf,
    lrt,
    model_ladder,
    normal_cdf,
    normal_quantile,
    smooth_term_tests,
    star_data,
    wald_table,
)
from ordshift.links import Family, scaling_factors
from ordshift.simulate import simulate_dataset

CUM = Family("cumulative")

# frozen from an independent chi-square survival oracle (scipy.stats.chi2.sf)
CHISQ_ORACLE = {
    (73.89, 63): 0.16405645475708205,
    (6.75, 12): 0.8736827365527401,
    (74.36, 63): 0.15493725701160055,
    (18.34, 12): 0.10575018629588237,
    (3.8415, 1): 0.049998772071222324,
    (250.0, 200): 0.009379131668826098,
    (950.0, 11): 1.0977684981938153e-196,
}

Z_975 = 1.959963984540054
Z_95 = 1.6448536269514722
Z_995 = 2.5758293035489004


class TestChisqSf:
    def test_zero_statistic(self):
        for df in (1, 5, 63, 200):
            assert chisq_sf(0.0, df) == 1.0

    def test_paper_table_values(self):
        assert chisq_sf(73.89, 63) == pytest.approx(0.1640, abs=5e-4)
        assert chisq_sf(6.75, 12) == pytest.approx(0.873, abs=5e-3)
        assert chisq_sf(74.36, 63) == pytest.approx(0.1549, abs=5e-4)
        assert chisq_sf(18.34, 12) == pytest.approx(0.1057, abs=5e-4)

    def test_normal_square_relationship(self):
        assert chisq_sf(3.8415, 1) == pytest.approx(0.0500, abs=1e-4)

    def test_against_frozen_oracle(self):
        for (x, df), expected in CHISQ_ORACLE.items():
            assert chisq_sf(x, df) == pytest.approx(expected, rel=1e-10, abs=1e-200)

    def test_accuracy_grid(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(0)
        for _ in range(300):
            df = int(rng.integers(1, 201))
            x = float(rng.uniform(0, 1000))
            assert chisq_sf(x, df) == pytest.approx(
                scipy_stats.chi2.sf(x, df), abs=1e-8
            )

    def test_monotone_in_x(self):
        grid = np.linspace(0.0, 60.0, 100)
        values = [chisq_sf(x, 10) for x in grid]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_increasing_in_df(self):
        values = [chisq_sf(20.0, df) for df in range(1, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            chisq_sf(-1.0, 5)
        with pytest.raises(InvalidInputError):
            chisq_sf(1.0, 0)
        with pytest.raises(InvalidInputError):
            chisq_sf(float("nan"), 3)


class TestNormalHelpers:
    def test_quantile_constants(self):
        assert normal_quantile(0.975) == pytest.approx(Z_975, abs=1e-9)
        assert normal_quantile(0.95) == pytest.approx(Z_95, abs=1e-9)
        assert normal_quantile(0.995) == pytest.approx(Z_995, abs=1e-9)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_quantile_cdf_round_trip(self):
        for p in (0.001, 0.05, 0.3, 0.5, 0.77, 0.999):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)

    def test_cdf_symmetry(self):
        for z in (0.1, 1.0, 2.5):
            assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-15)

    def test_quantile_domain(self):
        with pytest.raises(InvalidInputError):
            normal_quantile(0.0)
        with pytest.raises(InvalidInputError):
            normal_quantile(1.0)


class TestLrt:
    def test_statistic_and_p(self):
        nested = stub_fit(10, deviance=9899.67)
        full = stub_fit(73, deviance=9825.78)
        result = lrt(nested, full)
        assert result.statistic == pytest.approx(73.89, abs=1e-9)
        assert result.df == 63
        assert result.p_value == pytest.approx(0.1640, abs=5e-4)

    def test_strong_rejection_pair(self):
        result = lrt(stub_fit(9, deviance=9948.99), stub_fit(18, deviance=9899.67))
        assert result.statistic == pytest.approx(49.32, abs=1e-9)
        assert result.df == 9
        assert result.p_value < 5e-5  # renders as 0.0000

    def test_identical_deviances(self):
        result = lrt(stub_fit(5, deviance=100.0), stub_fit(8, deviance=100.0))
        assert result.statistic == 0.0
        assert result.df == 3
        assert result.p_value == 1.0

    def test_small_negative_clamped(self):
        result = lrt(stub_fit(5, deviance=100.0), stub_fit(8, deviance=100.0 + 1e-8))
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_negative_beyond_tolerance(self):
        with pytest.raises(NestingError):
            lrt(stub_fit(5, deviance=100.0), stub_fit(8, deviance=100.1))

    def test_non_converged_rejected(self):
        with pytest.raises(NestingError):
            lrt(stub_fit(5, converged=False), stub_fit(8))

    def test_family_mismatch_rejected(self):
        with pytest.raises(NestingError):
            lrt(stub_fit(5), stub_fit(8, family=Family("adjacent")))

    def test_equal_sizes_rejected(self):
        with pytest.raises(NestingError):
            lrt(stub_fit(8), stub_fit(8))

    def test_recentering_leaves_statistic(self):
        rng = np.random.default_rng(23)
        data, spec, _ = random_dataset(rng, n=200, k=4)
        shifted = OrdinalDataset(
            y=data.y, k=data.k,
            columns={n: c + 5.0 for n, c in data.columns.items()},
        )
        t1 = lrt(fit(spec.with_structure("global"), data), fit(spec, data))
        t2 = lrt(fit(spec.with_structure("global"), shifted), fit(spec, shifted))
        assert t1.statistic == pytest.approx(t2.statistic, abs=1e-8)


class TestModelLadder:
    def test_three_rows_and_df_consistency(self):
        rng = np.random.default_rng(1)
        data, spec, _ = random_dataset(rng, n=400, k=5)
        table = model_ladder(data, spec)
        assert [r.structure for r in table.rows] == ["catspec", "locshift", "global"]
        assert all(r.ok for r in table.rows)
        devs = [r.fit.deviance for r in table.rows]
        assert devs[0] <= devs[1] + 1e-6 <= devs[2] + 2e-6
        for prev, row in zip(table.rows, table.rows[1:]):
            assert row.test is not None
            assert row.test.df == row.fit.df_residual - prev.fit.df_residual
            assert row.test.statistic == pytest.approx(
                row.fit.deviance - prev.fit.deviance, abs=1e-9
            )

    def test_survey_shaped_df_column(self):
        # 3 covariates on both sides, n=2036, k=7: residual df follow
        # n(k-1) - p with p = (k-1)+(k-1)p_x, (k-1)+p_x+m, (k-1)+p_x
        rng = np.random.default_rng(3)
        n = 2036
        columns = {f"v{j}": rng.normal(size=n) * 0.5 for j in range(1, 4)}
        terms = tuple(Term(f"v{j}") for j in range(1, 4))
        spec = ModelSpec(CUM, "locshift", terms, terms)
        q = 6
        params = np.concatenate(
            [np.log(np.arange(1, 7) / (7 - np.arange(1, 7))),
             [0.3, -0.2, 0.1], [0.05, 0.0, -0.05]]
        )
        data = simulate_dataset(spec, params, columns, 7, rng)
        table = model_ladder(data, spec)
        df = {r.structure: r.fit.df_residual for r in table.rows if r.ok}
        assert df["catspec"] == 12192
        assert df["locshift"] == 12204
        assert df["global"] == 12207

    def test_failed_row_keeps_remaining_comparison(self):
        rng = np.random.default_rng(4)
        data, _, _ = random_dataset(rng, n=300, k=5)
        spec = ModelSpec(
            CUM, "locshift",
            location=(Term("v1", smooth=True, n_basis=4), Term("v2")),
            dispersion=(Term("v1"),),
        )
        table = model_ladder(data, spec)
        cs = table.row("catspec")
        assert not cs.ok
        assert "fit failed" in cs.error
        assert table.row("locshift").ok
        assert table.row("global").ok
        assert table.row("locshift").test is None
        assert table.row("global").test is not None

    @pytest.mark.parametrize("family", [CUM, Family("adjacent", reverse=True)])
    def test_catspec_start_is_constraint_map_on_catspec_layout(self, family):
        # a dispersion-only variable and a categorical on both sides: the
        # start must follow the catspec layout that expand_design builds
        rng = np.random.default_rng(6)
        n = 300
        y = rng.integers(1, 5, size=n)
        y[:4] = [1, 2, 3, 4]
        columns = {
            "a": rng.normal(size=n),
            "b": rng.normal(size=n),
            "g": rng.choice(np.array(["u", "v", "w"], dtype=object), size=n),
        }
        data = OrdinalDataset(y=y, k=4, columns=columns, categorical_levels={"g": ("u", "v", "w")})
        spec = ModelSpec(family, "locshift", (Term("a"), Term("g")), (Term("g"), Term("b")))
        ls = fit(spec, data)
        catspec = spec.with_structure("catspec")
        start = _catspec_start(ls, catspec)
        layout = make_layout(expand_design(data, catspec), catspec, data.k)
        assert start.shape == (layout.n_params,)
        assert start[:3] == pytest.approx(ls.params[:3], abs=0)
        w = scaling_factors(family, data.k)

        def coef(index, name):
            try:
                return ls.params[index(name)]
            except KeyError:
                return 0.0

        for r in range(1, 4):
            for j, col in enumerate(layout.x_cols):
                beta = coef(ls.layout.location_index, col.name)
                alpha = coef(ls.layout.dispersion_index, col.name)
                assert start[layout.catspec_block(r).start + j] == beta + w[r - 1] * alpha
        # the constraint map reproduces the location-shift fit exactly
        assert log_likelihood(start, data, catspec) == pytest.approx(ls.loglik, abs=1e-9)

    def test_max_iter_caps_every_fit(self):
        rng = np.random.default_rng(8)
        data, spec, _ = random_dataset(rng, n=200, k=4)
        table = model_ladder(data, spec, max_iter=1)
        for row in table.rows:
            assert row.fit.iterations == 1
            assert row.error == "fit failed (did not converge)"

    def test_needs_dispersion_terms(self):
        rng = np.random.default_rng(5)
        data, spec, _ = random_dataset(rng, n=100, k=4)
        bare = ModelSpec(CUM, "locshift", spec.location, ())
        with pytest.raises(SpecError):
            model_ladder(data, bare)

    def test_level_under_global_null(self):
        # data simulated without any category-specific or dispersion effects:
        # both ladder p-values should jointly clear 0.05 in ~90% of runs
        reps, joint = 30, 0
        for rep in range(reps):
            rng = np.random.default_rng(7000 + rep)
            n, k = 2000, 5
            cols = {"a": rng.uniform(-1, 1, n), "b": (rng.random(n) < 0.5).astype(float)}
            terms = (Term("a"), Term("b"))
            gen = ModelSpec(CUM, "global", terms)
            params = np.concatenate(
                [np.log(np.arange(1, k) / (k - np.arange(1, k))), [0.5, -0.3]]
            )
            data = simulate_dataset(gen, params, cols, k, rng)
            table = model_ladder(data, ModelSpec(CUM, "locshift", terms, terms))
            tests = [r.test for r in table.rows if r.test is not None]
            if len(tests) == 2 and all(t.p_value > 0.05 for t in tests):
                joint += 1
        assert joint / reps >= 0.8  # expected ~0.90 under the null

    def test_wald_and_lrt_agree_for_single_parameter(self):
        # soft asymptotic identity: z^2 vs deviance difference for one added
        # parameter on a large sample
        rng = np.random.default_rng(6)
        data, spec, _ = random_dataset(rng, n=5000, k=4, n_cov=1)
        full = fit(spec, data)
        nested = fit(spec.with_structure("global"), data)
        test = lrt(nested, full)
        rows = wald_table(full).block("dispersion")
        assert len(rows) == 1
        assert test.statistic == pytest.approx(rows[0].z ** 2, rel=0.15)


class TestWaldTable:
    def test_blocks_and_formulas(self):
        rng = np.random.default_rng(7)
        data, spec, _ = random_dataset(rng, n=150, k=4)
        result = fit(spec, data)
        table = wald_table(result)
        assert len(table.block("threshold")) == 3
        assert len(table.block("location")) == 2
        assert len(table.block("dispersion")) == 2
        from ordshift.fit import standard_errors

        se = standard_errors(result)
        for i, row in enumerate(table.rows):
            assert row.coef == pytest.approx(result.params[i])
            assert row.z == pytest.approx(row.coef / se[i])
            assert row.p == pytest.approx(2 * normal_cdf(-abs(row.z)), abs=1e-15)

    def test_zero_coefficient(self):
        rng = np.random.default_rng(30)
        data, spec, _ = random_dataset(rng, n=120, k=4)
        result = fit(spec, data)
        idx = result.layout.location_index("v1")
        result.params[idx] = 0.0
        row = next(r for r in wald_table(result).rows if r.name == "v1" and r.block == "location")
        assert row.z == 0.0
        assert row.p == 1.0

    def test_unavailable_se_blank(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=90)
        y = rng.integers(1, 4, size=90)
        y[:3] = [1, 2, 3]
        data = OrdinalDataset(y=y, k=3, columns={"a": x, "b": x.copy()})
        spec = ModelSpec(CUM, "global", (Term("a"), Term("b")))
        result = fit(spec, data)
        rows = wald_table(result).block("location")
        assert all(math.isnan(r.se) and math.isnan(r.z) and math.isnan(r.p) for r in rows)


class TestStarData:
    def _dual_fit(self, seed=9, n=400):
        rng = np.random.default_rng(seed)
        data, spec, _ = random_dataset(rng, n=n, k=5)
        return fit(spec, data)

    def test_point_and_interval_formulas(self):
        result = self._dual_fit()
        points = star_data(result, level=0.95)
        assert [p.variable for p in points] == ["v1", "v2"]
        from ordshift.fit import standard_errors

        se = standard_errors(result)
        layout = result.layout
        for point in points:
            li = layout.location_index(point.variable)
            di = layout.dispersion_index(point.variable)
            b, a = result.params[li], result.params[di]
            assert point.loc == pytest.approx(math.exp(b))
            assert point.disp == pytest.approx(math.exp(a))
            assert point.loc_lo == pytest.approx(math.exp(b - Z_975 * se[li]), rel=1e-9)
            assert point.loc_hi == pytest.approx(math.exp(b + Z_975 * se[li]), rel=1e-9)
            assert 0 < point.loc_lo <= point.loc <= point.loc_hi
            assert 0 < point.disp_lo <= point.disp <= point.disp_hi

    def test_survey_style_interval(self):
        # location coef -0.327 with se 0.075 must give the published star arm
        result = self._dual_fit()
        layout = result.layout
        li = layout.location_index("v1")
        di = layout.dispersion_index("v1")
        result.params[li], result.params[di] = -0.327, 0.0
        cov = result.covariance
        cov[li, li], cov[di, di] = 0.075**2, 0.02**2
        points = star_data(result, level=0.95)
        v1 = points[0]
        assert v1.loc == pytest.approx(0.72108, abs=1e-4)
        assert v1.loc_lo == pytest.approx(0.6225, abs=1e-3)
        assert v1.loc_hi == pytest.approx(0.8353, abs=1e-3)
        assert v1.disp == 1.0  # alpha = 0 maps to exactly 1

    def test_zero_se_degenerate(self):
        result = self._dual_fit()
        li = result.layout.location_index("v1")
        result.covariance[li, :] = 0.0
        result.covariance[:, li] = 0.0
        point = star_data(result)[0]
        assert point.loc_lo == point.loc == point.loc_hi

    def test_narrower_level_nested(self):
        result = self._dual_fit()
        wide = {p.variable: p for p in star_data(result, level=0.95)}
        narrow = {p.variable: p for p in star_data(result, level=0.90)}
        for name, p90 in narrow.items():
            p95 = wide[name]
            assert p95.loc_lo < p90.loc_lo < p90.loc_hi < p95.loc_hi
            assert p95.disp_lo < p90.disp_lo < p90.disp_hi < p95.disp_hi

    def test_single_effect_excluded_with_notice(self):
        rng = np.random.default_rng(10)
        data, _, _ = random_dataset(rng, n=200, k=4, n_cov=2)
        spec = ModelSpec(
            CUM, "locshift", (Term("v1"), Term("v2")), (Term("v1"),)
        )
        result = fit(spec, data)
        with pytest.warns(UserWarning, match="only a location effect"):
            points = star_data(result)
        assert [p.variable for p in points] == ["v1"]

    def test_requires_locshift(self):
        rng = np.random.default_rng(11)
        data, spec, _ = random_dataset(rng, n=100, k=4)
        result = fit(spec.with_structure("global"), data)
        with pytest.raises(SpecError):
            star_data(result)

    def test_level_validation(self):
        with pytest.raises(InvalidInputError):
            star_data(self._dual_fit(), level=1.5)


class TestSmoothTermTests:
    def test_both_baselines_exposed(self):
        rng = np.random.default_rng(12)
        n = 700
        x = rng.uniform(-2, 2, size=n)
        z = rng.uniform(-1, 1, size=n)
        spec_true = ModelSpec(CUM, "locshift", (Term("x"),), (Term("z"),))
        params = np.concatenate([[-1.2, -0.3, 0.5, 1.4], [0.0], [0.2]])
        probs_data = simulate_dataset(spec_true, params, {"x": x, "z": z}, 5, rng)
        # quadratic location effect injected by resimulating with x^2 channel
        spec_q = ModelSpec(CUM, "locshift", (Term("x"), Term("x2")), (Term("z"),))
        params_q = np.concatenate([[-1.2, -0.3, 0.5, 1.4], [0.0, 0.6], [0.2]])
        data = simulate_dataset(
            spec_q, params_q, {"x": x, "x2": x * x, "z": z}, 5, rng
        )
        spec = ModelSpec(
            CUM, "locshift", (Term("x", smooth=True, n_basis=4),), (Term("z"),)
        )
        tests = smooth_term_tests(data, spec, "x", side="location")
        assert tests["drop"].df == 4
        assert tests["linear"].df == 3
        assert tests["drop"].p_value < 0.01
        assert tests["linear"].p_value < 0.05

    def test_max_iter_reaches_each_fit(self, monkeypatch):
        fits = []

        def recorded_fit(spec, data, **options):
            fits.append((options, fit(spec, data, **options)))
            return fits[-1][1]

        monkeypatch.setattr("ordshift.inference.fit", recorded_fit)
        rng = np.random.default_rng(14)
        data, _, _ = random_dataset(rng, n=300, k=4)
        spec = ModelSpec(CUM, "locshift", (Term("v1", smooth=True, n_basis=4), Term("v2")),
                         (Term("v2"),))
        # one iteration converges none of the three fits, so lrt rejects them
        with pytest.raises(NestingError):
            smooth_term_tests(data, spec, "v1", max_iter=1)
        assert [options for options, _ in fits] == [{"max_iter": 1}] * 3
        assert [(r.iterations, r.converged) for _, r in fits] == [(1, False)] * 3

    def test_requires_smooth_term(self):
        rng = np.random.default_rng(13)
        data, spec, _ = random_dataset(rng, n=100, k=4)
        with pytest.raises(SpecError):
            smooth_term_tests(data, spec, "v1")
