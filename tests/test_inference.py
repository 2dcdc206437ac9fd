"""Chi-square tails, LRT, the model ladder, Wald tables, and star data."""

import importlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import boundary_dataset, location_columns, random_dataset, stub_fit

from ordshift.data import OrdinalDataset
from ordshift.design import ModelSpec, Term, expand_design
from ordshift.exceptions import (
    DataError,
    InvalidInputError,
    NestingError,
    SeparationWarning,
    SpecError,
)
from ordshift.fit import fit, log_likelihood, standard_errors
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
from ordshift.report import render_report
from ordshift.simulate import simulate_dataset
from ordshift.svgplot import render_star_svg

CUM = Family("cumulative")
FIT_MODULE = importlib.import_module("ordshift.fit")

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
            df = int(rng.integers(1, 401))
            # x uniform up to 1000, and uniform on a log scale from 1e-3 to 1000
            for x in (float(rng.uniform(0, 1000)), float(10.0 ** rng.uniform(-3.0, 3.0))):
                expected = scipy_stats.chi2.sf(x, df)
                got = chisq_sf(x, df)
                assert got == pytest.approx(expected, abs=1e-8)
                if expected >= 1e-300:
                    assert got == pytest.approx(expected, rel=1e-11), (x, df)

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

    def test_quantile_upper_tail_mirrors_lower(self):
        # q = 1 - p is exact in floating point, so normal_quantile(q) and
        # -normal_quantile(1 - q) are the same quantile; an upper tail
        # solved on q itself cancels near 1
        for p in np.logspace(-12, np.log10(0.5), 200):
            q = 1.0 - p
            assert normal_quantile(q) == pytest.approx(-normal_quantile(1.0 - q), rel=1e-12)

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

    @pytest.mark.parametrize("family", [CUM, Family("adjacent")])
    def test_k3_locshift_and_catspec_are_one_model(self, family):
        # at k=3 with every variable on both sides beta + w_r * alpha
        # reparametrizes beta_r: equal parameter counts and deviances, and
        # no test between the two rows
        rng = np.random.default_rng(2)
        data, spec, _ = random_dataset(rng, n=300, k=3, family=family)
        table = model_ladder(data, spec)
        cs, ls, gl = (table.row(s) for s in ("catspec", "locshift", "global"))
        assert cs.ok and ls.ok and gl.ok
        assert cs.fit.n_params == ls.fit.n_params
        assert cs.fit.deviance == pytest.approx(ls.fit.deviance, rel=1e-9)
        assert ls.test is None and ls.error is None
        assert ls.note == ("the category-specific model reparametrized (k=3, every variable "
                           "on both sides); no test")
        assert gl.test is not None and gl.note is None

    def test_spec_error_of_the_base_terms_propagates(self):
        # the location-shift rung reads the base spec's dispersion terms: its
        # spec error is the caller's, not a failed row
        rng = np.random.default_rng(5)
        data, _, _ = random_dataset(rng, n=300, k=4)
        piled = np.where(np.arange(300) < 240, 0.0, rng.random(300))
        data = OrdinalDataset(data.y, data.k, {"v1": data.columns["v1"], "v2": piled})
        spec = ModelSpec(CUM, "locshift", (Term("v1"),), (Term("v2", smooth=True),))
        with pytest.raises(SpecError, match=r"^smooth term s\(v2, 6\): B-spline columns"):
            model_ladder(data, spec)

    def test_data_error_propagates(self):
        # an unobserved category fails every rung alike: the data's error
        rng = np.random.default_rng(6)
        data, spec, _ = random_dataset(rng, n=100, k=4)
        y = np.where(data.y == 2, 1, data.y)
        with pytest.raises(DataError, match=r"^response categories \[2\] are unobserved"):
            model_ladder(OrdinalDataset(y, 4, data.columns), spec)

    def test_one_fit_per_rung(self, monkeypatch):
        # a failed warm category-specific fit is the row's fit: on this data
        # it stops at the threshold-order boundary, and no refit follows
        import ordshift.inference as inference

        data, spec = boundary_dataset()
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("start"))
            return fit(*args, **kwargs)

        monkeypatch.setattr(inference, "fit", counted)
        table = model_ladder(data, spec)
        assert len(calls) == 3
        assert calls[2] is not None  # the warm start from the constraint map
        row = table.row("catspec")
        assert row.error == "fit failed (did not converge)"
        assert row.fit.warnings == ["did not converge", "stopped at the threshold-order boundary"]
        warm = fit(spec.with_structure("catspec"), data, start=calls[2])
        assert np.array_equal(row.fit.params, warm.params)
        assert table.row("locshift").ok and table.row("global").ok

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
        layout = expand_design(data, catspec).layout
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
                index = layout.location.start + (r - 1) * layout.p + j
                assert start[index] == beta + w[r - 1] * alpha
        # the constraint map reproduces the location-shift fit exactly
        assert log_likelihood(start, data, catspec) == pytest.approx(ls.loglik, abs=1e-9)

    def test_max_iter_caps_every_fit(self, monkeypatch):
        rng = np.random.default_rng(8)
        data, spec, _ = random_dataset(rng, n=200, k=4)
        monkeypatch.setattr(FIT_MODULE, "MAX_ITER", 1)
        table = model_ladder(data, spec)
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


class TestDeferredCovariance:
    """A fit computes its covariance the first time it is read: the model
    comparisons read deviances alone, and never compute one."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        inner = FIT_MODULE._covariance

        def counting(info):
            calls.append(info.shape)
            return inner(info)

        monkeypatch.setattr(FIT_MODULE, "_covariance", counting)
        return calls

    @staticmethod
    def _ladder():
        data, spec, _ = random_dataset(np.random.default_rng(21), n=300, k=4)
        ladder = model_ladder(data, spec)
        assert [row.ok for row in ladder.rows] == [True, True, True]
        return data, spec, ladder

    def test_model_comparisons_compute_none(self, calls):
        data, spec, ladder = self._ladder()
        smooth = replace(spec, location=(Term("v1", smooth=True, n_basis=5), Term("v2")))
        tests = smooth_term_tests(data, smooth, "v1")
        assert set(tests) == {"drop", "linear"}
        assert calls == []

    def test_wald_table_read_twice_computes_one(self, calls):
        data, spec, _ = random_dataset(np.random.default_rng(22), n=200, k=4)
        result = fit(spec, data)
        assert calls == []
        first, second = wald_table(result), wald_table(result)
        assert calls == [(7, 7)]
        assert [row.se for row in first.rows] == [row.se for row in second.rows]

    def test_report_computes_one_per_rung(self, calls):
        _, _, ladder = self._ladder()
        fits = [row.fit for row in ladder.rows]
        render_report(ladder, fits)
        assert len(calls) == 3


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

    def test_interval_beyond_float_range_excluded_with_notice(self):
        # v1's upper location end overflows e^x, v2's lower one underflows
        # to 0.0: neither can be drawn on a log axis, so both are excluded
        # by name and the plot of what is left has finite coordinates
        result = self._dual_fit()
        layout, cov = result.layout, result.covariance
        v1, v2 = layout.location_index("v1"), layout.location_index("v2")
        result.params[v1], cov[v1, v1] = 0.0, 400.0**2
        result.params[v2], cov[v2, v2] = -400.0, 200.0**2
        with pytest.warns(UserWarning) as caught:
            points = star_data(result)
        assert points == []
        assert [str(w.message) for w in caught] == [
            f"{name!r} has a confidence interval beyond the floating-point range; "
            "excluded from star data" for name in ("v1", "v2")]
        svg = render_star_svg(points)
        assert "inf" not in svg and "nan" not in svg

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
        # n_basis=4 gives 3 free smooth coefficients, one of them the linear trend
        assert tests["drop"].df == 3
        assert tests["linear"].df == 2
        assert tests["drop"].p_value < 0.01
        assert tests["linear"].p_value < 0.05

    def test_smooth_only_fit_is_identified(self):
        # an adjacent global s(x) fit with a sine truth: the centered smooth
        # block has full column rank, so every standard error is finite, no
        # coefficient drifts along a null direction, and the tests' df are
        # the ranks of the design blocks they add
        rng = np.random.default_rng(3)
        n = 300
        x = rng.uniform(-2.0, 2.0, n)
        latent = 1.5 * np.sin(1.5 * x) + rng.logistic(size=n)
        y = 1 + (latent[:, None] > np.array([-1.0, 0.0, 1.0])).sum(axis=1)
        data = OrdinalDataset(y=y, k=4, columns={"x": x})
        spec = ModelSpec(Family("adjacent"), "global", (Term("x", smooth=True, n_basis=6),))
        with warnings.catch_warnings():
            warnings.simplefilter("error", SeparationWarning)
            result = fit(spec, data)
            tests = smooth_term_tests(data, spec, "x")
        assert result.converged
        assert result.warnings == []
        assert np.all(np.isfinite(standard_errors(result)))
        X = location_columns(expand_design(data, spec))
        rank = np.linalg.matrix_rank(np.column_stack([np.ones(n), X])) - 1
        assert rank == X.shape[1] == 5
        assert tests["drop"].df == rank
        assert tests["linear"].df == rank - np.linalg.matrix_rank(x[:, None])

    def test_max_iter_reaches_each_fit(self, monkeypatch):
        fits = []

        def recorded_fit(spec, data, **options):
            fits.append(fit(spec, data, **options))
            return fits[-1]

        monkeypatch.setattr("ordshift.inference.fit", recorded_fit)
        monkeypatch.setattr(FIT_MODULE, "MAX_ITER", 1)
        rng = np.random.default_rng(14)
        data, _, _ = random_dataset(rng, n=300, k=4)
        spec = ModelSpec(CUM, "locshift", (Term("v1", smooth=True, n_basis=4), Term("v2")),
                         (Term("v2"),))
        # one iteration converges none of the three fits, so lrt rejects them
        with pytest.raises(NestingError):
            smooth_term_tests(data, spec, "v1")
        assert [(r.iterations, r.converged) for r in fits] == [(1, False)] * 3

    def test_requires_smooth_term(self):
        rng = np.random.default_rng(13)
        data, spec, _ = random_dataset(rng, n=100, k=4)
        with pytest.raises(SpecError):
            smooth_term_tests(data, spec, "v1")
