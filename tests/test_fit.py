"""Likelihood, score, information, and the Fisher-scoring optimizer."""

import functools
import importlib
import tracemalloc
import zlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    boundary_dataset,
    category_probabilities,
    dispersion_columns,
    empirical_start,
    fd_gradient,
    fd_hessian,
    feasible_params,
    kernel_predictors,
    location_columns,
    logistic_density,
    nelder_mead_loglik,
    random_dataset,
    stub_fit,
)

from ordshift.data import OrdinalDataset
from ordshift.design import (
    ModelSpec,
    Term,
    build_design_tensor,
    design_columns,
    expand_design,
)
from ordshift.exceptions import (
    DataError,
    InvalidInputError,
    SeparationWarning,
    SpecError,
    StartError,
    ThresholdOrderError,
    ZeroProbabilityWarning,
)
from ordshift.fit import (
    WEIGHT_FLOOR,
    _compile,
    _Problem,
    fisher_info,
    fit,
    log_likelihood,
    predict,
    score,
    smooth_values,
    standard_errors,
)
from ordshift.links import Family, category_probs, logistic
from ordshift.simulate import simulate_dataset
from ordshift.splines import bspline_basis

CUM = Family("cumulative")
ADJ = Family("adjacent")
# the module itself: the package's ``fit`` attribute is the fit function
FIT_MODULE = importlib.import_module("ordshift.fit")

# frozen: sum of n_r * log(n_r / 60) for counts (10, 20, 30)
MULTINOMIAL_LL_10_20_30 = -60.68425588244111
LOGIT_ONE_SIXTH = -1.6094379124341003


def _counts_data(counts, columns=None):
    y = np.repeat(np.arange(1, len(counts) + 1), counts)
    return OrdinalDataset(y=y, k=len(counts), columns=columns or {})


def _intercept_spec(family=CUM):
    return ModelSpec(family, "global", location=())


def _case_rng(*case):
    """Generator seeded from a parametrized case; unlike hash() of strings,
    the seed is the same in every process."""
    return np.random.default_rng(zlib.crc32(repr(case).encode()))


class TestLogLikelihood:
    def test_binary_intercept_half(self):
        data = OrdinalDataset(y=np.array([1]), k=2, columns={})
        value = log_likelihood([0.0], data, _intercept_spec())
        assert value == pytest.approx(np.log(0.5), abs=1e-15)

    def test_multinomial_closed_form(self):
        data = _counts_data([10, 20, 30])
        params = [LOGIT_ONE_SIXTH, 0.0]  # logit(10/60), logit(30/60)
        value = log_likelihood(params, data, _intercept_spec())
        assert value == pytest.approx(MULTINOMIAL_LL_10_20_30, abs=1e-9)

    def test_zero_probability_floor_flagged(self):
        data = _counts_data([5, 3, 4])
        with pytest.warns(ZeroProbabilityWarning):
            value = log_likelihood([0.0, 0.0], data, _intercept_spec())
        # the 3 middle observations sit in a zero-width band at the 1e-15 floor
        assert value == pytest.approx(9 * np.log(0.5) + 3 * np.log(1e-15), rel=1e-6)

    def test_ordering_violation_propagates(self):
        data = _counts_data([5, 3, 4])
        with pytest.raises(ThresholdOrderError):
            log_likelihood([1.0, -1.0], data, _intercept_spec())

    def test_dimension_mismatch(self):
        data = _counts_data([5, 3, 4])
        with pytest.raises(SpecError):
            log_likelihood([0.0], data, _intercept_spec())


class TestScore:
    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    @pytest.mark.parametrize("structure", ["global", "locshift", "catspec"])
    def test_matches_finite_differences(self, kind, structure):
        rng = _case_rng(kind, structure)
        data, base, _ = random_dataset(rng, n=40, k=4, family=Family(kind))
        spec = base.with_structure(structure)
        layout = expand_design(data, spec).layout
        for _ in range(4):
            theta = feasible_params(rng, layout, spec, data)
            analytic = score(theta, data, spec)
            numeric = fd_gradient(lambda t: log_likelihood(t, data, spec), theta)
            scale = np.maximum(np.abs(numeric), 1.0)
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-6

    def test_zero_at_closed_form_mle(self):
        data = _counts_data([10, 20, 30])
        grad = score([LOGIT_ONE_SIXTH, 0.0], data, _intercept_spec())
        assert np.max(np.abs(grad)) < 1e-10

    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_reverse_spec_derivatives(self, kind):
        # the reported (reverse) parameterization must have consistent
        # analytic derivatives of its own likelihood
        rng = np.random.default_rng(71)
        data, base, _ = random_dataset(rng, n=50, k=4, family=Family(kind))
        spec = ModelSpec(Family(kind, reverse=True), "locshift", base.location, base.dispersion)
        result = fit(spec, data)
        theta = result.params
        numeric = fd_gradient(lambda t: log_likelihood(t, data, spec), theta)
        assert np.max(np.abs(score(theta, data, spec) - numeric)) < 1e-5
        if kind == "adjacent":
            info = fisher_info(theta, data, spec)
            hess = fd_hessian(lambda t: log_likelihood(t, data, spec), theta)
            assert np.abs(info + hess).max() / np.abs(info).max() < 1e-4

    def test_alpha_gradient_vanishes_with_zero_weights(self, monkeypatch):
        # k=2 edge: all scaling factors are 0, so the alpha block of the
        # score and information must vanish identically; expand_design
        # rejects dispersion terms at k=2, so a k=3 problem is compiled with
        # all-zero weights instead, its shape's record made afresh under
        # the patched scaling factors and dropped afterwards
        rng = np.random.default_rng(4)
        n = 30
        y = rng.integers(1, 4, size=n)
        y[:3] = [1, 2, 3]
        data = OrdinalDataset(y=y, k=3, columns={"z": rng.normal(size=n)})
        monkeypatch.setattr(FIT_MODULE, "scaling_factors", lambda family, k: np.zeros(k - 1))
        FIT_MODULE._shape.cache_clear()
        try:
            problem = _compile(data, ModelSpec(CUM, "locshift", (), (Term("z"),)))
            assert np.all(problem.shape.w == 0.0)
            _, s, info = problem.evaluate(np.array([-0.3, 0.4, 1.7]))
        finally:
            FIT_MODULE._shape.cache_clear()
        assert s[2] == 0.0
        assert np.all(info[2, :] == 0.0)
        assert np.all(info[:, 2] == 0.0)


class TestFisherInfo:
    def test_symmetry(self):
        rng = np.random.default_rng(21)
        data, spec, params = random_dataset(rng, n=80, k=5)
        info = fisher_info(params, data, spec)
        assert np.max(np.abs(info - info.T)) < 1e-10

    def test_binary_closed_form(self):
        # one-covariate binary logit: I = sum f_i [1, x; x, x^2]
        rng = np.random.default_rng(2)
        x = rng.normal(size=50)
        y = (rng.random(50) < 0.5).astype(int) + 1
        data = OrdinalDataset(y=y, k=2, columns={"x": x})
        spec = ModelSpec(CUM, "global", (Term("x"),))
        theta = np.array([0.4, -0.8])
        p = 1 / (1 + np.exp(-(theta[0] + x * theta[1])))
        f = p * (1 - p)
        expected = np.array(
            [[f.sum(), (f * x).sum()], [(f * x).sum(), (f * x * x).sum()]]
        )
        assert fisher_info(theta, data, spec) == pytest.approx(expected, rel=1e-10)

    def test_adjacent_equals_negative_hessian(self):
        # canonical link: expected and observed information coincide exactly
        rng = np.random.default_rng(31)
        data, base, _ = random_dataset(rng, n=60, k=4, family=ADJ)
        result = fit(base, data)
        info = fisher_info(result.params, data, base)
        hess = fd_hessian(lambda t: log_likelihood(t, data, base), result.params)
        rel = np.abs(info + hess).max() / np.abs(info).max()
        assert rel < 1e-4

    def test_saturated_cumulative_equals_negative_hessian(self):
        data = _counts_data([12, 25, 23])
        spec = _intercept_spec()
        result = fit(spec, data)
        info = fisher_info(result.params, data, spec)
        hess = fd_hessian(lambda t: log_likelihood(t, data, spec), result.params)
        rel = np.abs(info + hess).max() / np.abs(info).max()
        assert rel < 1e-4

    def test_cumulative_matches_multinomial_covariance_form(self):
        # independent assembly: I = sum_i D_i' (Delta' Sigma^{-1} Delta) D_i
        rng = np.random.default_rng(8)
        data, spec, params = random_dataset(rng, n=40, k=4)
        design = expand_design(data, spec)
        D, layout = build_design_tensor(design, spec), design.layout
        eta = D @ params
        f = logistic_density(eta)
        gamma = logistic(eta)
        probs = np.diff(
            np.concatenate(
                [np.zeros((40, 1)), gamma, np.ones((40, 1))], axis=1
            ),
            axis=1,
        )
        expected = np.zeros((layout.n_params, layout.n_params))
        q = data.k - 1
        for i in range(40):
            delta = np.zeros((q, q))  # d pi_(1..q) / d eta
            for c in range(q):
                delta[c, c] = f[i, c]
                if c > 0:
                    delta[c, c - 1] = -f[i, c - 1]
            sigma = np.diag(probs[i, :q]) - np.outer(probs[i, :q], probs[i, :q])
            w = delta.T @ np.linalg.solve(sigma, delta)
            expected += D[i].T @ w @ D[i]
        assert fisher_info(params, data, spec) == pytest.approx(expected, rel=1e-8)
        problem = _compile(data, spec)
        assert kernel_predictors(problem, params).T == pytest.approx(eta, rel=1e-12)
        _, _, info = problem.evaluate(params)
        assert info == pytest.approx(expected, rel=1e-8)


def _dense_score_info(problem, data, theta):
    """Dense oracle of the structured kernel at canonical ``theta``.

    Builds A[i, c, r] = d log pi_c / d eta_r entry by entry and contracts it
    with the (n, k-1, n_params) design tensor: score sum_i D_i' A[i, y_i] and
    information sum_i D_i' (sum_c pi_c A_c A_c') D_i. The tensor is built
    from union columns made from the layout on ``data``, not read from the
    problem's union design.
    """
    layout = problem.layout
    spec = ModelSpec(problem.family, layout.structure)
    union = SimpleNamespace(U=design_columns(layout.union_cols, data), layout=layout)
    D = build_design_tensor(union, spec)
    eta = D @ theta
    probs = category_probs(problem.family, eta.T).T
    n, k = probs.shape
    q = k - 1
    A = np.zeros((n, k, q))
    if problem.family.kind == "cumulative":
        f = logistic_density(eta)
        floored = np.maximum(probs, WEIGHT_FLOOR)
        for r in range(q):
            A[:, r, r] = f[:, r] / floored[:, r]
            A[:, r + 1, r] = -f[:, r] / floored[:, r + 1]
    else:
        for c in range(k):
            for r in range(q):
                A[:, c, r] = float(c > r) - probs[:, r + 1:].sum(axis=1)
    u = A[np.arange(n), problem.y0]
    score_vec = np.einsum("nr,nrp->p", u, D)
    W = np.einsum("nc,ncr,ncs->nrs", probs, A, A)
    info = np.einsum("nrp,nrs,nsq->pq", D, W, D)
    return eta, score_vec, info


def _max_rel(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


class TestKernelParity:
    """The structured score/information kernel against the dense oracle."""

    @pytest.mark.parametrize("structure", ["global", "locshift", "catspec"])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_matches_dense_oracle(self, kind, reverse, structure):
        rng = _case_rng(kind, reverse, structure)
        data, base, _ = random_dataset(rng, n=60, k=5, family=Family(kind))
        self._check(rng, data, ModelSpec(
            Family(kind, reverse), structure, base.location, base.dispersion
        ))

    def test_smooth_locshift_matches_dense_oracle(self):
        rng = np.random.default_rng(61)
        data, base, _ = random_dataset(rng, n=200, k=4)
        loc = (Term("v1", smooth=True, n_basis=5), Term("v2"))
        self._check(rng, data, ModelSpec(CUM, "locshift", loc, base.dispersion))

    @pytest.mark.parametrize(
        "k, structure",
        # k=2 has one threshold: the cumulative off-diagonal band is empty
        # and dispersion terms are not identified
        [(2, "global"), (2, "catspec"), (3, "global"), (3, "locshift"), (3, "catspec")],
    )
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_few_categories_match_dense_oracle(self, kind, reverse, k, structure):
        rng = _case_rng(kind, reverse, k, structure)
        n = 60
        columns = {"v1": rng.normal(size=n), "v2": rng.normal(size=n)}
        y = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
        data = OrdinalDataset(y=y, k=k, columns=columns)
        terms = (Term("v1"), Term("v2"))
        dispersion = terms[:1] if structure == "locshift" else ()
        self._check(rng, data, ModelSpec(Family(kind, reverse), structure, terms, dispersion))

    @pytest.mark.parametrize("structure", ["global", "locshift", "catspec"])
    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_floored_weights_match_dense_oracle(self, kind, structure):
        # a few observations far out on v1 push category probabilities below
        # WEIGHT_FLOOR, so the cumulative weights use the floored values; each
        # of them is observed in its least likely category, so the score's
        # own-category probability is floored as well
        rng = np.random.default_rng(62)
        n, k = 80, 4
        v1 = rng.normal(size=n)
        v1[:6] = [40.0, 45.0, 50.0, -40.0, -45.0, -50.0]
        y = np.concatenate([[1, 1, 1, k, k, k], rng.integers(1, k + 1, n - 6)])
        y[6:6 + k] = np.arange(1, k + 1)
        data = OrdinalDataset(y=y, k=k, columns={"v1": v1, "v2": rng.normal(size=n)})
        terms = (Term("v1"), Term("v2"))
        spec = ModelSpec(Family(kind), structure, terms,
                         terms[1:] if structure == "locshift" else ())
        problem = _compile(data, spec)
        theta = np.zeros(problem.layout.n_params)
        theta[:k - 1] = [-1.0, 0.0, 1.0] if kind == "cumulative" else 0.2
        sign = -1.0 if kind == "cumulative" else 1.0  # toward category k at v1 = 40
        if structure == "catspec":
            # threshold r's location block is the r-th p-wide slice of the location block
            blocks = theta[problem.layout.location].reshape(k - 1, 2)
            blocks[:] = [[sign, 0.1], [sign, -0.1], [sign, 0.2]]
        else:
            theta[problem.layout.location] = [sign, 0.3]
        assert category_probabilities(theta, data, spec).min() < WEIGHT_FLOOR
        self._check_at(problem, data, spec, theta)

    @pytest.mark.parametrize("structure", ["global", "locshift", "catspec"])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_row_blocks_match_dense_oracle(self, monkeypatch, kind, reverse, structure):
        # blocks of 7 rows over n=60: eight full blocks and a ragged one of 4
        monkeypatch.setattr(FIT_MODULE, "BLOCK_ROWS", 7)
        rng = _case_rng("blocks", kind, reverse, structure)
        data, base, _ = random_dataset(rng, n=60, k=5, family=Family(kind))
        spec = ModelSpec(Family(kind, reverse), structure, base.location, base.dispersion)
        blocks = _compile(data, spec).blocks
        assert [b.stop - b.start for b in blocks] == [7] * 8 + [4]
        self._check(rng, data, spec)

    @classmethod
    def _check(cls, rng, data, spec):
        problem = _compile(data, spec)
        # canonical parameters are feasible exactly when they are feasible
        # for the forward spec on the original data (only eta's order counts)
        forward = ModelSpec(Family(spec.family.kind), spec.structure, spec.location,
                            spec.dispersion)
        for _ in range(3):
            theta = feasible_params(rng, problem.layout, forward, data)
            cls._check_at(problem, data, spec, theta)

    @staticmethod
    def _check_at(problem, data, spec, theta):
        eta, dense_s, dense_info = _dense_score_info(problem, data, theta)
        deviance, s, info = problem.evaluate(theta)
        assert deviance == -2.0 * problem.loglik(theta)[0]
        assert _max_rel(kernel_predictors(problem, theta).T, eta) <= 1e-12
        assert _max_rel(s, dense_s) <= 1e-12
        assert _max_rel(info, dense_info) <= 1e-12
        assert np.array_equal(info, info.T)
        assert score(theta[problem.shape.perm], data, spec) == pytest.approx(
            s[problem.shape.perm], rel=1e-12, abs=1e-12
        )


class TestUnionDesign:
    """Every structure is fitted on one union design, in which a dispersion
    column joins a location column only when both are the same frozen
    transform: s(v, 6) and s(v, 5) share column names, not bases."""

    @staticmethod
    def _data():
        rng = np.random.default_rng(63)
        n = 150
        v = rng.uniform(-2.0, 2.0, n)
        g = rng.choice(np.array(["a", "b", "c"], dtype=object), n)
        x, z = rng.normal(size=n), rng.normal(size=n)
        latent = np.sin(v) + 0.4 * x + (g == "b") + rng.logistic(size=n) * np.exp(0.2 * z)
        y = 1 + (latent[:, None] > np.array([-1.0, 0.2, 1.2])).sum(axis=1)
        return OrdinalDataset(y=y, k=4, columns={"v": v, "g": g, "x": x, "z": z},
                              categorical_levels={"g": ("a", "b", "c")})

    @pytest.mark.parametrize("block_rows", [4096, 16])
    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    @pytest.mark.parametrize("dispersion_basis", [5, 6])
    def test_same_name_other_basis_stays_apart(self, monkeypatch, kind, dispersion_basis,
                                               block_rows):
        monkeypatch.setattr(FIT_MODULE, "BLOCK_ROWS", block_rows)
        data = self._data()
        location = (Term("v", smooth=True, n_basis=6), Term("g"), Term("x"))
        dispersion = (Term("v", smooth=True, n_basis=dispersion_basis), Term("g"), Term("z"))
        spec = ModelSpec(Family(kind), "locshift", location, dispersion)
        design = expand_design(data, spec)
        layout = design.layout
        shared = 5 + 2 if dispersion_basis == 6 else 2  # the dummies of g, and s(v, 6)
        assert [c.name for c in layout.z_cols[:dispersion_basis - 1]] == [
            f"s(v).{j}" for j in range(1, dispersion_basis)]
        assert design.U.shape == (150, layout.p + layout.m - shared)
        bases = {c.basis for c in layout.union_cols if c.basis is not None}
        assert len(bases) == (1 if dispersion_basis == 6 else 2)
        # the location and dispersion columns read from U through the layout
        # are the columns built alone
        assert np.array_equal(location_columns(design), design_columns(layout.x_cols, data))
        assert np.array_equal(dispersion_columns(design), design_columns(layout.z_cols, data))
        problem = _compile(data, spec)
        assert len(problem.blocks) == (1 if block_rows == 4096 else 10)
        theta = feasible_params(np.random.default_rng(64), layout, spec, data, scale=0.1)
        TestKernelParity._check_at(problem, data, spec, theta)


class TestScoreInfoEvaluations:
    """Fisher scoring makes one whole pass over the blocks at the start and
    one for each candidate step whose thresholds do not cross, and at no
    other point: the pass that accepts a step also gives its score and
    information."""

    @pytest.mark.parametrize(
        "kind, structure, options",
        [
            ("cumulative", "locshift", {}),
            ("adjacent", "catspec", {}),
            ("cumulative", "global", {"MAX_ITER": 2}),
            ("adjacent", "locshift", {"MAX_ITER": 0}),
        ],
    )
    def test_once_per_accepted_step(self, monkeypatch, kind, structure, options):
        rng = np.random.default_rng(88)
        data, base, _ = random_dataset(rng, n=150, k=5, family=Family(kind))
        spec = base.with_structure(structure)
        for name, value in options.items():
            monkeypatch.setattr(FIT_MODULE, name, value)
        counts = self._instrument(monkeypatch)
        result = fit(spec, data)
        self._assert_one_pass_per_candidate(counts, result)

    def test_start_at_optimum(self, monkeypatch):
        rng = np.random.default_rng(89)
        data, spec, _ = random_dataset(rng, n=150, k=5)
        optimum = fit(spec, data)
        counts = self._instrument(monkeypatch)
        result = fit(spec, data, start=optimum.params)
        assert result.converged
        self._assert_one_pass_per_candidate(counts, result)

    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_once_per_accepted_step_in_row_blocks(self, monkeypatch, kind):
        # one pass per candidate, each block's weights loaded once in it
        monkeypatch.setattr(FIT_MODULE, "BLOCK_ROWS", 16)
        rng = np.random.default_rng(90)
        data, spec, _ = random_dataset(rng, n=150, k=5, family=Family(kind))
        counts = self._instrument(monkeypatch)
        result = fit(spec, data)
        self._assert_one_pass_per_candidate(counts, result)

    @pytest.mark.parametrize("block_rows", [4096, 16])
    def test_rejected_candidates(self, monkeypatch, block_rows):
        # from this start two steps overshoot and are rejected on their
        # deviance, each after one whole pass like any other candidate
        monkeypatch.setattr(FIT_MODULE, "BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(88)
        data, base, _ = random_dataset(rng, n=150, k=5, family=ADJ)
        counts = self._instrument(monkeypatch)
        result = fit(base, data, start=[0.3, 0.8, 0.3, -1.3, 0.9, 0.4, -0.5, 0.6])
        assert self._assert_one_pass_per_candidate(counts, result) == 2

    @staticmethod
    def _instrument(monkeypatch):
        # each feasible candidate's deviance, from the derivative-free walk
        # over the blocks, the passes that returned a result, and the blocks
        # whose weights were loaded
        counts = {"passes": 0, "loads": 0, "deviances": [], "blocks": 0}
        evaluate, loglik = _Problem.evaluate, _Problem.loglik

        def recorded_evaluate(self, theta):
            counts["blocks"] = len(self.blocks)
            counts["deviances"].append(-2.0 * loglik(self, theta)[0])
            result = evaluate(self, theta)
            counts["passes"] += 1
            assert result[0] == counts["deviances"][-1]
            return result

        monkeypatch.setattr(_Problem, "evaluate", recorded_evaluate)
        for helper in (FIT_MODULE._Tridiagonal, FIT_MODULE._Semiseparable):
            def counted_load(self, *args, load=helper.load):
                counts["loads"] += 1
                return load(self, *args)

            monkeypatch.setattr(helper, "load", counted_load)
        return counts

    @staticmethod
    def _assert_one_pass_per_candidate(counts, result):
        # replay the acceptance rule over the start and candidate deviances:
        # a candidate is accepted when its deviance does not exceed the
        # current one, and halving stops at the first accepted candidate;
        # the last accepted deviance is the fit's. Returns the number of
        # feasible candidates rejected
        current, *candidates = counts["deviances"]
        accepted = 0
        for dev in candidates:
            if dev <= current:
                accepted += 1
                current = dev
        assert current == result.deviance
        # every feasible candidate is one whole pass, which loads each
        # block's weights once; a crossing raises before the pass returns
        assert counts["passes"] == len(counts["deviances"])
        assert counts["loads"] == counts["passes"] * counts["blocks"]
        return len(candidates) - accepted


class TestRowBlocks:
    """Evaluation over several row blocks, the last one ragged, reproduces
    the single-block evaluation."""

    @pytest.mark.parametrize("structure", ["global", "locshift", "catspec"])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_fit_matches_single_block(self, monkeypatch, kind, reverse, structure):
        rng = _case_rng("fit-blocks", kind, reverse, structure)
        data, base, _ = random_dataset(rng, n=150, k=5, family=Family(kind))
        spec = ModelSpec(Family(kind, reverse), structure, base.location, base.dispersion)
        whole = fit(spec, data)
        assert len(_compile(data, spec).blocks) == 1
        monkeypatch.setattr(FIT_MODULE, "BLOCK_ROWS", 16)  # 9 blocks of 16 and one of 6
        blocked = fit(spec, data)
        assert len(_compile(data, spec).blocks) == 10
        assert blocked.iterations == whole.iterations
        assert blocked.converged == whole.converged
        # the reverse cumulative catspec case stops without converging (an
        # iteration without an accepted step, as its forward fit does); its last
        # iterate moves by 8e-10 under any reordering of the row sums, a row
        # permutation included, so it gets test_permutation_invariance's bound
        tol = 1e-10 if whole.converged else 1e-8
        assert np.max(np.abs(blocked.params - whole.params)) <= tol
        assert blocked.deviance == pytest.approx(whole.deviance, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 6])
    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_distinct_products_match_single_block(self, monkeypatch, kind, p):
        # the category-specific information contracts the threshold pairs
        # with the (p+1)(p+2)/2 distinct products of the union design
        # [1, x] and mirrors them: in blocks of 16 rows it agrees with one
        # block and the dense oracle
        rng = _case_rng("products", kind, p)
        data, base, _ = random_dataset(rng, n=150, k=5, n_cov=p, family=Family(kind))
        spec = base.with_structure("catspec")
        whole = _compile(data, spec)
        theta = feasible_params(rng, whole.layout, spec, data, scale=0.1)
        expected = whole.evaluate(theta)
        # a one-block problem holds every row's products, [1, x] first, and
        # x itself only once: its design's
        x1 = np.column_stack([np.ones(150), whole.U])
        assert np.array_equal(whole.U, location_columns(expand_design(data, spec)))
        pair_j, pair_l = np.triu_indices(p + 1)
        products = x1[:, pair_j] * x1[:, pair_l]
        assert whole._products.shape == ((p + 1) * (p + 2) // 2, 150)
        assert np.array_equal(whole._products[:p + 1].T, x1)
        assert np.array_equal(whole._products.T, products)
        monkeypatch.setattr(FIT_MODULE, "BLOCK_ROWS", 16)
        blocked = _compile(data, spec)
        assert len(blocked.blocks) == 10
        assert blocked._products.shape == ((p + 1) * (p + 2) // 2, 16)
        for new, old in zip(blocked.evaluate(theta), expected):
            assert _max_rel(new, old) <= 1e-12
        # the scratch holds the last, ragged block's products
        assert np.array_equal(blocked._products[:, :6].T, products[144:])
        TestKernelParity._check_at(blocked, data, spec, theta)

    def test_kept_cdf_gives_the_link_density(self, monkeypatch):
        monkeypatch.setattr(FIT_MODULE, "BLOCK_ROWS", 16)
        rng = np.random.default_rng(91)
        data, spec, params = random_dataset(rng, n=40, k=5)
        problem = _compile(data, spec)
        eta = kernel_predictors(problem, params)
        for rows in problem.blocks:
            expected = logistic_density(eta[:, rows])
            _, cdf, _ = problem.probabilities(params, rows)
            kept = problem.weights.density(cdf, np.empty_like(expected))
            assert np.array_equal(kept, expected)

    @staticmethod
    def _crossing_late():
        """Catspec data and parameters whose thresholds cross only in the
        last of five blocks of 8 rows: eta_2 - eta_1 = 1 - 0.6 x is negative
        only for x > 5/3, and the four rows at x >= 3 come last."""
        x = np.concatenate([np.linspace(-1.0, 1.0, 36), [3.0, 3.5, 4.0, 4.5]])
        data = OrdinalDataset(y=np.tile([1, 2, 3, 4], 10), k=4, columns={"x": x})
        return data, ModelSpec(CUM, "catspec", (Term("x"),)), [-1.0, 0.0, 1.0, 0.0, -0.6, -0.6]

    def test_threshold_order_error_in_later_block(self, monkeypatch):
        data, spec, start = self._crossing_late()
        with pytest.raises(StartError) as whole:
            fit(spec, data, start=start)
        monkeypatch.setattr(FIT_MODULE, "BLOCK_ROWS", 8)
        problem = _compile(data, spec)
        assert len(problem.blocks) == 5
        eta = kernel_predictors(problem, np.array(start))
        category_probs(CUM, eta[:, :32])  # the first four blocks are feasible
        with pytest.raises(StartError) as blocked:
            fit(spec, data, start=start)
        assert str(blocked.value) == str(whole.value)
        assert str(whole.value) == "infeasible start: thresholds out of order at index 1"

    def test_fresh_block_scratch_gives_the_same_fit(self, monkeypatch):
        # from this start, step halving meets candidates whose thresholds
        # cross only in the last block, after the derivative work of their
        # first four blocks: nothing may read the block scratch they leave,
        # so evaluating every candidate with fresh block scratch gives the
        # same fit bit for bit
        monkeypatch.setattr(FIT_MODULE, "BLOCK_ROWS", 8)
        data, spec, _ = self._crossing_late()
        start = [0.7, 1.5, 3.0, -4.0, -3.4, -2.3]
        blocks, crossed = [], []
        predictors, probs, evaluate = _Problem.predictors, FIT_MODULE.category_probs, _Problem.evaluate

        def traced_predictors(self, theta, rows, out):
            blocks.append(rows.start)
            return predictors(self, theta, rows, out)

        def traced_probs(*args):
            try:
                return probs(*args)
            except ThresholdOrderError:
                crossed.append(blocks[-1])
                raise

        monkeypatch.setattr(_Problem, "predictors", traced_predictors)
        monkeypatch.setattr(FIT_MODULE, "category_probs", traced_probs)
        shared = fit(spec, data, start=start)
        assert shared.converged
        assert 32 in crossed  # a candidate crossed in the last block

        def fresh_scratch(self, theta):
            vars(self).update(vars(_compile(data, spec)))
            return evaluate(self, theta)

        monkeypatch.setattr(_Problem, "evaluate", fresh_scratch)
        separate = fit(spec, data, start=start)
        assert separate.iterations == shared.iterations
        assert np.array_equal(separate.params, shared.params)
        assert separate.deviance == shared.deviance
        assert np.array_equal(separate.covariance, shared.covariance)

    def test_boundary_note_in_any_block_size(self, monkeypatch):
        # this start's first two thresholds touch at the last row (x = 4.5).
        # Every halving of its first step crosses: lam = 1, 1/2 and 1/4 in
        # the first block, the eight after them only in the last block of 8
        # rows, after four blocks of derivative work. So the fit stops at
        # its first iteration, unconverged, at the threshold-order boundary,
        # in one block as in five
        data, spec, _ = self._crossing_late()
        start = [-4.3, -1.6, 0.7, -1.0, -1.6, -0.2]
        whole = fit(spec, data, start=start)
        probabilities, crossed = _Problem.probabilities, []

        def traced(self, theta, rows):
            try:
                return probabilities(self, theta, rows)
            except ThresholdOrderError:
                crossed.append(rows.start)
                raise

        monkeypatch.setattr(_Problem, "probabilities", traced)
        monkeypatch.setattr(FIT_MODULE, "BLOCK_ROWS", 8)
        blocked = fit(spec, data, start=start)
        assert crossed == [0] * 3 + [32] * 8
        assert blocked.iterations == whole.iterations == 1
        assert not whole.converged and not blocked.converged
        assert np.array_equal(blocked.params, whole.params)
        assert blocked.warnings == whole.warnings == [
            "did not converge", "stopped at the threshold-order boundary"]


class TestWorkspaces:
    """Every per-observation quantity of a pass over the blocks lives in the
    problem's block scratch: once it exists, no step of the fit loop
    allocates an (n, k-1) array."""

    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_fit_loop_allocates_no_whole_array(self, kind):
        n, k = 20000, 10
        rng = np.random.default_rng(93)
        columns = {"x": rng.normal(size=n), "z": rng.normal(size=n)}
        y = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
        data = OrdinalDataset(y=y, k=k, columns=columns)
        spec = ModelSpec(Family(kind), "locshift", (Term("x"), Term("z")), (Term("z"),))
        problem = _compile(data, spec)
        theta = problem.initial_params()
        step = np.zeros_like(theta)
        step[problem.layout.location] = [0.3, -0.2]
        step[problem.layout.dispersion] = 0.02
        # warm up: the block scratch of evaluate() and of the weights helper
        problem.evaluate(theta)
        whole = n * (k - 1) * 8  # one (n, k-1) float array, 1.44 MB
        tracemalloc.start()
        try:
            # three candidates and the walk without derivative work
            for lam in (1.0, 0.5, 0.25):
                problem.evaluate(theta + lam * step)
                probs = problem.probabilities(theta + lam * step, problem.blocks[-1])[0]
                assert probs.base is problem._probs
            problem.loglik(theta + step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole

    def test_catspec_fit_peak_memory(self):
        # traced peak of a whole cumulative category-specific fit at n=20000,
        # k=10, p=6: 22.6 MB while the fit kept a second (candidate)
        # workspace, whole-array predictors and all (p+1)^2 products of
        # [1, x]; 11.4 MB with one workspace, per-block predictors and the
        # 28 distinct products of every row
        converged, peak = _catspec_fit_peak()
        assert converged
        assert peak < 16e6

    def test_catspec_fit_peak_memory_is_block_local(self):
        # the same fit: 11.4 MB while the F and probabilities of every row
        # and the products of every row were kept between two passes; 5.3 MB
        # with only block scratch beside the data and the design
        converged, peak = _catspec_fit_peak()
        assert converged
        assert peak < 8e6

    def test_many_level_factor_fit_peak_memory(self):
        # a 60-level factor makes 1891 products of [1 | U]: 62 MB in one
        # block of 4096 rows, 65.7 MB traced peak; blocks of 1109 rows keep
        # the table within 2**21 floats, 16.8 MB
        n, k = 4096, 5
        rng = np.random.default_rng(96)
        g = np.array([f"g{i}" for i in rng.integers(0, 60, n)], dtype=object)
        x = rng.normal(size=n)
        y = 1 + ((x + rng.logistic(size=n))[:, None] > [-1.0, 0.0, 0.5, 1.0]).sum(axis=1)
        data = OrdinalDataset(y=y, k=k, columns={"g": g, "x": x},
                              categorical_levels={"g": tuple(sorted(set(g)))})
        spec = ModelSpec(CUM, "global", (Term("g"), Term("x")))
        assert len(_compile(data, spec).blocks) == 4
        tracemalloc.start()
        try:
            result = fit(spec, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak < 32e6


class TestShapeConstants:
    """Index maps and matrices that depend only on a problem's shape are one
    record, made once per shape in a process and shared, read-only, by every
    problem of that shape and its weights helper."""

    @pytest.mark.parametrize("structure", ["global", "locshift", "catspec"])
    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_same_shape_shares_read_only_constants(self, kind, structure):
        rng = _case_rng("constants", kind, structure)
        first, second = (
            _compile(data, base.with_structure(structure))
            for data, base, _ in (random_dataset(rng, n=n, k=5, family=Family(kind))
                                  for n in (40, 60))
        )
        assert first.shape is second.shape
        assert first.weights.shape is first.shape
        assert second.weights.shape is first.shape
        arrays = [value for value in vars(first.shape).values()
                  if isinstance(value, np.ndarray) and value.size]
        assert len(arrays) >= 5
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = array.flat[0]

    def test_one_record_per_shape(self):
        FIT_MODULE._shape.cache_clear()
        shapes = set()
        rng = np.random.default_rng(95)
        for k in (3, 5):
            for kind in ("cumulative", "adjacent"):
                data, base, _ = random_dataset(rng, n=60, k=k, family=Family(kind))
                for reverse in (False, True):
                    for structure in ("global", "locshift", "catspec"):
                        spec = ModelSpec(Family(kind, reverse), structure,
                                         base.location, base.dispersion)
                        for _ in range(2):
                            problem = _compile(data, spec)
                            problem.evaluate(problem.initial_params())
                            layout = problem.layout
                            shapes.add((kind, structure, k, layout.p, layout.m, reverse,
                                        layout.z_union))
        assert len(shapes) == 24
        info = FIT_MODULE._shape.cache_info()
        assert info.misses == len(shapes)
        assert info.hits >= len(shapes)

    def test_map_and_order_match_dense_design_rows(self):
        # row i of the dense design tensor, in the reported order, is the
        # structure map applied to [1, U_i]: the canonical threshold r is
        # the reported threshold k-1-r of a reverse spec, and the canonical
        # parameter a the reported perm[a]
        rng = np.random.default_rng(95)
        for k in (3, 5):
            for kind in ("cumulative", "adjacent"):
                data, base, _ = random_dataset(rng, n=60, k=k, family=Family(kind))
                for reverse in (False, True):
                    for structure in ("global", "locshift", "catspec"):
                        spec = ModelSpec(Family(kind, reverse), structure,
                                         base.location, base.dispersion)
                        design = expand_design(data, spec)
                        shape = _compile(data, spec).shape
                        union = np.c_[np.ones(data.n), design.U]
                        M = shape.structure_map.reshape(k - 1, union.shape[1], -1)
                        rows = build_design_tensor(design, spec)
                        if reverse:
                            rows = rows[:, ::-1]
                        assert np.array_equal(rows[:, :, shape.perm],
                                              np.einsum("rja,ij->ira", M, union)), spec


@functools.lru_cache(maxsize=None)
def _catspec_fit_peak():
    """Converged flag and traced peak memory of a cumulative
    category-specific fit at n=20000, k=10, p=6."""
    n, k = 20000, 10
    rng = np.random.default_rng(94)
    columns = {f"x{j}": rng.normal(size=n) for j in range(6)}
    latent = sum(0.2 * (j - 2.5) * c for j, c in enumerate(columns.values()))
    latent = latent + rng.logistic(size=n)
    cuts = np.quantile(latent, np.arange(1, k) / k)
    data = OrdinalDataset(y=1 + (latent[:, None] > cuts).sum(axis=1), k=k, columns=columns)
    spec = ModelSpec(CUM, "catspec", tuple(Term(name) for name in columns))
    tracemalloc.start()
    try:
        result = fit(spec, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result.converged, peak


class TestFit:
    def test_intercept_only_closed_form(self):
        data = _counts_data([10, 20, 30])
        result = fit(_intercept_spec(), data)
        assert result.converged
        assert result.params == pytest.approx([LOGIT_ONE_SIXTH, 0.0], abs=1e-8)
        assert result.loglik == pytest.approx(MULTINOMIAL_LL_10_20_30, abs=1e-8)
        assert result.deviance == pytest.approx(-2 * MULTINOMIAL_LL_10_20_30, abs=1e-7)
        assert result.df_residual == 60 * 2 - 2

    def test_adjacent_intercept_only_closed_form(self):
        data = _counts_data([12, 24, 24])
        result = fit(_intercept_spec(ADJ), data)
        assert result.converged
        assert result.params == pytest.approx([np.log(2.0), 0.0], abs=1e-8)

    def test_simulation_recovery_within_3se(self):
        rng = np.random.default_rng(1234)
        from ordshift.simulate import locshift_example

        data, spec, truth = locshift_example(2000, 6, beta=1.0, alpha=0.3, rng=rng)
        result = fit(spec, data)
        se = standard_errors(result)
        q = 5
        assert result.converged
        assert abs(result.params[q] - 1.0) < 3 * se[q]
        assert abs(result.params[q + 1] - 0.3) < 3 * se[q + 1]

    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_matches_brute_force_optimizer(self, kind):
        rng = np.random.default_rng(77 if kind == "cumulative" else 78)
        data, base, _ = random_dataset(rng, n=50, k=4, family=Family(kind))
        spec = base.with_structure("global")
        result = fit(spec, data)
        oracle = nelder_mead_loglik(data, spec, empirical_start(data, spec))
        assert result.converged
        assert abs(result.loglik - oracle) < 1e-6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(55)
        data, spec, _ = random_dataset(rng, n=70, k=4)
        perm = rng.permutation(data.n)
        shuffled = OrdinalDataset(
            y=data.y[perm], k=data.k,
            columns={name: col[perm] for name, col in data.columns.items()},
        )
        a, b = fit(spec, data), fit(spec, shuffled)
        assert a.deviance == pytest.approx(b.deviance, abs=1e-10)
        assert a.params == pytest.approx(b.params, abs=1e-8)

    def test_deviance_never_increases(self, monkeypatch):
        rng = np.random.default_rng(66)
        data, spec, _ = random_dataset(rng, n=120, k=5)
        devs = []
        for iters in range(1, 8):
            monkeypatch.setattr(FIT_MODULE, "MAX_ITER", iters)
            devs.append(fit(spec, data).deviance)
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(devs, devs[1:]))

    def test_nesting_monotonicity(self):
        rng = np.random.default_rng(99)
        for seed in range(3):
            data, spec, _ = random_dataset(np.random.default_rng(seed), n=300, k=5)
            results = {
                s: fit(spec.with_structure(s), data)
                for s in ("global", "locshift", "catspec")
            }
            if all(r.converged for r in results.values()):
                assert results["catspec"].deviance <= results["locshift"].deviance + 1e-6
                assert results["locshift"].deviance <= results["global"].deviance + 1e-6

    def test_warm_start_from_constraint_map(self):
        from ordshift.design import constraint_map

        rng = np.random.default_rng(101)
        data, spec, _ = random_dataset(rng, n=200, k=5)
        ls = fit(spec, data)
        q = data.k - 1
        mapped = np.concatenate([
            ls.params[:q],
            constraint_map(ls.params[q:q + 2], ls.params[q + 2:], data.k, spec.family).ravel(),
        ])
        cs = fit(spec.with_structure("catspec"), data, start=mapped)
        assert cs.deviance <= ls.deviance + 1e-9

    def test_score_small_at_optimum(self):
        rng = np.random.default_rng(31)
        data, spec, _ = random_dataset(rng, n=150, k=5)
        result = fit(spec, data)
        grad = score(result.params, data, spec)
        assert np.max(np.abs(grad)) < 1e-4 * (1 + abs(result.loglik))

    def test_honest_nonconvergence(self, monkeypatch):
        rng = np.random.default_rng(41)
        data, spec, _ = random_dataset(rng, n=150, k=5)
        monkeypatch.setattr(FIT_MODULE, "MAX_ITER", 1)
        result = fit(spec, data)
        assert not result.converged
        assert any("converge" in w for w in result.warnings)

    def test_no_candidate_evaluated_twice(self, monkeypatch):
        # TestRowBlocks' reverse cumulative catspec case stops, unconverged,
        # at an iteration where no halving of the step is accepted; a retry
        # would solve for the same step and evaluate the same candidates
        rng = _case_rng("fit-blocks", "cumulative", True, "catspec")
        data, base, _ = random_dataset(rng, n=150, k=5)
        spec = ModelSpec(Family("cumulative", True), "catspec", base.location, base.dispersion)
        evaluated = []
        evaluate = _Problem.evaluate

        def recorded(self, theta):
            evaluated.append(theta.tobytes())
            return evaluate(self, theta)

        monkeypatch.setattr(_Problem, "evaluate", recorded)
        result = fit(spec, data)
        assert not result.converged
        assert result.iterations < FIT_MODULE.MAX_ITER
        assert len(evaluated) > 11  # the start, then at least one iteration
        assert len(set(evaluated)) == len(evaluated)

    def test_stop_at_threshold_order_boundary_noted(self):
        # the warm-started cumulative catspec fit on item 8 of the seed-1
        # simulation pool of the benchmark's sim-small workload (n=500, k=5):
        # it stops with one observation's thresholds touching and most of
        # its candidates crossing, max |score| far above the tolerance
        from ordshift.inference import _catspec_start

        data, spec = boundary_dataset()
        locshift = fit(spec, data)
        assert locshift.converged
        assert locshift.warnings == []
        catspec = spec.with_structure("catspec")
        result = fit(catspec, data, start=_catspec_start(locshift, catspec))
        assert not result.converged
        assert result.warnings == ["did not converge", "stopped at the threshold-order boundary"]
        problem = _compile(data, catspec)
        gaps = np.diff(kernel_predictors(problem, problem.canonical(result.params)), axis=0)
        assert -1e-12 <= gaps.min() < 1e-9
        worst = np.max(np.abs(score(result.params, data, catspec)))
        assert worst > 10 * FIT_MODULE.SCORE_TOL * (1.0 + abs(result.loglik))

    def test_unobserved_category_rejected(self):
        y = np.array([1, 1, 2, 2, 4, 4])  # category 3 empty
        data = OrdinalDataset(y=y, k=4, columns={})
        with pytest.raises(DataError, match="merge"):
            fit(_intercept_spec(), data)

    def test_many_unobserved_categories_listed_briefly(self):
        data = OrdinalDataset(y=np.array([1, 2, 1, 2]), k=40, columns={})
        with pytest.raises(DataError) as error:
            fit(_intercept_spec(), data)
        assert str(error.value) == (
            "response categories [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, ...] (38 in all) are "
            "unobserved; merge categories before fitting")

    def test_infeasible_start_rejected(self):
        data = _counts_data([10, 20, 30])
        with pytest.raises(StartError):
            fit(_intercept_spec(), data, start=[1.0, -1.0])

    def test_non_finite_parameter_named_where_it_enters(self):
        # one check, where a parameter vector becomes canonical, names the
        # first non-finite entry instead of the kernel's "eta must be finite"
        rng = np.random.default_rng(21)
        data, spec, params = random_dataset(rng, n=60, k=4)
        with pytest.raises(StartError, match=r"parameter 0 \(\(Intercept\):1\) is not finite: nan"):
            fit(spec, data, start=[np.nan] * 7)
        bad = params.copy()
        bad[4] = np.inf
        for public in (log_likelihood, score, fisher_info, category_probabilities):
            with pytest.raises(InvalidInputError, match=r"parameter 4 \(v2\) is not finite: inf"):
                public(bad, data, spec)
        reverse = replace(spec, family=Family("cumulative", reverse=True))
        with pytest.raises(InvalidInputError, match=r"parameter 4 \(v2\)"):
            log_likelihood(bad, data, reverse)

    def test_separation_warning(self):
        x = np.concatenate([np.linspace(-3, -1, 25), np.linspace(1, 3, 25)])
        y = np.where(x < 0, 1, 2)
        data = OrdinalDataset(y=y, k=2, columns={"x": x})
        spec = ModelSpec(CUM, "global", (Term("x"),))
        with pytest.warns(SeparationWarning):
            result = fit(spec, data)
        assert any("separation" in w for w in result.warnings)

    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_reverse_representation_equivalence(self, kind):
        rng = np.random.default_rng(7)
        data, base, _ = random_dataset(rng, n=150, k=5, family=Family(kind))
        fwd = fit(base, data)
        rev_spec = ModelSpec(
            Family(kind, reverse=True), "locshift", base.location, base.dispersion
        )
        rev = fit(rev_spec, data)
        q = data.k - 1
        assert rev.deviance == pytest.approx(fwd.deviance, abs=1e-6)
        # dispersion coefficients keep their sign while the location block and
        # the intercepts flip sign (the relabeling and the reporting reversal
        # cancel each other's reordering of the intercepts)
        assert rev.params[q + 2:] == pytest.approx(fwd.params[q + 2:], abs=1e-5)
        assert rev.params[q:q + 2] == pytest.approx(-fwd.params[q:q + 2], abs=1e-5)
        assert rev.params[:q] == pytest.approx(-fwd.params[:q], abs=1e-5)
        # the reported reverse parameters reproduce the fitted distribution
        p_fwd = category_probabilities(fwd.params, data, base)
        p_rev = category_probabilities(rev.params, data, rev_spec)
        assert p_rev == pytest.approx(p_fwd, abs=1e-6)
        # and their likelihood under the reverse spec is the fit's likelihood
        assert log_likelihood(rev.params, data, rev_spec) == pytest.approx(
            rev.loglik, abs=1e-9
        )

    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_reverse_category_specific_blocks(self, kind):
        for seed in (17, 19, 21, 25, 31):
            data, base, _ = random_dataset(
                np.random.default_rng(seed), n=250, k=4, family=Family(kind)
            )
            fwd_spec = base.with_structure("catspec")
            rev_spec = ModelSpec(
                Family(kind, reverse=True), "catspec", base.location, base.dispersion
            )
            fwd, rev = fit(fwd_spec, data), fit(rev_spec, data)
            if fwd.converged and rev.converged:
                break
        else:
            pytest.fail("no converging seed for the reverse catspec check")
        assert rev.deviance == pytest.approx(fwd.deviance, abs=1e-6)
        # the relabeling and the reporting permutation cancel: reversed block r
        # is the sign-flipped forward block r, with matching standard errors
        q = data.k - 1
        fwd_se, rev_se = standard_errors(fwd), standard_errors(rev)
        start, p = rev.layout.location.start, rev.layout.p
        for r in range(1, q + 1):
            block = slice(start + (r - 1) * p, start + r * p)
            assert rev.params[block] == pytest.approx(-fwd.params[block], abs=2e-4)
            assert rev_se[block] == pytest.approx(fwd_se[block], rel=1e-3)
        assert rev.params[:q] == pytest.approx(-fwd.params[:q], abs=2e-4)
        p_fwd = category_probabilities(fwd.params, data, fwd_spec)
        p_rev = category_probabilities(rev.params, data, rev_spec)
        assert p_rev == pytest.approx(p_fwd, abs=1e-5)

    def test_reverse_with_smooth_terms(self):
        rng = np.random.default_rng(23)
        data, base, _ = random_dataset(rng, n=600, k=4)
        loc = (Term("v1", smooth=True, n_basis=4), Term("v2"))
        fwd = fit(ModelSpec(Family("cumulative"), "locshift", loc, base.dispersion), data)
        rev = fit(
            ModelSpec(Family("cumulative", reverse=True), "locshift", loc, base.dispersion),
            data,
        )
        assert rev.deviance == pytest.approx(fwd.deviance, abs=1e-6)
        grid = np.linspace(-1, 1, 50)
        f_fwd = smooth_values(fwd, "location", "v1", grid)
        f_rev = smooth_values(rev, "location", "v1", grid)
        assert f_rev == pytest.approx(-f_fwd, abs=1e-4)


class TestDevianceReport:
    """Deviance and residual degrees of freedom as FitResult reports them."""

    def test_paper_df_arithmetic(self):
        for n_params, df in ((90, 19935), (27, 19998), (18, 20007)):
            result = stub_fit(n_params, deviance=9825.78, n=2225, k=10)
            assert result.deviance == 9825.78
            assert result.df_residual == df

    def test_consistency_with_fit(self):
        data = _counts_data([10, 20, 30])
        result = fit(_intercept_spec(), data)
        assert result.deviance == -2.0 * result.loglik
        assert result.df_residual == data.n * (data.k - 1) - result.n_params

    def test_loglik_follows_a_replaced_deviance(self):
        result = fit(_intercept_spec(), _counts_data([10, 20, 30]))
        assert replace(result, deviance=123.5).loglik == -123.5 / 2.0


class TestStandardErrors:
    @pytest.mark.parametrize("family", [CUM, Family("cumulative", reverse=True), ADJ])
    def test_information_kept_and_covariance_read_once(self, family):
        # the fit keeps the information of the pass that accepted its
        # params, in their order; the covariance made from it on first read
        # is kept, so an edit to it persists
        data, spec, _ = random_dataset(np.random.default_rng(16), n=120, k=4)
        spec = replace(spec, family=family, structure="catspec")
        result = fit(spec, data)
        assert np.array_equal(result.information, fisher_info(result.params, data, spec))
        cov = result.covariance
        assert result.covariance is cov and result.se_unavailable is result.se_unavailable
        assert cov @ result.information == pytest.approx(np.eye(result.n_params), abs=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        data, spec, _ = random_dataset(rng, n=100, k=4)
        result = fit(spec, data)
        se = standard_errors(result)
        assert np.all(se[~np.isnan(se)] >= 0)
        assert not result.se_unavailable.any()

    def test_binary_closed_form(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=200)
        y = (rng.random(200) < 1 / (1 + np.exp(-0.5 * x))).astype(int) + 1
        data = OrdinalDataset(y=y, k=2, columns={"x": x})
        spec = ModelSpec(CUM, "global", (Term("x"),))
        result = fit(spec, data)
        theta = result.params
        p = 1 / (1 + np.exp(-(theta[0] + x * theta[1])))
        f = p * (1 - p)
        info = np.array([[f.sum(), (f * x).sum()], [(f * x).sum(), (f * x * x).sum()]])
        expected = np.sqrt(np.diag(np.linalg.inv(info)))
        assert standard_errors(result) == pytest.approx(expected, rel=1e-6)

    def test_duplicated_column_flagged(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=80)
        y = rng.integers(1, 4, size=80)
        y[:3] = [1, 2, 3]
        data = OrdinalDataset(y=y, k=3, columns={"a": x, "b": x.copy()})
        for family in (CUM, Family("cumulative", reverse=True)):
            result = fit(ModelSpec(family, "global", (Term("a"), Term("b"))), data)
            se = standard_errors(result)
            assert result.se_unavailable[2] and result.se_unavailable[3]
            assert np.isnan(se[2]) and np.isnan(se[3])
            assert not np.isnan(se[0])


class TestSmoothFit:
    def test_linear_truth_recovered(self):
        rng = np.random.default_rng(19)
        n = 600
        x = rng.uniform(-2, 2, size=n)
        true_spec = ModelSpec(CUM, "global", (Term("x"),))
        params = np.concatenate([[-1.0, 0.0, 1.0], [0.9]])
        data = simulate_dataset(true_spec, params, {"x": x}, 4, rng)
        smooth_spec = ModelSpec(CUM, "global", (Term("x", smooth=True, n_basis=5),))
        result = fit(smooth_spec, data)
        assert result.converged
        grid = np.linspace(x.min(), x.max(), 80)
        fitted = smooth_values(result, "location", "x", grid)
        slope, intercept = np.polyfit(grid, fitted, 1)
        line = slope * grid + intercept
        assert np.max(np.abs(fitted - line)) < 0.25
        assert slope == pytest.approx(0.9, abs=0.15)


class TestPredict:
    @staticmethod
    def _smooth_fit():
        """Cumulative global s(x, 6) fitted on x ~ U(-2, 2), n=300."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-2.0, 2.0, size=300)
        true_spec = ModelSpec(CUM, "global", (Term("u"),))
        data = simulate_dataset(true_spec, [-1.0, 0.0, 1.0, 1.0], {"u": np.sin(1.5 * x), "x": x},
                                4, rng)
        spec = ModelSpec(CUM, "global", (Term("x", smooth=True, n_basis=6),))
        return fit(spec, data), data, spec

    def test_frozen_basis_on_a_grid_and_on_new_rows(self):
        # four points cannot hold six knots: a design learned on them fails,
        # the fitted layout applied to them does not; on new rows inside the
        # training range it is the hand-built frozen basis less the training
        # means, and beyond that range the basis clamps
        result, data, spec = self._smooth_fit()
        grid = {"x": np.array([-1.5, -0.5, 0.5, 1.5])}
        with pytest.raises(SpecError, match="distinct values"):
            category_probabilities(result.params, OrdinalDataset(np.ones(4, int), 4, grid), spec)
        probs = predict(result, grid)
        assert probs.shape == (4, 4)
        assert np.allclose(probs.sum(axis=1), 1.0)

        new = np.random.default_rng(1).uniform(0.0, 2.0, size=400)
        cols = result.layout.x_cols
        basis = bspline_basis(new, cols[0].basis)[:, :5] - [c.mean for c in cols]
        eta = result.params[:3][None, :] + (basis @ result.params[3:])[:, None]
        cdf = np.column_stack([np.zeros(400), logistic(eta), np.ones(400)])
        assert np.max(np.abs(predict(result, {"x": new}) - np.diff(cdf, axis=1))) < 1e-12
        lo, hi = cols[0].basis.lo, cols[0].basis.hi
        assert np.array_equal(predict(result, {"x": np.array([lo - 3.0, hi + 3.0])}),
                              predict(result, {"x": np.array([lo, hi])}))

    def test_training_columns_reproduce_category_probabilities(self):
        result, data, spec = self._smooth_fit()
        assert np.array_equal(predict(result, data.columns),
                              category_probabilities(result.params, data, spec))

    def test_frozen_levels(self):
        # levels are the training data's: a new column holding only some of
        # them keeps the full dummy block, an unseen one is named, a missing
        # variable is named, and a column the fit does not read is ignored
        rng = np.random.default_rng(4)
        g = rng.choice(np.array(["a", "b", "c"], dtype=object), size=90)
        x = rng.normal(size=90)
        y = rng.integers(1, 4, size=90)
        y[:3] = [1, 2, 3]
        data = OrdinalDataset(y=y, k=3, columns={"g": g, "x": x},
                              categorical_levels={"g": ("a", "b", "c")})
        result = fit(ModelSpec(ADJ, "locshift", (Term("g"), Term("x")), (Term("g"),)), data)
        full = predict(result, data.columns)
        rows = np.flatnonzero(g == "c")[:2]
        subset = {"g": g[rows], "x": x[rows], "other": np.array(["z", "z"], dtype=object)}
        assert predict(result, subset) == pytest.approx(full[rows], abs=1e-14)
        with pytest.raises(DataError, match=r"variable 'g': unseen level 'd'"):
            predict(result, {"g": np.array(["a", "d"], dtype=object), "x": np.zeros(2)})
        with pytest.raises(DataError, match=r"variable 'x' not present"):
            predict(result, {"g": np.array(["a"], dtype=object)})
