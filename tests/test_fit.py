"""Likelihood, score, information, and the Fisher-scoring optimizer."""

import importlib
import tracemalloc
import zlib

import numpy as np
import pytest

from helpers import (
    empirical_start,
    fd_gradient,
    fd_hessian,
    feasible_params,
    nelder_mead_loglik,
    random_dataset,
    stub_fit,
)

from ordshift.data import OrdinalDataset
from ordshift.design import ModelSpec, Term, build_design_tensor, expand_design, make_layout
from ordshift.exceptions import (
    SeparationWarning,
    SpecError,
    StartError,
    ThresholdOrderError,
    ZeroProbabilityWarning,
)
from ordshift.fit import (
    WEIGHT_FLOOR,
    _Problem,
    category_probabilities,
    fisher_info,
    fit,
    log_likelihood,
    score,
    smooth_values,
    standard_errors,
)
from ordshift.links import LOGIT, Family, category_probs

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
        layout = make_layout(expand_design(data, spec), spec, data.k)
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

    def test_alpha_gradient_vanishes_with_zero_weights(self):
        # k=2 edge: all scaling factors are 0, so the alpha block of the
        # score and information must vanish identically; expand_design
        # rejects dispersion terms at k=2, so a compiled k=3 problem gets
        # the all-zero weights instead
        rng = np.random.default_rng(4)
        n = 30
        y = rng.integers(1, 4, size=n)
        y[:3] = [1, 2, 3]
        data = OrdinalDataset(y=y, k=3, columns={"z": rng.normal(size=n)})
        problem = _Problem(data, ModelSpec(CUM, "locshift", (), (Term("z"),)))
        problem.w = np.zeros(2)
        s, info = problem.score_info(problem.evaluate(np.array([-0.3, 0.4, 1.7])))
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
        D, layout = build_design_tensor(design, spec, data.k)
        eta = D @ params
        f = LOGIT.density(eta)
        gamma = LOGIT.cdf(eta)
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
        problem = _Problem(data, spec)
        kernel = problem.evaluate(params)
        assert kernel.eta.T == pytest.approx(eta, rel=1e-12)
        _, info = problem.score_info(kernel)
        assert info == pytest.approx(expected, rel=1e-8)


def _dense_score_info(problem, theta):
    """Dense oracle of the structured kernel at canonical ``theta``.

    Builds A[i, c, r] = d log pi_c / d eta_r entry by entry and contracts it
    with the (n, k-1, n_params) design tensor: score sum_i D_i' A[i, y_i] and
    information sum_i D_i' (sum_c pi_c A_c A_c') D_i.
    """
    D, _ = build_design_tensor(problem.design, problem.spec, problem.layout.k)
    eta = D @ theta
    probs = category_probs(problem.spec.family, LOGIT, eta.T).T
    n, k = probs.shape
    q = k - 1
    A = np.zeros((n, k, q))
    if problem.spec.family.kind == "cumulative":
        f = LOGIT.density(eta)
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
        problem = _Problem(data, spec)
        theta = np.zeros(problem.layout.n_params)
        theta[:k - 1] = [-1.0, 0.0, 1.0] if kind == "cumulative" else 0.2
        sign = -1.0 if kind == "cumulative" else 1.0  # toward category k at v1 = 40
        if structure == "catspec":
            theta[problem.layout.catspec_block(1)] = [sign, 0.1]
            theta[problem.layout.catspec_block(2)] = [sign, -0.1]
            theta[problem.layout.catspec_block(3)] = [sign, 0.2]
        else:
            theta[problem.layout.location] = [sign, 0.3]
        probs = problem.evaluate(theta).probs
        assert probs.min() < WEIGHT_FLOOR
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
        blocks = _Problem(data, spec).blocks
        assert [b.stop - b.start for b in blocks] == [7] * 8 + [4]
        self._check(rng, data, spec)

    @classmethod
    def _check(cls, rng, data, spec):
        problem = _Problem(data, spec)
        # canonical parameters are feasible exactly when they are feasible
        # for the forward spec on the original data (only eta's order counts)
        forward = ModelSpec(Family(spec.family.kind), spec.structure, spec.location,
                            spec.dispersion)
        for _ in range(3):
            theta = feasible_params(rng, problem.layout, forward, data)
            cls._check_at(problem, data, spec, theta)

    @staticmethod
    def _check_at(problem, data, spec, theta):
        eta, dense_s, dense_info = _dense_score_info(problem, theta)
        kernel = problem.evaluate(theta)
        s, info = problem.score_info(kernel)
        assert _max_rel(kernel.eta.T, eta) <= 1e-12
        assert _max_rel(s, dense_s) <= 1e-12
        assert _max_rel(info, dense_info) <= 1e-12
        assert np.array_equal(info, info.T)
        assert score(theta[problem.perm], data, spec) == pytest.approx(
            s[problem.perm], rel=1e-12, abs=1e-12
        )


class TestScoreInfoEvaluations:
    """Fisher scoring evaluates score and information once at the start and
    once after each accepted step, and at no other point."""

    @pytest.mark.parametrize(
        "kind, structure, options",
        [
            ("cumulative", "locshift", {}),
            ("adjacent", "catspec", {}),
            ("cumulative", "global", {"max_iter": 2}),
            ("adjacent", "locshift", {"max_iter": 0}),
        ],
    )
    def test_once_per_accepted_step(self, monkeypatch, kind, structure, options):
        rng = np.random.default_rng(88)
        data, base, _ = random_dataset(rng, n=150, k=5, family=Family(kind))
        spec = base.with_structure(structure)
        counts = self._instrument(monkeypatch)
        fit(spec, data, **options)
        self._assert_once_per_accepted(counts)

    def test_start_at_optimum(self, monkeypatch):
        rng = np.random.default_rng(89)
        data, spec, _ = random_dataset(rng, n=150, k=5)
        optimum = fit(spec, data)
        counts = self._instrument(monkeypatch)
        result = fit(spec, data, start=optimum.params)
        assert result.converged
        self._assert_once_per_accepted(counts)

    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_once_per_accepted_step_in_row_blocks(self, monkeypatch, kind):
        # one evaluation per accepted step, not one per block of rows
        monkeypatch.setattr(FIT_MODULE, "BLOCK_ROWS", 16)
        rng = np.random.default_rng(90)
        data, spec, _ = random_dataset(rng, n=150, k=5, family=Family(kind))
        counts = self._instrument(monkeypatch)
        fit(spec, data)
        self._assert_once_per_accepted(counts)

    @staticmethod
    def _instrument(monkeypatch):
        counts = {"score_info": 0, "deviances": []}
        score_info, loglik = _Problem.score_info, _Problem.loglik

        def counted_score_info(self, workspace):
            counts["score_info"] += 1
            return score_info(self, workspace)

        def recorded_loglik(self, probs):
            value = loglik(self, probs)
            counts["deviances"].append(-2.0 * value)
            return value

        monkeypatch.setattr(_Problem, "score_info", counted_score_info)
        monkeypatch.setattr(_Problem, "loglik", recorded_loglik)
        return counts

    @staticmethod
    def _assert_once_per_accepted(counts):
        # replay the acceptance rule over the start and candidate deviances:
        # a candidate is accepted when its deviance does not exceed the
        # current one, and halving stops at the first accepted candidate
        current, *candidates = counts["deviances"]
        accepted = 0
        for dev in candidates:
            if np.isfinite(dev) and dev <= current:
                accepted += 1
                current = dev
        assert counts["score_info"] == 1 + accepted


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
        assert len(_Problem(data, spec).blocks) == 1
        monkeypatch.setattr(FIT_MODULE, "BLOCK_ROWS", 16)  # 9 blocks of 16 and one of 6
        blocked = fit(spec, data)
        assert len(_Problem(data, spec).blocks) == 10
        assert blocked.iterations == whole.iterations
        assert blocked.converged == whole.converged
        # the reverse cumulative catspec case stops without converging (no
        # accepted step twice in a row, as its forward fit does); its last
        # iterate moves by 8e-10 under any reordering of the row sums, a row
        # permutation included, so it gets test_permutation_invariance's bound
        tol = 1e-10 if whole.converged else 1e-8
        assert np.max(np.abs(blocked.params - whole.params)) <= tol
        assert blocked.deviance == pytest.approx(whole.deviance, rel=1e-12)

    def test_kept_cdf_gives_the_link_density(self, monkeypatch):
        monkeypatch.setattr(FIT_MODULE, "BLOCK_ROWS", 16)
        rng = np.random.default_rng(91)
        data, spec, params = random_dataset(rng, n=40, k=5)
        problem = _Problem(data, spec)
        workspace = problem.evaluate(params)
        for rows in problem.blocks:
            expected = LOGIT.density(workspace.eta[:, rows])
            kept = problem.weights().density(workspace, rows, np.empty_like(expected))
            assert np.array_equal(kept, expected)
            assert np.array_equal(kept, LOGIT.density(problem.eta(params)[:, rows]))

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
        problem = _Problem(data, spec)
        assert len(problem.blocks) == 5
        eta = problem.eta(np.array(start))
        category_probs(CUM, LOGIT, eta[:, :32])  # the first four blocks are feasible
        with pytest.raises(StartError) as blocked:
            fit(spec, data, start=start)
        assert str(blocked.value) == str(whole.value)
        assert str(whole.value) == "infeasible start: thresholds out of order at index 1"

    def test_kept_cdf_survives_a_failed_candidate(self, monkeypatch):
        # a candidate that fails in its last block has already written the
        # F of the first four into its own workspace: the current
        # workspace's density, score and information must not read it
        monkeypatch.setattr(FIT_MODULE, "BLOCK_ROWS", 8)
        data, spec, crossing = self._crossing_late()
        problem = _Problem(data, spec)
        theta = np.array([-1.0, 0.0, 1.0, 0.1, 0.2, 0.3])
        current = problem.evaluate(theta)
        expected = problem.score_info(current)
        with pytest.raises(ThresholdOrderError):
            problem.evaluate(np.array(crossing), problem.new_workspace())
        for rows in problem.blocks:
            density = problem.weights().density(current, rows, np.empty((3, rows.stop - rows.start)))
            assert np.array_equal(density, LOGIT.density(current.eta[:, rows]))
        for new, old in zip(problem.score_info(current), expected):
            assert np.array_equal(new, old)


class TestWorkspaces:
    """Candidate evaluations and score/information write into the problem's
    two workspaces and its block scratch: once these exist, no step of the
    fit loop allocates an (n, k-1) array."""

    @pytest.mark.parametrize("kind", ["cumulative", "adjacent"])
    def test_fit_loop_allocates_no_whole_array(self, kind):
        n, k = 20000, 10
        rng = np.random.default_rng(93)
        columns = {"x": rng.normal(size=n), "z": rng.normal(size=n)}
        y = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
        data = OrdinalDataset(y=y, k=k, columns=columns)
        spec = ModelSpec(Family(kind), "locshift", (Term("x"), Term("z")), (Term("z"),))
        problem = _Problem(data, spec)
        theta = problem.initial_params()
        step = np.zeros_like(theta)
        step[problem.layout.location] = [0.3, -0.2]
        step[problem.layout.dispersion] = 0.02
        current, trial = problem.workspace, problem.new_workspace()
        for workspace in (current, trial):  # warm up: workspaces and block scratch
            problem.loglik(problem.evaluate(theta, workspace).probs)
            problem.score_info(workspace)
        whole = n * (k - 1) * 8  # one (n, k-1) float array, 1.44 MB
        tracemalloc.start()
        try:
            for lam in (1.0, 0.5, 0.25):  # three candidates, then the accepted one's
                problem.loglik(problem.evaluate(theta + lam * step, trial).probs)
            problem.score_info(trial)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole


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

    def test_deviance_never_increases(self):
        rng = np.random.default_rng(66)
        data, spec, _ = random_dataset(rng, n=120, k=5)
        devs = []
        for iters in range(1, 8):
            devs.append(fit(spec, data, max_iter=iters).deviance)
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

    def test_honest_nonconvergence(self):
        rng = np.random.default_rng(41)
        data, spec, _ = random_dataset(rng, n=150, k=5)
        result = fit(spec, data, max_iter=1)
        assert not result.converged
        assert any("converge" in w for w in result.warnings)

    def test_unobserved_category_rejected(self):
        from ordshift.exceptions import DataError

        y = np.array([1, 1, 2, 2, 4, 4])  # category 3 empty
        data = OrdinalDataset(y=y, k=4, columns={})
        with pytest.raises(DataError, match="merge"):
            fit(_intercept_spec(), data)

    def test_infeasible_start_rejected(self):
        data = _counts_data([10, 20, 30])
        with pytest.raises(StartError):
            fit(_intercept_spec(), data, start=[1.0, -1.0])

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
        for r in range(1, q + 1):
            block = rev.layout.catspec_block(r)
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


class TestStandardErrors:
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
        spec = ModelSpec(CUM, "global", (Term("a"), Term("b")))
        result = fit(spec, data)
        se = standard_errors(result)
        assert result.se_unavailable[2] and result.se_unavailable[3]
        assert np.isnan(se[2]) and np.isnan(se[3])
        assert not np.isnan(se[0])


class TestSmoothFit:
    def test_linear_truth_recovered(self):
        rng = np.random.default_rng(19)
        n = 600
        x = rng.uniform(-2, 2, size=n)
        from ordshift.simulate import simulate_dataset

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
