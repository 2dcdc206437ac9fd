"""The logistic F, category-probability maps, and scaling factors."""

import numpy as np
import pytest

from ordshift.exceptions import InvalidInputError, ThresholdOrderError
from ordshift.links import Family, category_probs, logistic, logit, scaling_factors

CUM = Family("cumulative")
ADJ = Family("adjacent")

# frozen from high-precision evaluation of 1/(1+e^-x)
LOGISTIC_AT_1 = 0.7310585786300049
LOGISTIC_AT_MINUS_1 = 0.2689414213699951


def clipped_cdf(eta):
    """F(eta) clamped to [1e-15, 1 - 1e-15], as the cumulative map uses it:
    the first category's probability at a single threshold."""
    eta = np.asarray(eta, dtype=float)
    return category_probs(CUM, eta[None])[0]


class TestLinkEval:
    """The logistic F and the clamped F the cumulative map differences."""

    def test_symmetry_at_zero(self):
        assert logistic(0.0) == 0.5

    def test_known_values(self):
        assert clipped_cdf(1.0) == pytest.approx(LOGISTIC_AT_1, abs=1e-15)
        assert clipped_cdf(-1.0) == pytest.approx(LOGISTIC_AT_MINUS_1, abs=1e-15)

    def test_clamped_tails(self):
        assert clipped_cdf(1000.0) == 1.0 - 1e-15
        assert clipped_cdf(-1000.0) == 1e-15

    def test_monotone(self):
        grid = np.linspace(-20, 20, 201)
        values = clipped_cdf(grid)
        assert np.all(np.diff(values) > 0)
        assert np.all((values > 0) & (values < 1))

    def test_complement_symmetry(self):
        grid = np.linspace(-25, 25, 101)
        total = clipped_cdf(grid) + clipped_cdf(-grid)
        assert np.max(np.abs(total - 1.0)) < 1e-14

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            clipped_cdf(np.nan)
        with pytest.raises(InvalidInputError):
            clipped_cdf(np.inf)

    def test_round_trip_core_range(self):
        # 1e-12 is attainable while 1-F(x) stays well above ulp(1)
        grid = np.linspace(-9.0, 9.0, 73)
        back = logit(clipped_cdf(grid))
        assert np.max(np.abs(back - grid)) < 1e-12

    def test_round_trip_negative_branch(self):
        # the small-p side keeps full relative precision all the way down
        grid = np.linspace(-30.0, 0.0, 61)
        back = logit(clipped_cdf(grid))
        assert np.max(np.abs(back - grid)) < 1e-12

    def test_round_trip_extreme_range(self):
        # storing F(x) as a double near 1 caps the attainable accuracy at
        # roughly ulp(1)/min(p, 1-p); assert against that principled bound
        grid = np.linspace(-30, 30, 121)
        p = clipped_cdf(grid)
        back = logit(p)
        bound = 1e-12 + 2 * 2.3e-16 / np.minimum(p, 1 - p)
        assert np.all(np.abs(back - grid) <= bound)

    def test_logit_domain(self):
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InvalidInputError):
                logit(p)


class TestCumulativeProbs:
    def test_zero_width_band(self):
        probs = category_probs(CUM, [0.0, 0.0])
        assert probs == pytest.approx([0.5, 0.0, 0.5], abs=1e-15)

    def test_known_values(self):
        probs = category_probs(CUM, [-1.0, 1.0])
        expected = [LOGISTIC_AT_MINUS_1, LOGISTIC_AT_1 - LOGISTIC_AT_MINUS_1, LOGISTIC_AT_MINUS_1]
        assert probs == pytest.approx(expected, abs=1e-14)

    def test_ordering_violation(self):
        with pytest.raises(ThresholdOrderError) as err:
            category_probs(CUM, [1.0, -1.0])
        assert err.value.index == 1

    def test_ordering_violation_names_first_crossing_observation(self):
        # columns are observations: the first crossing one is column 2,
        # whose thresholds 3 and 4 fall below their predecessors; later
        # columns cross at earlier thresholds, and column 1's fall of 1e-13
        # is float noise, not a crossing
        eta = np.array([
            [-1.0, -1.0, -1.0, 0.5, -1.0],
            [0.0, -1.0 - 1e-13, 0.0, -1.0, 0.0],
            [1.0, 1.0, 1.0, 2.0, -2.0],
            [2.0, 2.0, 0.5, 1.5, 3.0],
            [3.0, 3.0, 0.0, 4.0, 4.0],
        ])
        with pytest.raises(ThresholdOrderError) as err:
            category_probs(CUM, eta)
        assert err.value.index == 3
        with pytest.raises(ThresholdOrderError) as err:
            category_probs(CUM, eta[:, 3:])
        assert err.value.index == 1

    def test_simplex_property(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = rng.integers(2, 12)
            eta = np.sort(rng.normal(scale=3.0, size=k - 1))
            probs = category_probs(CUM, eta)
            assert probs.shape == (k,)
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_round_trip_thresholds(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            eta = np.sort(rng.uniform(-13, 13, size=5))
            eta[np.diff(eta, prepend=-20) < 1e-3] += 1e-3  # keep bands non-degenerate
            eta = np.sort(eta)
            probs = category_probs(CUM, eta)
            back = logit(np.cumsum(probs[:-1]))
            assert np.max(np.abs(back - eta)) < 1e-9

    def test_batched_rows(self):
        eta = np.array([[-1.0, 1.0], [0.0, 0.5]])
        probs = category_probs(CUM, eta.T)
        assert probs.shape == (3, 2)
        assert np.allclose(probs.sum(axis=0), 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            category_probs(CUM, [0.0, np.inf])


def _masked_logistic(eta):
    """The two-branch logistic written with boolean-masked gathers and
    scatters, the reference the single-pass logistic must reproduce."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _differenced_cumulative_probs(eta):
    """Cumulative probabilities as the difference of [0, gamma, 1]."""
    gamma = np.clip(_masked_logistic(eta), 1e-15, 1.0 - 1e-15)
    edge = eta.shape[:-1] + (1,)
    probs = np.diff(np.concatenate([np.zeros(edge), gamma, np.ones(edge)], axis=-1), axis=-1)
    return np.clip(probs, 0.0, 1.0)


def _bitwise_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    return actual.shape == expected.shape and np.array_equal(
        actual.view(np.int64), expected.view(np.int64)
    )


# logit(1e-15): beyond about |34.54| the probabilities sit at the clip floor
_FLOOR_ETA = float(np.log(1e-15) - np.log1p(-1e-15))
_EDGES = [-40.0, 40.0, -0.0, 0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0]
for _x in (_FLOOR_ETA, -_FLOOR_ETA):
    _EDGES += [_x, np.nextafter(_x, -np.inf), np.nextafter(_x, np.inf), _x - 1e-9, _x + 1e-9]
ETA_GRID = np.concatenate([_EDGES, np.linspace(-50.0, 50.0, 2001)])


class TestPinnedFormulas:
    """The single-pass logistic and the preallocated cumulative map are bit
    for bit the formulas they replaced."""

    def test_logistic_grid(self):
        assert _bitwise_equal(logistic(ETA_GRID), _masked_logistic(ETA_GRID))

    def test_logistic_batched_and_scalar(self):
        batch = ETA_GRID[:2016].reshape(224, 9)
        assert _bitwise_equal(logistic(batch), _masked_logistic(batch))
        for x in (-0.0, 0.0, 40.0, -40.0, _FLOOR_ETA):
            assert _bitwise_equal(logistic(x), _masked_logistic(x))

    def test_cumulative_probs_batched(self):
        rng = np.random.default_rng(12)
        rows = np.sort(rng.choice(ETA_GRID, size=(500, 9)), axis=1)
        rows[0] = [-40.0, _FLOOR_ETA, _FLOOR_ETA + 1e-9, -0.0, 0.0, 0.0,
                   -_FLOOR_ETA - 1e-9, -_FLOOR_ETA, 40.0]
        assert _bitwise_equal(category_probs(CUM, rows.T).T,
                              _differenced_cumulative_probs(rows))

    @pytest.mark.parametrize("eta", [[0.0], [-0.0], [-40.0, 40.0], [_FLOOR_ETA, -_FLOOR_ETA]])
    def test_cumulative_probs_vector(self, eta):
        eta = np.array(eta)
        assert _bitwise_equal(category_probs(CUM, eta),
                              _differenced_cumulative_probs(eta))


def _row_loop_cumulative_probs(eta):
    """The cumulative map as its row loop computed it: F clipped to
    [1e-15, 1 - 1e-15] with np.clip, differenced row by row from the top
    down in place, and clipped to [0, 1]."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty((eta.shape[0] + 1,) + eta.shape[1:])
    gamma = np.clip(logistic(eta), 1e-15, 1.0 - 1e-15, out=out[:-1])
    np.subtract(1.0, gamma[-1], out=out[-1, ...])
    for r in range(gamma.shape[0] - 1, 0, -1):
        np.subtract(out[r], out[r - 1], out=out[r, ...])
    return np.clip(out, 0.0, 1.0, out=out)


def _row_loop_adjacent_probs(eta):
    """The adjacent map with its log-weights as running sums added one
    threshold row at a time."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty((eta.shape[0] + 1,) + eta.shape[1:])
    out[0] = 0.0
    for c in range(1, out.shape[0]):
        out[c] = out[c - 1] + eta[c - 1]
    out -= out.max(axis=0)
    np.exp(out, out=out)
    out /= out.sum(axis=0)
    return out


def _noise_zone_rows(rng, q, n=400):
    """(q, n) threshold-first predictors within |40|: every third column
    has consecutive thresholds 1e-13 out of order, the float noise the
    cumulative map accepts, and the next column ties them."""
    eta = np.sort(rng.uniform(-40.0, 40.0, size=(q, n)), axis=0)
    eta[:, 0] = np.linspace(-40.0, 40.0, q)
    eta[:, 1] = 0.0
    eta[1::2, 3::3] = eta[0:q - 1:2, 3::3] - 1e-13
    eta[1::2, 4::3] = eta[0:q - 1:2, 4::3]
    return eta


class TestTrimmedMaps:
    """The one-call differencing, the ufunc clips without the final upper
    bound and the kernel's scratch arguments give the row-loop maps bit for
    bit, in the float-noise zone of crossings and up to |eta| = 40."""

    @pytest.mark.parametrize("q", [1, 2, 4, 9])
    def test_cumulative(self, q):
        eta = _noise_zone_rows(np.random.default_rng(60 + q), q)
        gaps = np.diff(eta, axis=0)
        assert ((gaps < 0.0) & (gaps > -1e-12)).any() or q == 1
        expected = _row_loop_cumulative_probs(eta)
        assert (expected == 0.0).any() or q == 1  # noise crossings clipped to 0
        assert _bitwise_equal(category_probs(CUM, eta), expected)
        # the kernel's call: scratch out and F, and eta itself as the work array
        out, cdf, work = np.empty((q + 1, eta.shape[1])), np.empty_like(eta), eta.copy()
        assert _bitwise_equal(category_probs(CUM, work, out, cdf, work), expected)
        assert _bitwise_equal(cdf, logistic(eta))
        for column in eta.T[:6]:
            assert _bitwise_equal(category_probs(CUM, column), _row_loop_cumulative_probs(column))

    @pytest.mark.parametrize("q", [1, 2, 4, 9])
    def test_adjacent(self, q):
        rng = np.random.default_rng(70 + q)
        eta = np.concatenate([_noise_zone_rows(rng, q), rng.uniform(-40.0, 40.0, (q, 400))], axis=1)
        expected = _row_loop_adjacent_probs(eta)
        assert _bitwise_equal(category_probs(ADJ, eta), expected)
        out = np.empty((q + 1, eta.shape[1]))
        assert _bitwise_equal(category_probs(ADJ, eta, out), expected)
        for column in eta.T[:6]:
            assert _bitwise_equal(category_probs(ADJ, column), _row_loop_adjacent_probs(column))


def _cumsum_adjacent_probs(eta):
    """The adjacent map as concatenate + cumsum of the log-weights, with
    numpy's max and sum along the category axis."""
    eta = np.asarray(eta, dtype=float)
    zeros = np.zeros(eta.shape[:-1] + (1,))
    logw = np.concatenate([zeros, np.cumsum(eta, axis=-1)], axis=-1)
    logw -= logw.max(axis=-1, keepdims=True)
    w = np.exp(logw)
    return w / w.sum(axis=-1, keepdims=True)


class TestAdjacentProbs:
    @pytest.mark.parametrize("q", [1, 2, 4, 9])
    def test_matches_cumsum_form(self, q):
        # per-threshold values of +-700 put log-weights thousands apart
        # (overflow safety) and drive some probabilities into subnormals,
        # where only an absolute bound of the smallest normal number holds
        rng = np.random.default_rng(40 + q)
        grid = np.concatenate([[-700.0, 700.0, -699.5, 699.5, -0.0, 0.0, 1e-300],
                               np.linspace(-50.0, 50.0, 201)])
        rows = rng.choice(grid, size=(3000, q))
        rows[0], rows[1] = 700.0, -700.0
        rows[2] = np.resize([700.0, -700.0], q)

        def close(eta):
            new, old = category_probs(ADJ, eta.T).T, _cumsum_adjacent_probs(eta)
            bound = 1e-14 * old + np.finfo(float).tiny
            return np.all(np.isfinite(new)) and np.all(np.abs(new - old) <= bound)

        assert close(rows)
        assert all(close(row) for row in rows[:3])  # vector inputs

    def test_uniform(self):
        probs = category_probs(ADJ, [0.0, 0.0, 0.0])
        assert probs == pytest.approx([0.25] * 4, abs=1e-15)

    def test_doubling_odds(self):
        probs = category_probs(ADJ, [np.log(2), np.log(2)])
        assert probs == pytest.approx([1 / 7, 2 / 7, 4 / 7], abs=1e-14)

    def test_binary_reduction(self):
        for c in (-3.0, -0.2, 0.0, 1.7):
            probs = category_probs(ADJ, [c])
            assert probs[1] == pytest.approx(clipped_cdf(c), abs=1e-14)

    def test_reproduces_log_odds(self):
        rng = np.random.default_rng(5)
        eta = rng.normal(size=6)
        probs = category_probs(ADJ, eta)
        assert np.log(probs[1:] / probs[:-1]) == pytest.approx(eta, abs=1e-12)

    def test_overflow_guard(self):
        probs = category_probs(ADJ, [400.0, 400.0, -800.0])
        assert np.all(np.isfinite(probs))
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        # the normalization must cancel any common constant in the log weights
        rng = np.random.default_rng(9)
        for scale in (0.5, 5.0, 50.0):
            eta = rng.normal(scale=scale, size=7)
            direct = np.exp(np.concatenate([[0.0], np.cumsum(eta)]))
            direct /= direct.sum()
            probs = category_probs(ADJ, eta)
            assert probs == pytest.approx(direct, abs=1e-12)


class TestScalingFactor:
    def test_paper_threshold_diagram(self):
        # w_r = r - k/2 at thresholds r = 1..5 of k = 6
        assert list(scaling_factors(CUM, 6)) == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_adjacent_diagram(self):
        assert list(scaling_factors(ADJ, 6)) == [2.0, 1.0, 0.0, -1.0, -2.0]

    def test_reverse_flips_sign(self):
        for kind in ("cumulative", "adjacent"):
            for k in (3, 6, 9):
                fwd = scaling_factors(Family(kind), k)
                rev = scaling_factors(Family(kind, reverse=True), k)
                assert np.array_equal(rev, -fwd)

    def test_centered_weights(self):
        for kind in ("cumulative", "adjacent"):
            for reverse in (False, True):
                for k in range(2, 16):
                    w = scaling_factors(Family(kind, reverse), k)
                    assert abs(w.sum()) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            scaling_factors(Family("cumulative"), 1)

    def test_unknown_family(self):
        with pytest.raises(InvalidInputError):
            Family("sequential")
