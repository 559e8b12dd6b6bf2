import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orthonormal_columns, residual_iht
from linfrec.adversarial import build_masking_vector
from linfrec.core import (
    Dims,
    Ensemble,
    build_instance,
    gaussian_noise,
    sample_ensemble,
)
from linfrec.linops import SolverFailure, hard_threshold_values, restricted_ols
from linfrec.recovery import (
    DEFAULT_HOLDOUT_C,
    DEFAULT_THRESHOLD_C,
    _halvings,
    iht,
    oblivious_recover,
    osr_reduction,
)
from linfrec.ripcert import certify_linf_rip


def make_signal(d, k, rng, values=None):
    support = np.sort(rng.choice(d, size=k, replace=False))
    theta = np.zeros(d)
    if values is None:
        values = rng.choice([-1.0, 1.0], size=k)
    theta[support] = values
    return theta


def linf_error(rep, truth):
    return float(np.max(np.abs(rep.estimate - truth), initial=0.0))


def gram_noise(x, noise):
    """||X^T xi||_inf."""
    return float(np.max(np.abs(x.T @ noise), initial=0.0))


def gain_scaled_instance(n, d, k, gain, seed, noise=0.1):
    """A Gaussian design with gain * X^T X near I, and y = X theta* + noise, theta* k-sparse in +-1."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) / math.sqrt(gain * n)
    return x, x @ make_signal(d, k, rng) + noise * rng.standard_normal(n)


def counting_design(x):
    """``x`` as a view that records each np.matmul with an operand of shape (n, d) or (d, n)."""
    full = {x.shape, x.shape[::-1]}
    calls = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and any(np.shape(a) in full for a in inputs):
                calls.append([np.shape(a) for a in inputs])
            inputs = [a.view(np.ndarray) if isinstance(a, Counting) else a for a in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    return x.view(Counting), calls


# every estimator takes (k, R, r) after (x, y); ``params`` holds those three
ESTIMATORS = pytest.mark.parametrize(
    "estimator, params",
    [(iht, (2, 4.0, 1.0)), (oblivious_recover, (2, 4.0, 1.0)), (osr_reduction, (2, 4.0, 1.0))],
)


@ESTIMATORS
@pytest.mark.parametrize(
    "y, message",
    [
        (np.array([np.nan] + [0.0] * 29), "non-finite"),
        (np.array([0.0] * 29 + [np.inf]), "non-finite"),
        (np.zeros(29), "shape"),
        (np.zeros((30, 1)), "shape"),
    ],
)
def test_estimators_reject_bad_observations(estimator, params, y, message):
    x = sample_ensemble(Dims(n=30, d=10, k=2), Ensemble.GAUSSIAN_SCALED, 5)
    with pytest.raises(ValueError, match=message):
        estimator(x, y, *params)


@ESTIMATORS
@pytest.mark.parametrize("which", ["R", "r"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 10**400], ids=["0.0", "-1.0", "nan", "inf", "huge-int"])
def test_estimators_reject_bad_R_and_r(estimator, params, which, bad):
    x = sample_ensemble(Dims(n=30, d=10, k=2), Ensemble.GAUSSIAN_SCALED, 5)
    k, R, r = params
    R, r = (bad, r) if which == "R" else (R, bad)
    # the message names the values passed in, not a derived resolution
    message = f"R and r must be positive and finite, got R={R!r}, r={r!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        estimator(x, np.zeros(30), k, R, r)


@pytest.mark.parametrize("estimator", [iht, oblivious_recover, osr_reduction])
@pytest.mark.parametrize("R, r", [(4.0, 1.0), (1.0, 2.0)], ids=["R>r", "R<r"])
@pytest.mark.parametrize("bad", [-1, 11, 2.5, True, None], ids=["-1", "d+1", "2.5", "True", "None"])
def test_estimators_reject_bad_k(estimator, R, r, bad):
    # checked before any iteration, so also when R <= r leaves none to run
    x = sample_ensemble(Dims(n=30, d=10, k=2), Ensemble.GAUSSIAN_SCALED, 5)
    with pytest.raises(ValueError, match=re.escape(f"k must be an integer in [0, 10], got k={bad!r}")):
        estimator(x, np.zeros(30), bad, R, r)


@pytest.mark.parametrize("estimator", [iht, oblivious_recover, osr_reduction])
@pytest.mark.parametrize("k", [0, np.int64(3), 10], ids=["0", "int64", "d"])
def test_estimators_take_any_k_from_0_to_d(estimator, k):
    x = sample_ensemble(Dims(n=30, d=10, k=2), Ensemble.GAUSSIAN_SCALED, 5)
    rep = estimator(x, x @ np.ones(10), k, 20.0, 1.0)
    assert rep.estimate.shape == (10,)
    if estimator is not oblivious_recover:  # its correction on L is not thresholded to k
        assert np.count_nonzero(rep.estimate) <= k


@pytest.mark.parametrize(
    "R, r", [(4.0, 1.0), (1.0, 0.1), (5.0, 4.9), (1e6, 1e-6), (4.63, 2.315), (58.92, 58.92 / 8)]
)
def test_halvings_is_ceil_log2_of_the_ratio(R, r):
    # the last two ratios are exactly 2 and 8, where log2(R) - log2(r) reads
    # 1.0000000000000002 and 3.0000000000000004 and would add a halving
    assert _halvings(R, r) == math.ceil(math.log2(R / r))


def test_halvings_survive_a_ratio_beyond_the_float_range():
    # 1e300 / 1e-300 overflows; its base-2 logarithm is 1993.16
    x = sample_ensemble(Dims(n=30, d=10, k=2), Ensemble.GAUSSIAN_SCALED, 5)
    assert iht(x, np.zeros(30), 2, 1e300, 1e-300).iterations == 1994


@pytest.mark.parametrize("seed", range(3))
def test_estimates_keep_the_sparsity_they_promise(seed):
    # a dense signal: no estimate is sparse unless the estimator makes it so
    rng = np.random.default_rng(seed)
    n, d, k = 600, 60, 4
    x = rng.standard_normal((n, d)) / math.sqrt(n)
    y = x @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    for rep in (iht(x, y, k, 10.0, 0.01), osr_reduction(x, y, k, 10.0, 0.01)):
        assert np.count_nonzero(rep.estimate) <= k
    rep = oblivious_recover(x, y, k, 10.0, 0.01)
    correction = rep.diagnostics["correction_support"]
    assert correction > 0  # so the bound below is more than k
    assert k < np.count_nonzero(rep.estimate) <= k + correction


class TestIhtParams:
    def test_zero_iterations_when_r_exceeds_R(self):
        x = sample_ensemble(Dims(n=10, d=5, k=1), Ensemble.GAUSSIAN_SCALED, 0)
        assert iht(x, np.ones(10), 1, 1.0, 2.0).iterations == 0
        assert iht(x, np.ones(10), 1, 1.0, 1.0).iterations == 0


class TestIht:
    @settings(max_examples=50, deadline=None)
    @given(
        R=st.floats(1e-6, 1e6, allow_nan=False),
        r=st.floats(1e-6, 1e6, allow_nan=False),
    )
    def test_iteration_count_formula(self, R, r):
        x = sample_ensemble(Dims(n=10, d=5, k=1), Ensemble.GAUSSIAN_SCALED, 0)
        rep = iht(x, np.ones(10), 1, R, r)
        if r >= R:
            assert rep.iterations == 0
        else:
            assert rep.iterations == math.ceil(math.log2(R / r))

    def test_identity_design_exact_in_one_iteration(self, rng):
        d, k = 12, 3
        truth = make_signal(d, k, rng, values=np.array([2.0, -1.0, 0.5]))
        x = np.eye(d)
        y = x @ truth
        rep = iht(x, y, k, 3.0, 0.4)
        assert linf_error(rep, truth) == 0.0
        # the gradient step lands on the signal at the very first iterate,
        # which iht at resolution R/2 runs alone
        assert np.array_equal(iht(x, y, k, 3.0, 3.0 / 2).estimate, truth)

    def test_r_at_least_R_returns_zero(self, rng):
        x = sample_ensemble(Dims(n=10, d=5, k=2), Ensemble.GAUSSIAN_SCALED, 0)
        rep = iht(x, np.ones(10), 2, 1.0, 2.0)
        assert rep.iterations == 0
        assert np.array_equal(rep.estimate, np.zeros(5))

    def test_output_sparsity(self, rng):
        x = sample_ensemble(Dims(n=50, d=30, k=4), Ensemble.GAUSSIAN_SCALED, 1)
        rep = iht(x, rng.standard_normal(50), 4, 10.0, 0.1)
        assert np.count_nonzero(rep.estimate) <= 4

    @pytest.mark.parametrize(
        "n, d, k, gain, iterations, seeds",
        [
            (6744, 2000, 16, 1.0, 11, range(3)),  # criterion 10's warm block
            (120, 40, 4, 1.0, 8, range(6)),
            (120, 40, 4, 3.0, 8, range(6)),
            (300, 100, 5, 10.0, 9, range(6)),  # gain 2T at T = 5 rounds
            (80, 20, 20, 3.0, 6, range(6)),  # k = d: no coordinate is dropped
            (120, 40, 4, 3.0, 0, range(2)),
        ],
        ids=["warm-block", "small-gain1", "small-gain3", "small-gain2T", "k=d", "zero-iterations"],
    )
    def test_matches_residual_form(self, n, d, k, gain, iterations, seeds):
        for seed in seeds:
            x, y = gain_scaled_instance(n, d, k, gain, seed)
            ref = residual_iht(x, y, k, iterations, gain)
            rep = iht(x, y, k, 2.0**iterations, 1.0, gain=gain)
            assert rep.iterations == iterations
            assert np.array_equal(np.flatnonzero(rep.estimate), np.flatnonzero(ref))
            tol = 1e-12 * (1.0 + float(np.max(np.abs(ref))))
            assert float(np.max(np.abs(rep.estimate - ref))) <= tol
            # the first iteration, from zero, is the residual form bit for bit
            assert np.array_equal(iht(x, y, k, 2.0, 1.0, gain=gain).estimate, residual_iht(x, y, k, 1, gain))

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("noise", [0.1, 0.5], ids=["settled", "churning"])
    def test_reads_the_design_once_plus_once_per_entering_iteration(self, noise, seed):
        # at noise 0.1 the support settles after the first iteration; at 0.5 a
        # column enters in every one
        n, d, k, iterations = 600, 200, 8, 10
        x, y = gain_scaled_instance(n, d, k, 1.0, seed, noise)
        entering = 0
        for t in range(1, iterations + 1):
            before, after = (set(np.flatnonzero(residual_iht(x, y, k, i))) for i in (t - 1, t))
            entering += not after <= before
        counted, calls = counting_design(x)
        rep = iht(counted, y, k, 2.0**iterations, 1.0)
        assert np.array_equal(np.flatnonzero(rep.estimate), np.flatnonzero(residual_iht(x, y, k, iterations)))
        # the residual form makes two such products in every iteration
        assert 1 <= len(calls) <= 1 + entering < 2 * iterations

    def test_l2_bound_monte_carlo(self):
        # error <= r + 5 sqrt(3k) ||X^T xi||_inf in >= 95% of seeded trials
        n, d, k, trials = 1200, 4000, 10, 100
        hits = 0
        for t in range(trials):
            master = np.random.default_rng(5000 + t)
            x = sample_ensemble(Dims(n=n, d=d, k=k), Ensemble.GAUSSIAN_SCALED, 5000 + t)
            truth = make_signal(d, k, master)
            noise = gaussian_noise(n, 0.05, 6000 + t)
            inst = build_instance(x, truth, noise, k)
            r = 0.1
            rep = iht(x, inst.y, k, float(np.linalg.norm(truth)), r)
            bound = r + 5.0 * math.sqrt(3 * k) * gram_noise(x, noise)
            hits += np.linalg.norm(rep.estimate - truth) <= bound
        assert hits >= 0.95 * trials


def orthonormal_split_design(d, blocks, sub_seed=0):
    """Stacked design whose per-split rescale yields exactly orthonormal blocks."""
    parts = [orthonormal_columns(d, d, seed=sub_seed + j) for j in range(blocks)]
    return np.vstack(parts) / math.sqrt(blocks)


class TestOblivious:
    def test_noiseless_orthonormal_splits_exact(self, rng):
        d, k = 16, 3
        x = orthonormal_split_design(d, 3, sub_seed=10)
        truth = make_signal(d, k, rng, values=np.array([1.0, -2.0, 0.75]))
        y = x @ truth
        rep = oblivious_recover(x, y, k, 3.0, 0.01)
        assert linf_error(rep, truth) <= 1e-9

    def test_zero_signal_pure_noise_below_threshold(self, rng):
        n, d = 90, 20
        x = sample_ensemble(Dims(n=n, d=d, k=2), Ensemble.GAUSSIAN_SCALED, 3)
        noise = gaussian_noise(n, 0.01, 4)
        y = noise.copy()
        rep = oblivious_recover(x, y, 2, 1.0, 10.0)
        assert np.array_equal(rep.estimate, np.zeros(d))
        assert rep.diagnostics["correction_support"] == 0

    def test_truncation_diagnostic(self, rng):
        x = sample_ensemble(Dims(n=91, d=10, k=2), Ensemble.GAUSSIAN_SCALED, 5)
        rep = oblivious_recover(x, rng.standard_normal(91), 2, 1.0, 0.5)
        assert rep.diagnostics["truncated_rows"] == 1

    def test_fewer_rows_than_thirds_raise(self):
        # two rows leave the last third empty, and the zero estimate came back as recovered
        x = sample_ensemble(Dims(n=2, d=10, k=2), Ensemble.GAUSSIAN_SCALED, 5)
        with pytest.raises(ValueError, match=re.escape("n=2 is too few rows for 3 blocks of at least 1; need n >= 3")):
            oblivious_recover(x, np.ones(2), 2, 1.0, 0.5)

    def test_error_within_frozen_constant_smoke(self):
        # scaled-down version of the reference configuration
        n, d, k, trials = 900, 500, 5, 30
        hits = 0
        for t in range(trials):
            master = np.random.default_rng(7000 + t)
            x = sample_ensemble(Dims(n=n, d=d, k=k), Ensemble.GAUSSIAN_SCALED, 7000 + t)
            truth = make_signal(d, k, master)
            noise = gaussian_noise(n, 0.05, 7500 + t)
            inst = build_instance(x, truth, noise, k)
            msig = float(np.max(np.abs(x.T @ noise)))
            r = msig * math.sqrt(math.log(n))
            rep = oblivious_recover(x, inst.y, k, float(np.linalg.norm(truth)), r)
            hits += linf_error(rep, truth) <= 20.0 * r
        assert hits >= 0.9 * trials


def _rescaled_blocks(x, y, parts):
    size = x.shape[0] // parts
    scale = math.sqrt(parts)
    return [(scale * x[i * size : (i + 1) * size], scale * y[i * size : (i + 1) * size]) for i in range(parts)]


def rescaled_oblivious(x, y, k, R, r):
    """The three-phase pipeline on explicitly rescaled thirds, with no gain."""
    (x1, y1), (x2, y2), (x3, y3) = _rescaled_blocks(x, y, 3)
    theta = iht(x1, y1, k, R, math.sqrt(k) * r).estimate
    corr = x2.T @ (y2 - x2 @ theta)
    l_idx = np.flatnonzero(np.abs(corr) >= r / DEFAULT_THRESHOLD_C)
    out = theta.copy()
    if len(l_idx):
        out[l_idx] += restricted_ols(x3, l_idx, y3 - x3 @ theta)
    return out


def rescaled_reduction(x, y, k, R, r):
    """The holdout reduction on explicitly rescaled blocks, with no gain."""
    big_t = math.ceil(math.log2(R / r))
    blocks = _rescaled_blocks(x, y, 2 * big_t)
    theta, rho = np.zeros(x.shape[1]), R
    for t in range(big_t):
        rho /= 2.0
        nxt = hard_threshold_values(rescaled_oblivious(*blocks[2 * t], k, R, rho), k)
        xh, yh = blocks[2 * t + 1]
        if np.max(np.abs(xh.T @ (yh - xh @ nxt))) > rho / DEFAULT_HOLDOUT_C:
            break
        theta = nxt
    return theta


def _block_instance():
    # one of six row blocks of a design, as the reduction hands its inner rounds
    x = sample_ensemble(Dims(n=6 * 301, d=60, k=4), Ensemble.GAUSSIAN_SCALED, 17)[:301]
    truth = make_signal(60, 4, np.random.default_rng(18), values=[3.0, -2.0, 2.5, 1.5])
    return x, x @ truth + 0.01 * np.random.default_rng(19).standard_normal(301)


@pytest.mark.parametrize("gain", [1.0, 6.0])
def test_correlation_gains_match_rescaled_rows(gain):
    # the estimators weight correlations by the split count instead of forming
    # sqrt(parts) * x; restricted least squares stops at a
    # residual of 1e-9 * (1 + |b|), not at roundoff
    x, y = _block_instance()
    scaled_x, scaled_y = math.sqrt(gain) * x, math.sqrt(gain) * y
    params = (4, 8.0, 5e-4)  # k, R, r
    got = iht(x, y, *params, gain=gain).estimate
    np.testing.assert_allclose(got, iht(scaled_x, scaled_y, *params).estimate, rtol=1e-12, atol=1e-12)
    rep = oblivious_recover(x, y, *params, gain=gain)
    assert rep.diagnostics["correction_support"] > 0
    np.testing.assert_allclose(rep.estimate, rescaled_oblivious(scaled_x, scaled_y, *params), rtol=0, atol=1e-7)


def test_reduction_matches_rescaled_blocks():
    for seed in range(3):
        x = sample_ensemble(Dims(n=2400, d=80, k=3), Ensemble.GAUSSIAN_SCALED, 40 + seed)
        truth = make_signal(80, 3, np.random.default_rng(50 + seed))
        y = x @ truth + 0.05 * np.random.default_rng(60 + seed).standard_normal(2400)
        params = (3, float(np.linalg.norm(truth)), 5e-4)  # k, R, r
        rep = osr_reduction(x, y, *params)
        np.testing.assert_allclose(rep.estimate, rescaled_reduction(x, y, *params), rtol=0, atol=1e-7)


class TestReduction:
    def test_r_at_least_R_returns_zero(self, rng):
        x = sample_ensemble(Dims(n=30, d=10, k=2), Ensemble.GAUSSIAN_SCALED, 6)
        rep = osr_reduction(x, rng.standard_normal(30), 2, 1.0, 1.5)
        assert np.array_equal(rep.estimate, np.zeros(10))

    def test_blocks_too_small_to_split_raise(self):
        # 5 rows over T = 7 rounds: every holdout block was empty and validated the zero estimate
        x = sample_ensemble(Dims(n=5, d=10, k=2), Ensemble.GAUSSIAN_SCALED, 6)
        message = "n=5 is too few rows for 14 blocks of at least 3; need n >= 42"
        with pytest.raises(ValueError, match=re.escape(message)):
            osr_reduction(x, np.ones(5), 2, 1.0, 1.0 / 128)

    def test_noiseless_orthonormal_splits_exact(self, rng):
        d, k = 12, 2
        R, r = 4.0, 1.0  # two rounds, four top-level blocks
        big_t = math.ceil(math.log2(R / r))
        blocks = []
        for i in range(2 * big_t):
            blocks.append(orthonormal_split_design(d, 3, sub_seed=100 + 3 * i))
        x = np.vstack(blocks) / math.sqrt(2 * big_t)
        truth = make_signal(d, k, rng, values=np.array([2.0, -1.5]))
        y = x @ truth
        rep = osr_reduction(x, y, k, R, r)
        assert rep.diagnostics["stop_round"] is None
        assert linf_error(rep, truth) <= 1e-9

    def _undersampled_instance(self, seed):
        # r two decades below the noise scale: the deep rounds are hopeless
        # and only the holdout check keeps the output sane
        n, d, k = 1200, 1000, 5
        master = np.random.default_rng(seed)
        x = sample_ensemble(Dims(n=n, d=d, k=k), Ensemble.GAUSSIAN_SCALED, seed)
        truth = make_signal(d, k, master)
        noise = gaussian_noise(n, 0.05, seed + 100)
        inst = build_instance(x, truth, noise, k)
        params = (k, float(np.linalg.norm(truth)), 0.05 / 100)  # k, R, r
        return x, inst, params, truth

    def test_failed_holdout_returns_previous_iterate(self):
        x, inst, params, truth = self._undersampled_instance(100)
        rep = osr_reduction(x, inst.y, *params)
        assert rep.diagnostics["stop_round"] == 2
        assert rep.diagnostics["stop_reason"] == "holdout_rejection"
        # the returned iterate passed its own holdout: error stays at the
        # validated resolution, far above r but far below the signal scale
        assert linf_error(rep, truth) < 4.0

    def test_inner_solver_failure_counts_as_rejection(self, monkeypatch):
        # the inner least-squares step is made to fail; the round is rejected
        # and the last validated iterate comes back
        def failing_solve(x, s, rhs):
            raise SolverFailure("restricted least-squares did not converge", 1.0)

        monkeypatch.setattr("linfrec.recovery.restricted_ols", failing_solve)
        x, inst, params, truth = self._undersampled_instance(102)
        rep = osr_reduction(x, inst.y, *params)
        assert rep.diagnostics["stop_reason"] == "inner_solver_failure"
        # error sits at the last validated resolution, not at the junk scale
        assert linf_error(rep, truth) < 8.0


# IHT in the adaptive regime: R bounds ||theta*||_inf and, under a sup-norm RIP
# certificate at (eps <= 1/4, 2k), the error is at most r + 2 ||X^T xi||_inf.
ADAPTIVE_BOUND_SLACK = 1e-12


class TestAdaptiveIht:
    def test_identity_exact(self, rng):
        d, k = 10, 2
        truth = make_signal(d, k, rng, values=np.array([1.0, -0.5]))
        x = np.eye(d)
        y = x @ truth
        r = 0.1
        rep = iht(x, y, k, 1.0, r)
        assert linf_error(rep, truth) == 0.0
        bound = r + 2.0 * gram_noise(x, np.zeros(d))
        assert linf_error(rep, truth) <= bound + ADAPTIVE_BOUND_SLACK

    def _certified_fixture(self, seed, adversarial_noise):
        d, k, n = 100, 2, 4000
        x = sample_ensemble(Dims(n=n, d=d, k=k), Ensemble.GAUSSIAN_SCALED, seed)
        cert = certify_linf_rip(x, epsilon=0.25, s=2 * k, mode="exact")
        assert cert.holds, "fixture must be certified; enlarge n"
        rng = np.random.default_rng(seed)
        truth = make_signal(d, k, rng)
        if adversarial_noise:
            free = np.setdiff1d(np.arange(d), np.flatnonzero(truth))
            s = np.sort(rng.choice(free, size=2 * k, replace=False))
            noise = x @ build_masking_vector(x, s, normalize=True)
        else:
            noise = gaussian_noise(n, 0.02, seed + 1)
        inst = build_instance(x, truth, noise, k)
        return x, inst, cert, truth, noise

    @pytest.mark.parametrize("adversarial_noise", [False, True])
    def test_contraction_per_iteration_on_certified_fixture(self, adversarial_noise):
        x, inst, cert, truth, noise = self._certified_fixture(42, adversarial_noise)
        k, R, r = 2, 1.0, 0.01
        rep = iht(x, inst.y, k, R, r)
        eps = cert.achieved
        sigma_m = gram_noise(x, noise)
        # iht at resolution R / 2**t runs exactly t steps from zero
        iterates = [iht(x, inst.y, k, R, R / 2**t).estimate for t in range(rep.iterations + 1)]
        for prev, nxt in zip(iterates, iterates[1:]):
            half = prev + x.T @ (inst.y - x @ prev)
            e_half = np.max(np.abs(half - truth))
            e_prev = np.max(np.abs(prev - truth))
            e_next = np.max(np.abs(nxt - truth))
            assert e_half <= eps * e_prev + sigma_m + 1e-9
            assert e_next <= 2 * eps * e_prev + 2 * sigma_m + 1e-9
        assert cert.holds and cert.threshold <= 0.25 and cert.s >= 2 * k
        assert linf_error(rep, truth) <= r + 2.0 * sigma_m + ADAPTIVE_BOUND_SLACK


class TestSupportIdentificationThreshold:
    def test_threshold_conclusions_hold(self):
        # with the stated threshold: selected set inside the support, missed
        # entries at most four thresholds
        n, d, k, trials = 1000, 2000, 10, 60
        hits = 0
        for t in range(trials):
            master = np.random.default_rng(8000 + t)
            x = sample_ensemble(Dims(n=n, d=d, k=k), Ensemble.GAUSSIAN_SCALED, 8000 + t)
            values = np.concatenate([
                master.choice([-8.0, 8.0], size=k // 2),
                master.choice([-0.5, 0.5], size=k - k // 2),
            ])
            truth = make_signal(d, k, master, values=values)
            noise = gaussian_noise(n, 0.05, 8500 + t)
            inst = build_instance(x, truth, noise, k)
            msig = float(np.max(np.abs(x.T @ noise)))
            r_inf = float(np.linalg.norm(truth)) / math.sqrt(k) + 3.0 * msig
            selected = np.flatnonzero(np.abs(x.T @ inst.y) >= r_inf)
            inside = np.all(np.isin(selected, np.flatnonzero(truth)))
            missed = np.setdiff1d(np.flatnonzero(truth), selected)
            small = np.all(np.abs(truth[missed]) <= 4.0 * r_inf)
            hits += inside and small
        assert hits >= 0.95 * trials


class TestRestrictedOlsErrorBound:
    def test_restricted_ols_error_bound(self):
        # independent subset of the support: sup-norm error at most
        # 8 ||X^T xi||_inf + ||theta*||_2 / sqrt(k)
        n, d, k, trials = 1000, 2000, 10, 60
        hits = 0
        for t in range(trials):
            master = np.random.default_rng(9000 + t)
            x = sample_ensemble(Dims(n=n, d=d, k=k), Ensemble.GAUSSIAN_SCALED, 9000 + t)
            truth = make_signal(d, k, master)
            noise = gaussian_noise(n, 0.05, 9500 + t)
            inst = build_instance(x, truth, noise, k)
            sub = np.sort(master.choice(np.flatnonzero(truth), size=k // 2, replace=False))
            w = restricted_ols(x, sub, inst.y)
            err = float(np.max(np.abs(w - truth[sub])))
            msig = float(np.max(np.abs(x.T @ noise)))
            bound = 8.0 * msig + float(np.linalg.norm(truth)) / math.sqrt(k)
            hits += err <= bound
        assert hits >= 0.95 * trials


class TestNormPreservation:
    def test_gram_preserves_sup_norm_of_sparse_vectors(self):
        # for a fixed 2k-sparse vector and a fresh design, the correlation
        # vector keeps the sup norm within a factor of two
        n, d, k, trials = 760, 2000, 10, 60
        master = np.random.default_rng(321)
        v = np.zeros(d)
        support = np.sort(master.choice(d, size=2 * k, replace=False))
        v[support] = master.choice([-1.0, 1.0], size=2 * k)
        hits = 0
        for t in range(trials):
            x = sample_ensemble(Dims(n=n, d=d, k=k), Ensemble.GAUSSIAN_SCALED, 10_000 + t)
            ratio = float(np.max(np.abs(x.T @ (x @ v)))) / float(np.max(np.abs(v)))
            hits += 0.5 <= ratio <= 2.0
        assert hits >= 0.95 * trials
