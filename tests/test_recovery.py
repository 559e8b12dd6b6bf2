import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orthonormal_columns
from linfrec.adversarial import build_masking_vector
from linfrec.core import (
    Dims,
    Ensemble,
    MeasurementMatrix,
    ModelTag,
    NoiseVector,
    SparseVector,
    build_instance,
    sample_ensemble,
)
from linfrec.linops import IndexSet, restricted_ols
from linfrec.recovery import (
    IhtParams,
    ObliviousParams,
    ReductionParams,
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
    return SparseVector.from_dense(theta, budget=k)


def linf_error(rep, truth):
    return float(np.max(np.abs(rep.estimate.values - truth.values), initial=0.0))


def gram_noise(x, noise):
    """||X^T xi||_inf."""
    return float(np.max(np.abs(x.data.T @ noise.values), initial=0.0))


class TestIhtParams:
    def test_zero_iterations_when_r_exceeds_R(self):
        assert IhtParams(k=1, R=1.0, r=2.0).max_iters == 0
        assert IhtParams(k=1, R=1.0, r=1.0).max_iters == 0

    @settings(max_examples=50, deadline=None)
    @given(
        R=st.floats(1e-6, 1e6, allow_nan=False),
        r=st.floats(1e-6, 1e6, allow_nan=False),
    )
    def test_iteration_count_formula(self, R, r):
        p = IhtParams(k=1, R=R, r=r)
        if r >= R:
            assert p.max_iters == 0
        else:
            assert p.max_iters == math.ceil(math.log2(R / r))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            IhtParams(k=1, R=0.0, r=1.0)


class TestIht:
    def test_identity_design_exact_in_one_iteration(self, rng):
        d, k = 12, 3
        truth = make_signal(d, k, rng, values=np.array([2.0, -1.0, 0.5]))
        x = MeasurementMatrix.explicit(np.eye(d))
        y = x.data @ truth.values
        rep = iht(x, y, IhtParams(k=k, R=3.0, r=0.4), record_iterates=True)
        assert linf_error(rep, truth) == 0.0
        # the gradient step lands on the signal at the very first iterate
        assert np.array_equal(rep.diagnostics["iterates"][1], truth.values)

    def test_r_at_least_R_returns_zero(self, rng):
        x = sample_ensemble(Dims(n=10, d=5, k=2), Ensemble.GAUSSIAN_SCALED, 0)
        rep = iht(x, np.ones(10), IhtParams(k=2, R=1.0, r=2.0))
        assert rep.iterations == 0
        assert np.array_equal(rep.estimate.values, np.zeros(5))

    def test_output_sparsity(self, rng):
        x = sample_ensemble(Dims(n=50, d=30, k=4), Ensemble.GAUSSIAN_SCALED, 1)
        rep = iht(x, rng.standard_normal(50), IhtParams(k=4, R=10.0, r=0.1))
        assert rep.estimate.nnz <= 4

    def test_l2_bound_monte_carlo(self):
        # error <= r + 5 sqrt(3k) ||X^T xi||_inf in >= 95% of seeded trials
        n, d, k, trials = 1200, 4000, 10, 100
        hits = 0
        for t in range(trials):
            master = np.random.default_rng(5000 + t)
            x = sample_ensemble(Dims(n=n, d=d, k=k), Ensemble.GAUSSIAN_SCALED, 5000 + t)
            truth = make_signal(d, k, master)
            noise = NoiseVector.gaussian(n, 0.05, 6000 + t)
            inst = build_instance(x, truth, noise, ModelTag.OBLIVIOUS)
            r = 0.1
            rep = iht(x, inst.y, IhtParams(k=k, R=float(np.linalg.norm(truth.values)), r=r))
            bound = r + 5.0 * math.sqrt(3 * k) * gram_noise(x, noise)
            hits += np.linalg.norm(rep.estimate.values - truth.values) <= bound
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
        y = x @ truth.values
        rep = oblivious_recover(x, y, ObliviousParams(k=k, R=3.0, r=0.01))
        assert linf_error(rep, truth) <= 1e-9

    def test_zero_signal_pure_noise_below_threshold(self, rng):
        n, d = 90, 20
        x = sample_ensemble(Dims(n=n, d=d, k=2), Ensemble.GAUSSIAN_SCALED, 3)
        noise = NoiseVector.gaussian(n, 0.01, 4)
        y = noise.values.copy()
        rep = oblivious_recover(x, y, ObliviousParams(k=2, R=1.0, r=10.0))
        assert np.array_equal(rep.estimate.values, np.zeros(d))
        assert rep.diagnostics["correction_support"] == 0

    def test_truncation_diagnostic(self, rng):
        x = sample_ensemble(Dims(n=91, d=10, k=2), Ensemble.GAUSSIAN_SCALED, 5)
        rep = oblivious_recover(x, rng.standard_normal(91), ObliviousParams(k=2, R=1.0, r=0.5))
        assert rep.diagnostics["truncated_rows"] == 1

    def test_error_within_frozen_constant_smoke(self):
        # scaled-down version of the reference configuration
        n, d, k, trials = 900, 500, 5, 30
        hits = 0
        for t in range(trials):
            master = np.random.default_rng(7000 + t)
            x = sample_ensemble(Dims(n=n, d=d, k=k), Ensemble.GAUSSIAN_SCALED, 7000 + t)
            truth = make_signal(d, k, master)
            noise = NoiseVector.gaussian(n, 0.05, 7500 + t)
            inst = build_instance(x, truth, noise, ModelTag.OBLIVIOUS)
            msig = float(np.max(np.abs(x.data.T @ noise.values)))
            r = msig * math.sqrt(math.log(n))
            rep = oblivious_recover(
                x, inst.y,
                ObliviousParams(k=k, R=float(np.linalg.norm(truth.values)), r=r),
            )
            hits += linf_error(rep, truth) <= 20.0 * r
        assert hits >= 0.9 * trials


class TestReduction:
    def test_r_at_least_R_returns_zero(self, rng):
        x = sample_ensemble(Dims(n=30, d=10, k=2), Ensemble.GAUSSIAN_SCALED, 6)
        rep = osr_reduction(x, rng.standard_normal(30), ReductionParams(k=2, R=1.0, r=1.5))
        assert np.array_equal(rep.estimate.values, np.zeros(10))

    def test_noiseless_orthonormal_splits_exact(self, rng):
        d, k = 12, 2
        R, r = 4.0, 1.0  # two rounds, four top-level blocks
        big_t = math.ceil(math.log2(R / r))
        blocks = []
        for i in range(2 * big_t):
            blocks.append(orthonormal_split_design(d, 3, sub_seed=100 + 3 * i))
        x = np.vstack(blocks) / math.sqrt(2 * big_t)
        truth = make_signal(d, k, rng, values=np.array([2.0, -1.5]))
        y = x @ truth.values
        rep = osr_reduction(x, y, ReductionParams(k=k, R=R, r=r))
        assert rep.diagnostics["stop_round"] is None
        assert linf_error(rep, truth) <= 1e-9

    def _undersampled_instance(self, seed):
        # r two decades below the noise scale: the deep rounds are hopeless
        # and only the holdout check keeps the output sane
        n, d, k = 1200, 1000, 5
        master = np.random.default_rng(seed)
        x = sample_ensemble(Dims(n=n, d=d, k=k), Ensemble.GAUSSIAN_SCALED, seed)
        truth = make_signal(d, k, master)
        noise = NoiseVector.gaussian(n, 0.05, seed + 100)
        inst = build_instance(x, truth, noise, ModelTag.OBLIVIOUS)
        params = ReductionParams(k=k, R=float(np.linalg.norm(truth.values)), r=0.05 / 100)
        return x, inst, params, truth

    def test_failed_holdout_returns_previous_iterate(self):
        x, inst, params, truth = self._undersampled_instance(100)
        rep = osr_reduction(x, inst.y, params)
        assert rep.diagnostics["stop_round"] == 2
        assert rep.diagnostics["stop_reason"] == "holdout_rejection"
        # the returned iterate passed its own holdout: error stays at the
        # validated resolution, far above r but far below the signal scale
        assert linf_error(rep, truth) < 4.0

    def test_inner_solver_failure_counts_as_rejection(self):
        # a seed where the diverging inner warm start floods the correction
        # support before the holdout fires; the round is rejected and the
        # last validated iterate comes back
        x, inst, params, truth = self._undersampled_instance(102)
        rep = osr_reduction(x, inst.y, params)
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
        x = MeasurementMatrix.explicit(np.eye(d))
        y = x.data @ truth.values
        params = IhtParams(k=k, R=1.0, r=0.1)
        rep = iht(x, y, params)
        assert linf_error(rep, truth) == 0.0
        bound = params.r + 2.0 * gram_noise(x, NoiseVector.zero(d))
        assert linf_error(rep, truth) <= bound + ADAPTIVE_BOUND_SLACK

    def _certified_fixture(self, seed, adversarial_noise):
        d, k, n = 100, 2, 4000
        x = sample_ensemble(Dims(n=n, d=d, k=k), Ensemble.GAUSSIAN_SCALED, seed)
        cert = certify_linf_rip(x, epsilon=0.25, s=2 * k, mode="exact")
        assert cert.holds, "fixture must be certified; enlarge n"
        rng = np.random.default_rng(seed)
        truth = make_signal(d, k, rng)
        if adversarial_noise:
            free = np.setdiff1d(np.arange(d), truth.support)
            s = IndexSet(np.sort(rng.choice(free, size=2 * k, replace=False)).astype(np.int64))
            mv = build_masking_vector(x, s, normalize=True)
            noise = NoiseVector.adversarial(x.data @ mv.v.values)
        else:
            noise = NoiseVector.gaussian(n, 0.02, seed + 1)
        inst = build_instance(x, truth, noise, ModelTag.ADAPTIVE)
        return x, inst, cert, truth, noise

    @pytest.mark.parametrize("adversarial_noise", [False, True])
    def test_contraction_per_iteration_on_certified_fixture(self, adversarial_noise):
        x, inst, cert, truth, noise = self._certified_fixture(42, adversarial_noise)
        params = IhtParams(k=truth.budget, R=1.0, r=0.01)
        rep = iht(x, inst.y, params, record_iterates=True)
        eps = cert.achieved
        sigma_m = gram_noise(x, noise)
        iterates = rep.diagnostics["iterates"]
        for prev, nxt in zip(iterates, iterates[1:]):
            half = prev + x.data.T @ (inst.y - x.data @ prev)
            e_half = np.max(np.abs(half - truth.values))
            e_prev = np.max(np.abs(prev - truth.values))
            e_next = np.max(np.abs(nxt - truth.values))
            assert e_half <= eps * e_prev + sigma_m + 1e-9
            assert e_next <= 2 * eps * e_prev + 2 * sigma_m + 1e-9
        assert cert.holds and cert.threshold <= 0.25 and cert.s >= 2 * params.k
        assert linf_error(rep, truth) <= params.r + 2.0 * sigma_m + ADAPTIVE_BOUND_SLACK


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
            noise = NoiseVector.gaussian(n, 0.05, 8500 + t)
            inst = build_instance(x, truth, noise, ModelTag.OBLIVIOUS)
            msig = float(np.max(np.abs(x.data.T @ noise.values)))
            r_inf = float(np.linalg.norm(truth.values)) / math.sqrt(k) + 3.0 * msig
            selected = np.flatnonzero(np.abs(x.data.T @ inst.y) >= r_inf)
            inside = np.all(np.isin(selected, truth.support))
            missed = np.setdiff1d(truth.support, selected)
            small = np.all(np.abs(truth.values[missed]) <= 4.0 * r_inf)
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
            noise = NoiseVector.gaussian(n, 0.05, 9500 + t)
            inst = build_instance(x, truth, noise, ModelTag.OBLIVIOUS)
            sub = IndexSet(np.sort(master.choice(truth.support, size=k // 2, replace=False)).astype(np.int64))
            w = restricted_ols(x, sub, inst.y)
            err = float(np.max(np.abs(w - truth.values[sub.indices])))
            msig = float(np.max(np.abs(x.data.T @ noise.values)))
            bound = 8.0 * msig + float(np.linalg.norm(truth.values)) / math.sqrt(k)
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
            ratio = float(np.max(np.abs(x.data.T @ (x.data @ v)))) / float(np.max(np.abs(v)))
            hits += 0.5 <= ratio <= 2.0
        assert hits >= 0.95 * trials
