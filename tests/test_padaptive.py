import math

import numpy as np
import pytest

from conftest import orthonormal_columns
from linfrec.core import Dims, Ensemble, MeasurementMatrix, SparseVector
from linfrec.linops import IndexSet
from linfrec.padaptive import (
    MaskedOracle,
    SupportBlowupError,
    SupportEstimatorParams,
    adaptive_support_recover,
    default_r_inf,
    threshold_stats,
)


def sparse(d, support, values, budget=None):
    theta = np.zeros(d)
    theta[np.asarray(support)] = values
    return SparseVector.from_dense(theta, budget=budget or len(support))


def make_oracle(d=50, k=3, sigma=0.5, seed=11, truth=None, n=300):
    truth = truth if truth is not None else sparse(d, [1, 7, 20], [3.0, -2.0, 5.0])
    return MaskedOracle(Dims(n=n, d=d, k=k), truth, sigma, master_seed=seed)


class TestMaskedOracle:
    def test_mask_all_signal_yields_pure_noise(self):
        truth = sparse(30, [2, 5], [1.0, -4.0])
        a = MaskedOracle(Dims(n=100, d=30, k=2), truth, 0.7, master_seed=5)
        _, y_masked = a.masked_observe(20, IndexSet(truth.support))
        # same seed and query index with a zero truth reproduces the noise
        b = MaskedOracle(Dims(n=100, d=30, k=2), SparseVector.zeros(30, 2), 0.7, master_seed=5)
        _, y_noise = b.masked_observe(20, IndexSet.from_iterable([]))
        assert np.array_equal(y_masked, y_noise)

    def test_no_mask_no_noise(self):
        truth = sparse(30, [4], [2.0])
        o = MaskedOracle(Dims(n=100, d=30, k=1), truth, 0.0, master_seed=6)
        x, y = o.masked_observe(25, IndexSet.from_iterable([]))
        assert np.array_equal(y, x.data @ truth.values)

    def test_replay_determinism(self):
        o1 = make_oracle(seed=42)
        o2 = make_oracle(seed=42)
        for mask in ([], [1], [1, 7]):
            x1, y1 = o1.masked_observe(15, IndexSet.from_iterable(mask))
            x2, y2 = o2.masked_observe(15, IndexSet.from_iterable(mask))
            assert np.array_equal(x1.data, x2.data)
            assert np.array_equal(y1, y2)

    def test_masked_columns_are_zero(self):
        o = make_oracle()
        mask = IndexSet.from_iterable([0, 3, 9])
        x, _ = o.masked_observe(12, mask)
        assert np.all(x.data[:, mask.indices] == 0.0)

    def test_masking_soundness(self):
        # truths that agree off the mask produce identical observations
        mask = IndexSet.from_iterable([2, 5])
        t1 = sparse(30, [2, 5, 11], [9.0, -9.0, 1.5], budget=3)
        t2 = sparse(30, [5, 11], [123.0, 1.5], budget=3)
        o1 = MaskedOracle(Dims(n=50, d=30, k=3), t1, 0.3, master_seed=8)
        o2 = MaskedOracle(Dims(n=50, d=30, k=3), t2, 0.3, master_seed=8)
        _, y1 = o1.masked_observe(18, mask)
        _, y2 = o2.masked_observe(18, mask)
        assert np.array_equal(y1, y2)

    def test_fresh_blocks_per_query(self):
        o = make_oracle()
        x1, _ = o.masked_observe(10, IndexSet.from_iterable([]))
        x2, _ = o.masked_observe(10, IndexSet.from_iterable([]))
        assert not np.array_equal(x1.data, x2.data)

    def test_noise_corr_recorded_but_not_transcribed(self):
        # with a zero truth the observation is the noise itself
        o = MaskedOracle(Dims(n=100, d=30, k=2), SparseVector.zeros(30, 2), 0.7, master_seed=5)
        x, y = o.masked_observe(20, IndexSet.from_iterable([3]))
        assert o.query_log[0].noise_corr == float(np.max(np.abs(x.data.T @ y)))
        assert "noise_corr" not in o.transcript_json()

    def test_transcript_replay(self):
        o = make_oracle(seed=77)
        obs = [o.masked_observe(10, IndexSet.from_iterable(m)) for m in ([], [1, 7], [0])]
        replayed = MaskedOracle.replay(o.transcript_json(), o.truth)
        for (x1, y1), (x2, y2) in zip(obs, replayed):
            assert np.array_equal(x1.data, x2.data)
            assert np.array_equal(y1, y2)


class TestThresholdStats:
    def test_noiseless_orthonormal_below_min_signal(self):
        q = orthonormal_columns(20, 10, seed=9)
        truth = sparse(10, [2, 6], [3.0, -1.5])
        y = q @ truth.values
        stats = threshold_stats(q, y, truth, threshold=1.0)
        assert len(stats.s_fp) == 0 and len(stats.s_fn) == 0
        assert stats.fn_energy_ratio == 0.0

    def test_infinite_threshold_misses_everything(self):
        q = orthonormal_columns(20, 10, seed=10)
        truth = sparse(10, [2, 6], [3.0, -1.5])
        stats = threshold_stats(q, q @ truth.values, truth, threshold=np.inf)
        assert np.array_equal(stats.s_fn.indices, truth.support)
        assert stats.fn_energy_ratio == 1.0

    def test_fp_fn_control_monte_carlo(self):
        # at the problem's signal-to-noise floor the threshold keeps false
        # positives at O(k) and captures most of the signal energy
        n, d, k, trials = 800, 500, 8, 30
        hits = 0
        for t in range(trials):
            rng = np.random.default_rng(600 + t)
            x = MeasurementMatrix.explicit(rng.standard_normal((n, d)) / np.sqrt(n))
            xi = rng.standard_normal(n)
            msig = float(np.max(np.abs(x.data.T @ xi)))
            support = np.sort(rng.choice(d, size=k, replace=False))
            vals = rng.choice([-1.0, 1.0], size=k) * rng.uniform(1.0, 2.0, size=k) * 80.0 * msig
            truth = sparse(d, support, vals)
            y = x.data @ truth.values + xi
            stats = threshold_stats(x, y, truth, threshold=40.0 * msig)
            hits += len(stats.s_fp) <= 2 * k and stats.fn_energy_ratio <= 0.95
        assert hits >= 0.9 * trials


class FakeOrthonormalOracle:
    """Duck-typed oracle emitting exactly orthonormal blocks, zero noise."""

    def __init__(self, dims, truth):
        self.dims = dims
        self.truth = truth
        self.noise_sigma = 0.0
        self.query_log = []
        self._count = 0

    def masked_observe(self, rows, mask):
        rows = max(rows, self.dims.d)
        q = orthonormal_columns(rows, self.dims.d, seed=900 + self._count)
        self._count += 1
        data = q.copy()
        if len(mask):
            data[:, mask.indices] = 0.0
        y = data @ self.truth.values
        self.query_log.append((rows, list(mask.indices)))
        return MeasurementMatrix.explicit(data), y

    def rows_consumed(self):
        return sum(r for r, _ in self.query_log)


class TruthlessOracle:
    """Forwards an oracle's query interface; has no ``truth`` to read."""

    def __init__(self, inner):
        self._inner = inner
        self.dims = inner.dims

    def masked_observe(self, rows, mask):
        return self._inner.masked_observe(rows, mask)

    def rows_consumed(self):
        return self._inner.rows_consumed()


def monotone_fixture():
    d, k, n = 200, 4, 1200
    sigma = 0.2
    min_sig = 100.0 * sigma * math.sqrt(math.log(d))
    rng = np.random.default_rng(15)
    support = np.sort(rng.choice(d, size=k, replace=False))
    truth = sparse(d, support, rng.choice([-1.0, 1.0], k) * min_sig)
    oracle = MaskedOracle(Dims(n=n, d=d, k=k), truth, sigma, master_seed=16)
    params = SupportEstimatorParams(
        k=k, n_total=n, N=3, R=float(np.linalg.norm(truth.values)),
        r2=sigma, r_inf=default_r_inf(sigma, d),
    )
    return oracle, params


class TestAdaptiveSupportRecover:
    def test_orthonormal_noiseless_exact_after_warm_start(self):
        d, k = 24, 3
        truth = sparse(d, [1, 5, 17], [4.0, -3.0, 2.0])
        oracle = FakeOrthonormalOracle(Dims(n=3 * d * 3, d=d, k=k), truth)
        params = SupportEstimatorParams(
            k=k, n_total=9 * d, N=2, R=10.0, r2=1e-6, r_inf=1.0
        )
        rep = adaptive_support_recover(oracle, params)
        # phase one alone finds the support; later rounds add nothing
        assert rep.diagnostics["support_trace"][0] == k
        assert np.array_equal(rep.estimate.support, truth.support)
        assert np.max(np.abs(rep.estimate.values - truth.values)) <= 1e-8

    def test_zero_truth_returns_zero(self):
        d = 40
        oracle = MaskedOracle(Dims(n=600, d=d, k=4), SparseVector.zeros(d, 4), 0.0, master_seed=3)
        params = SupportEstimatorParams(k=4, n_total=600, N=3, R=1.0, r2=0.5, r_inf=1.0)
        rep = adaptive_support_recover(oracle, params)
        assert np.array_equal(rep.estimate.values, np.zeros(d))
        assert rep.diagnostics["support_trace"] == [0, 0, 0, 0]

    def test_monotone_mask_growth_and_budget(self):
        oracle, params = monotone_fixture()
        n = params.n_total
        adaptive_support_recover(oracle, params)
        # phase two masks grow monotonically; total row budget is exact
        masks = [set(q.mask) for q in oracle.query_log[1:-1]]
        for a, b in zip(masks, masks[1:]):
            assert a <= b
        assert oracle.rows_consumed() == n
        # sanity on the stated split: warm + N rounds + remainder-absorbing final
        assert params.warm_rows + params.N * params.round_rows + params.final_rows == n

    def test_estimator_never_reads_the_truth(self):
        bare, params = monotone_fixture()
        hidden = TruthlessOracle(monotone_fixture()[0])
        assert not hasattr(hidden, "truth")
        want = adaptive_support_recover(bare, params)
        got = adaptive_support_recover(hidden, params)
        assert np.array_equal(got.estimate.values, want.estimate.values)
        assert got.diagnostics == want.diagnostics

    def test_support_blowup_error(self):
        d, k = 3000, 2
        truth = sparse(d, [0, 1], [5.0, 5.0])
        oracle = MaskedOracle(Dims(n=300, d=d, k=k), truth, 1.0, master_seed=21)
        params = SupportEstimatorParams(k=k, n_total=300, N=2, R=10.0, r2=1.0, r_inf=0.0)
        with pytest.raises(SupportBlowupError):
            adaptive_support_recover(oracle, params)

    def test_round_energy_contraction(self):
        # residual signal energy outside the accumulated support decays by
        # the stated factor in nearly all rounds (empty residuals count as
        # contracted)
        d, k = 500, 8
        n = math.ceil(60 * k * math.log(k) * math.log(d))
        sigma = 1.0
        contracted = total = 0
        for t in range(10):
            rng = np.random.default_rng(910 + t)
            support = np.sort(rng.choice(d, size=k, replace=False))
            vals = rng.choice([-1.0, 1.0], k) * rng.uniform(1.0, 2.0, k)
            truth = sparse(d, support, vals * 100.0 * sigma * math.sqrt(math.log(d)))
            oracle = MaskedOracle(Dims(n=n, d=d, k=k), truth, sigma, master_seed=920 + t)
            params = SupportEstimatorParams(
                k=k, n_total=n, N=4, R=float(np.linalg.norm(truth.values)),
                r2=sigma, r_inf=default_r_inf(sigma, d),
            )
            rep = adaptive_support_recover(oracle, params)
            sets = rep.diagnostics["support_sets"]
            for cur, nxt in zip(sets, sets[1:]):
                res_cur = np.setdiff1d(truth.support, cur)
                res_nxt = np.setdiff1d(truth.support, nxt)
                e_cur = np.linalg.norm(truth.values[res_cur])
                e_nxt = np.linalg.norm(truth.values[res_nxt])
                contracted += e_nxt <= 0.95 * e_cur or e_cur == 0.0
                total += 1
        assert contracted >= 0.9 * total

    def test_pipeline_recovers_support_monte_carlo(self):
        # mid-sized version of the masked-query pipeline
        d, k = 500, 8
        n = math.ceil(60 * k * math.log(k) * math.log(d))
        sigma = 1.0
        n_rounds = math.ceil(2 * math.log(k))
        exact = 0
        trials = 20
        for t in range(trials):
            rng = np.random.default_rng(700 + t)
            support = np.sort(rng.choice(d, size=k, replace=False))
            vals = rng.choice([-1.0, 1.0], k) * rng.uniform(1.0, 2.0, k)
            truth = sparse(d, support, vals * 100.0 * sigma * math.sqrt(math.log(d)))
            oracle = MaskedOracle(Dims(n=n, d=d, k=k), truth, sigma, master_seed=800 + t)
            params = SupportEstimatorParams(
                k=k, n_total=n, N=n_rounds, R=float(np.linalg.norm(truth.values)),
                r2=sigma, r_inf=default_r_inf(sigma, d),
            )
            rep = adaptive_support_recover(oracle, params)
            exact += np.array_equal(rep.estimate.support, truth.support)
        assert exact >= 0.9 * trials


def test_default_r_inf_formula():
    assert default_r_inf(2.0, 100) == pytest.approx(40.0 * 2.0 * math.sqrt(2 * math.log(100)))
