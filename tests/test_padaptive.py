import math

import numpy as np
import pytest

from conftest import is_design, orthonormal_columns
from linfrec import core
from linfrec.core import TILE_COLS, TILE_ROWS, TILE_TAG, Dims, Ensemble, rng_from
from linfrec.padaptive import (
    MaskedOracle,
    SupportBlowupError,
    adaptive_support_recover,
    default_r_inf,
    threshold_stats,
)


def sparse(d, support, values):
    theta = np.zeros(d)
    theta[np.asarray(support)] = values
    return theta


def make_oracle(d=50, k=3, sigma=0.5, seed=11, truth=None, n=300):
    truth = truth if truth is not None else sparse(d, [1, 7, 20], [3.0, -2.0, 5.0])
    return MaskedOracle(Dims(n=n, d=d, k=k), truth, sigma, master_seed=seed)


class TestMaskedOracle:
    def test_mask_all_signal_yields_pure_noise(self):
        truth = sparse(30, [2, 5], [1.0, -4.0])
        a = MaskedOracle(Dims(n=100, d=30, k=2), truth, 0.7, master_seed=5)
        _, _, y_masked = a.masked_observe(20, np.flatnonzero(truth))
        # same seed and query index with a zero truth reproduces the noise
        b = MaskedOracle(Dims(n=100, d=30, k=2), np.zeros(30), 0.7, master_seed=5)
        _, _, y_noise = b.masked_observe(20, np.empty(0, dtype=np.int64))
        assert np.array_equal(y_masked, y_noise)

    def test_no_mask_no_noise(self):
        truth = sparse(30, [4], [2.0])
        o = MaskedOracle(Dims(n=100, d=30, k=1), truth, 0.0, master_seed=6)
        x, cols, y = o.masked_observe(25, np.empty(0, dtype=np.int64))
        assert np.array_equal(cols, np.arange(30))
        assert np.array_equal(y, x @ truth)

    def test_same_queries_of_one_seed_give_the_same_bytes(self):
        o1 = make_oracle(seed=42)
        o2 = make_oracle(seed=42)
        for mask in ([], [1], [1, 7]):
            for a, b in zip(o1.masked_observe(15, np.unique(mask)), o2.masked_observe(15, np.unique(mask))):
                assert a.tobytes() == b.tobytes()

    def test_masked_columns_are_zero(self):
        o = make_oracle()
        mask = np.array([0, 3, 9])
        x, cols, _ = o.masked_observe(12, mask)
        assert np.all(x[:, np.isin(cols, mask)] == 0.0)

    def test_masking_soundness(self):
        # truths that agree off the mask produce identical observations
        mask = np.array([2, 5])
        t1 = sparse(30, [2, 5, 11], [9.0, -9.0, 1.5])
        t2 = sparse(30, [5, 11], [123.0, 1.5])
        o1 = MaskedOracle(Dims(n=50, d=30, k=3), t1, 0.3, master_seed=8)
        o2 = MaskedOracle(Dims(n=50, d=30, k=3), t2, 0.3, master_seed=8)
        _, _, y1 = o1.masked_observe(18, mask)
        _, _, y2 = o2.masked_observe(18, mask)
        assert np.array_equal(y1, y2)

    def test_fresh_blocks_per_query(self):
        o = make_oracle()
        x1, _, _ = o.masked_observe(10, np.empty(0, dtype=np.int64))
        x2, _, _ = o.masked_observe(10, np.empty(0, dtype=np.int64))
        assert not np.array_equal(x1, x2)

    def test_noise_corr_recorded_but_not_transcribed(self):
        # with a zero truth the observation is the noise itself
        o = MaskedOracle(Dims(n=100, d=30, k=2), np.zeros(30), 0.7, master_seed=5)
        x, _, y = o.masked_observe(20, np.array([3]))
        assert o.query_log[0].noise_corr == float(np.max(np.abs(x.T @ y)))

    def test_observations_are_c_ordered_float64_arrays(self):
        o = make_oracle(seed=3)
        obs = [o.masked_observe(10, np.unique(m)) for m in ([], [1, 7])]
        for x, cols, _ in obs:
            assert is_design(x, (10, 50))
            assert np.array_equal(cols, np.arange(50))

    @pytest.mark.parametrize(
        "mask",
        [range(TILE_COLS), range(TILE_COLS, 2 * TILE_COLS), [3, 40, 41], [0, 17, *range(32, 50)]],
        ids=["first-tile", "second-tile", "part-tiles", "part-and-whole-tiles"],
    )
    def test_mask_changes_only_the_masked_columns_and_never_the_noise(self, mask):
        # d = 50: three whole tiles of columns and one of two columns
        zero = np.zeros(50)
        plain = MaskedOracle(Dims(n=TILE_ROWS + 9, d=50, k=3), zero, 0.7, master_seed=4)
        masked = MaskedOracle(Dims(n=TILE_ROWS + 9, d=50, k=3), zero, 0.7, master_seed=4)
        rows = TILE_ROWS + 9
        keep = np.setdiff1d(np.arange(50), list(mask))
        for _ in range(2):
            x_plain, cols_plain, y_plain = plain.masked_observe(rows, np.empty(0, dtype=np.int64))
            x_masked, cols, y_masked = masked.masked_observe(rows, np.unique(mask))
            assert np.array_equal(cols_plain, np.arange(50))
            # the tiles drawn are those holding an unmasked column
            assert np.array_equal(np.unique(cols // TILE_COLS), np.unique(keep // TILE_COLS))
            assert is_design(x_masked, (rows, len(cols)))
            assert x_masked[:, np.searchsorted(cols, keep)].tobytes() == x_plain[:, keep].tobytes()
            assert np.all(x_masked[:, np.isin(cols, list(mask))] == 0.0)
            # a zero truth makes y the noise itself
            assert y_masked.tobytes() == y_plain.tobytes()

    def test_fully_masked_tiles_are_not_drawn(self, monkeypatch):
        keys = []

        def counting(*key):
            keys.append(key)
            return rng_from(*key)

        tile_states = core._tile_states

        def counting_tiles(key, i, j):
            keys.extend((*key, a, b, TILE_TAG) for a, b in zip(i.tolist(), j.tolist()))
            return tile_states(key, i, j)

        # tiles are seeded by one pass over all their keys, other streams by rng_from
        monkeypatch.setattr(core, "_tile_states", counting_tiles)
        monkeypatch.setattr(core, "rng_from", counting)
        o = make_oracle(d=50, seed=9)
        o.masked_observe(TILE_ROWS + 1, np.array([*range(TILE_COLS), 20, *range(48, 50)]))
        # column tiles 1 and 2 are drawn in both row tiles; 0 and 3 are masked whole
        assert sorted(key[3] for key in keys if key[-1] == TILE_TAG) == [1, 1, 2, 2]
        # the one other stream is the query's noise
        assert [key for key in keys if key[-1] != TILE_TAG] == [(9, 0)]

    def test_tile_keys_do_not_alias_the_noise_stream(self):
        # a SeedSequence ignores trailing zeros, so an untagged key for tile
        # (0, 0) of query 0, (seed, 0, 0, 0), would be the noise key (seed, 0)
        seed, rows = 5, 40
        assert rng_from(seed, 0, 0, 0).standard_normal(4).tobytes() == rng_from(seed, 0).standard_normal(4).tobytes()
        o = MaskedOracle(Dims(n=100, d=30, k=2), np.zeros(30), 1.0, master_seed=seed)
        x, _, noise = o.masked_observe(rows, np.empty(0, dtype=np.int64))
        assert noise.tobytes() == rng_from(seed, 0).standard_normal(rows).tobytes()
        first_tile = x[:, :TILE_COLS].ravel()[:rows] * math.sqrt(rows)
        assert not np.any(np.isclose(first_tile, noise, rtol=1e-12, atol=0))

    @pytest.mark.parametrize("truth", [np.zeros(29), np.zeros(31), np.zeros((30, 1))], ids=["short", "long", "2-d"])
    def test_truth_of_the_wrong_shape_is_rejected(self, truth):
        with pytest.raises(ValueError, match=r"truth has shape .*, expected \(30,\)"):
            MaskedOracle(Dims(n=100, d=30, k=2), truth, 0.7, master_seed=5)

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_master_seed_is_rejected(self, seed):
        with pytest.raises(ValueError, match=f"master_seed must be a nonnegative integer, got {seed}"):
            MaskedOracle(Dims(n=10, d=20, k=1), np.zeros(20), 1.0, master_seed=seed)

    @pytest.mark.parametrize(
        "support",
        [[20], [3, 40, 49], [17, 18, 30], [], range(50)],
        ids=["one-column", "three-tiles", "one-tile", "empty", "every-column"],
    )
    def test_restricted_query_is_the_masked_query_on_its_support(self, support):
        # d = 50: three whole tiles of columns and one of two columns; masking
        # every column outside a support, as Phase III does, draws only the
        # support's tiles, and their support columns are those an unmasked
        # query of the same seed draws
        support = np.asarray(support, dtype=np.int64)
        mask = np.setdiff1d(np.arange(50), support)
        truth = np.random.default_rng(2).standard_normal(50)
        rows = TILE_ROWS + 9
        masked = MaskedOracle(Dims(n=3 * rows, d=50, k=3), truth, 0.7, master_seed=4)
        plain = MaskedOracle(Dims(n=3 * rows, d=50, k=3), np.zeros(50), 0.7, master_seed=4)
        for _ in range(2):
            x, cols, y = masked.masked_observe(rows, mask)
            x_plain, _, noise = plain.masked_observe(rows, np.empty(0, dtype=np.int64))
            assert np.array_equal(np.unique(cols // TILE_COLS), np.unique(support // TILE_COLS))
            assert np.all(np.isin(support, cols))
            x_t = x[:, np.searchsorted(cols, support)]
            assert x_t.shape == (rows, len(support))
            assert x_t.tobytes() == x_plain[:, support].tobytes()
            assert np.all(x[:, np.isin(cols, mask)] == 0.0)
            # y sees the truth through the support's columns alone, plus the
            # noise an unmasked query of the same seed draws
            np.testing.assert_allclose(y, x_t @ truth[support] + noise, rtol=1e-12, atol=1e-12)

    def test_mask_index_beyond_d_is_rejected(self):
        o = make_oracle(d=10, truth=sparse(10, [1], [1.0]))
        with pytest.raises(ValueError, match="mask index 99 is out of range for d=10"):
            o.masked_observe(5, np.array([2, 99]))
        assert o.query_log == []

    @pytest.mark.parametrize(
        "sigma, shown",
        [(math.nan, "nan"), (math.inf, "inf"), (-1, "-1"), (10**400, "1000")],
        ids=["nan", "inf", "negative", "huge-int"],
    )
    def test_noise_sigma_must_be_finite_and_nonnegative(self, sigma, shown):
        with pytest.raises(ValueError, match=f"noise_sigma must be a finite nonnegative number, got {shown}"):
            MaskedOracle(Dims(n=10, d=10, k=1), np.zeros(10), sigma, master_seed=5)


def _queries():
    """An oracle at d=10 after two queries, and the seed and queries that replay them."""
    o = make_oracle(d=10, truth=sparse(10, [1, 7], [3.0, -2.0]))
    queries = [(4, np.empty(0, dtype=np.int64)), (4, np.array([1, 7]))]
    for rows, mask in queries:
        o.masked_observe(rows, mask)
    return o, {"master_seed": o.master_seed, "queries": queries}


def _replay(o, doc):
    """Re-issue a recorded query sequence on a fresh oracle of ``o``'s instance."""
    fresh = MaskedOracle(o.dims, o.truth, o.noise_sigma, master_seed=doc["master_seed"])
    return [fresh.masked_observe(rows, mask) for rows, mask in doc["queries"]]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc["queries"].__setitem__(1, (4, np.array([7, 99]))), "mask index 99 is out of range for d=10"),
        (lambda doc: doc["queries"].__setitem__(1, (4, np.array([-1, 7]))), "mask index -1 is out of range for d=10"),
        (
            lambda doc: doc["queries"].__setitem__(1, (4, np.array([1, 2**63 + 5], dtype=np.uint64))),
            "mask index 9223372036854775813 is out of range for d=10",
        ),
        (lambda doc: doc.__setitem__("master_seed", -1), "master_seed must be a nonnegative integer, got -1"),
    ],
    ids=["mask-index-99", "negative-mask-index", "uint64-mask-index", "negative-master-seed"],
)
def test_replay_names_the_malformed_field(mutate, message):
    o, doc = _queries()
    mutate(doc)
    with pytest.raises(ValueError, match=message):
        _replay(o, doc)


class TestThresholdStats:
    def test_noiseless_orthonormal_below_min_signal(self):
        q = orthonormal_columns(20, 10, seed=9)
        truth = sparse(10, [2, 6], [3.0, -1.5])
        y = q @ truth
        stats = threshold_stats(q, y, truth, threshold=1.0)
        assert len(stats.s_fp) == 0 and len(stats.s_fn) == 0
        assert stats.fn_energy_ratio == 0.0

    def test_infinite_threshold_misses_everything(self):
        q = orthonormal_columns(20, 10, seed=10)
        truth = sparse(10, [2, 6], [3.0, -1.5])
        stats = threshold_stats(q, q @ truth, truth, threshold=np.inf)
        assert np.array_equal(stats.s_fn, np.flatnonzero(truth))
        assert stats.fn_energy_ratio == 1.0

    def test_minus_infinite_threshold_passes_everything(self):
        # -inf is a number the threshold may be (NaN is not: see test_scalars.py)
        q = orthonormal_columns(20, 10, seed=10)
        truth = sparse(10, [2, 6], [3.0, -1.5])
        stats = threshold_stats(q, q @ truth, truth, threshold=-np.inf)
        assert np.array_equal(stats.s_fp, np.setdiff1d(np.arange(10), [2, 6])) and len(stats.s_fn) == 0

    def test_fp_fn_control_monte_carlo(self):
        # at the problem's signal-to-noise floor the threshold keeps false
        # positives at O(k) and captures most of the signal energy
        n, d, k, trials = 800, 500, 8, 30
        hits = 0
        for t in range(trials):
            rng = np.random.default_rng(600 + t)
            x = rng.standard_normal((n, d)) / np.sqrt(n)
            xi = rng.standard_normal(n)
            msig = float(np.max(np.abs(x.T @ xi)))
            support = np.sort(rng.choice(d, size=k, replace=False))
            vals = rng.choice([-1.0, 1.0], size=k) * rng.uniform(1.0, 2.0, size=k) * 80.0 * msig
            truth = sparse(d, support, vals)
            y = x @ truth + xi
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
            data[:, mask] = 0.0
        y = data @ self.truth
        self.query_log.append((rows, list(mask)))
        return data, np.arange(self.dims.d), y

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
    # rounds, R, r2, r_inf; n and k come from the oracle's dims
    params = (3, float(np.linalg.norm(truth)), sigma, default_r_inf(sigma, d))
    return oracle, params


class TestAdaptiveSupportRecover:
    def test_orthonormal_noiseless_exact_after_warm_start(self):
        d, k = 24, 3
        truth = sparse(d, [1, 5, 17], [4.0, -3.0, 2.0])
        oracle = FakeOrthonormalOracle(Dims(n=3 * d * 3, d=d, k=k), truth)
        rep = adaptive_support_recover(oracle, 2, 10.0, 1e-6, 1.0)
        # phase one alone finds the support; later rounds add nothing
        assert rep.diagnostics["support_trace"][0] == k
        assert np.array_equal(np.flatnonzero(rep.estimate), np.flatnonzero(truth))
        assert np.max(np.abs(rep.estimate - truth)) <= 1e-8

    def test_zero_truth_returns_zero(self):
        d = 40
        oracle = MaskedOracle(Dims(n=600, d=d, k=4), np.zeros(d), 0.0, master_seed=3)
        rep = adaptive_support_recover(oracle, 3, 1.0, 0.5, 1.0)
        assert np.array_equal(rep.estimate, np.zeros(d))
        assert rep.diagnostics["support_trace"] == [0, 0, 0, 0]

    @pytest.mark.parametrize("seed", range(3))
    def test_estimate_keeps_at_most_k_nonzeros(self, seed):
        # a dense truth: the rounds collect far more than k coordinates
        truth = np.random.default_rng(seed).standard_normal(50)
        oracle = MaskedOracle(Dims(n=600, d=50, k=3), truth, 0.1, master_seed=seed)
        rep = adaptive_support_recover(oracle, 2, 10.0, 0.1, 0.5)
        assert rep.diagnostics["support_trace"][-1] > 3
        assert np.count_nonzero(rep.estimate) <= 3

    def test_monotone_mask_growth_and_budget(self):
        oracle, params = monotone_fixture()
        n, rounds = oracle.dims.n, params[0]
        rep = adaptive_support_recover(oracle, *params)
        # phase two masks grow monotonically; total row budget is exact
        masks = [set(m) for m in rep.diagnostics["support_sets"][:-1]]
        for a, b in zip(masks, masks[1:]):
            assert a <= b
        assert oracle.rows_consumed() == n
        # the stated split: n // 3 warm rows, n // (3 N) per round, the rest final
        warm, per_round = n // 3, n // (3 * rounds)
        final = n - warm - rounds * per_round
        assert [q.rows for q in oracle.query_log] == [warm] + [per_round] * rounds + [final]

    def test_rejects_zero_rounds(self):
        oracle, params = monotone_fixture()
        with pytest.raises(ValueError, match="at least one adaptive round"):
            adaptive_support_recover(oracle, 0, *params[1:])
        assert oracle.query_log == []

    @pytest.mark.parametrize("n, rounds", [(5, 2), (2, 1)])
    def test_rejects_a_budget_that_leaves_a_round_no_rows(self, n, rounds):
        oracle = MaskedOracle(Dims(n=n, d=20, k=2), np.zeros(20), 1.0, master_seed=3)
        with pytest.raises(ValueError, match=rf"n={n} leaves each of rounds={rounds} rounds no rows"):
            adaptive_support_recover(oracle, rounds, 1.0, 1.0, 1.0)
        assert oracle.query_log == []

    def test_estimator_never_reads_the_truth(self):
        bare, params = monotone_fixture()
        hidden = TruthlessOracle(monotone_fixture()[0])
        assert not hasattr(hidden, "truth")
        want = adaptive_support_recover(bare, *params)
        got = adaptive_support_recover(hidden, *params)
        assert np.array_equal(got.estimate, want.estimate)
        assert got.diagnostics == want.diagnostics

    def test_final_query_draws_only_the_tiles_of_its_support(self, monkeypatch):
        widths = []
        mapped_zeros = core._mapped_zeros

        def recording(rows, d):
            widths.append(d)
            return mapped_zeros(rows, d)

        monkeypatch.setattr(core, "_mapped_zeros", recording)
        oracle, params = monotone_fixture()
        rep = adaptive_support_recover(oracle, *params)
        tiles = np.unique(np.asarray(rep.diagnostics["support_sets"][-1]) // TILE_COLS)
        # one block per query, the last of the support's tiles alone
        assert len(widths) == len(oracle.query_log)
        assert widths[-1] == TILE_COLS * len(tiles) < oracle.dims.d

    def test_support_blowup_error(self):
        d, k = 3000, 2
        truth = sparse(d, [0, 1], [5.0, 5.0])
        oracle = MaskedOracle(Dims(n=300, d=d, k=k), truth, 1.0, master_seed=21)
        with pytest.raises(SupportBlowupError):
            adaptive_support_recover(oracle, 2, 10.0, 1.0, 0.0)

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
            R = float(np.linalg.norm(truth))
            rep = adaptive_support_recover(oracle, 4, R, sigma, default_r_inf(sigma, d))
            sets = rep.diagnostics["support_sets"]
            for cur, nxt in zip(sets, sets[1:]):
                res_cur = np.setdiff1d(np.flatnonzero(truth), cur)
                res_nxt = np.setdiff1d(np.flatnonzero(truth), nxt)
                e_cur = np.linalg.norm(truth[res_cur])
                e_nxt = np.linalg.norm(truth[res_nxt])
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
            R = float(np.linalg.norm(truth))
            rep = adaptive_support_recover(oracle, n_rounds, R, sigma, default_r_inf(sigma, d))
            exact += np.array_equal(np.flatnonzero(rep.estimate), np.flatnonzero(truth))
        assert exact >= 0.9 * trials


def test_default_r_inf_formula():
    assert default_r_inf(2.0, 100) == pytest.approx(40.0 * 2.0 * math.sqrt(2 * math.log(100)))
