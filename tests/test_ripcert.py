import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import brute_force_linf_cert, dense_linf_scan, orthonormal_columns
from linfrec import ripcert
from linfrec.core import Dims, Ensemble, sample_ensemble
from linfrec.ripcert import (
    BudgetExceeded,
    CertKind,
    Verdict,
    certificate_to_json,
    certify_l2_rip,
    certify_linf_rip,
    certify_pi,
    linf_rip_sample_floor,
    welch_floor,
)


# (n, d, s, ensemble): s = 1, s > d, d not a multiple of the forced panel
# heights, and a Rademacher design whose Gram entries tie often.
SCAN_SHAPES = [
    (50, 40, 1, "gaussian"),
    (30, 20, 25, "gaussian"),
    (10, 5, 3, "gaussian"),
    (100, 333, 7, "gaussian"),
    (64, 777, 5, "gaussian"),
    (200, 1000, 40, "gaussian"),
    (100, 333, 7, "rademacher"),
    (200, 1000, 40, "rademacher"),
]


def scan_design(n: int, d: int, ensemble: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if ensemble == "gaussian":
        return rng.standard_normal((n, d)) / np.sqrt(n)
    return (rng.integers(0, 2, size=(n, d)) * 2.0 - 1.0) / np.sqrt(n)


def panel_gram(x: np.ndarray, rows: int) -> np.ndarray:
    """The Gram rows exactly as panels of ``rows`` rows compute them."""
    return np.vstack([x[:, lo : lo + rows].T @ x for lo in range(0, x.shape[1], rows)])


def planted_matrix(d: int, eps0: float) -> np.ndarray:
    """X = I + eps0 e1 e2^T; Gram deviation has off-diagonals eps0 and one
    diagonal entry eps0^2 (all other entries zero)."""
    x = np.eye(d)
    x[0, 1] = eps0
    return x


class TestL2Rip:
    def test_identity_holds(self):
        for s in (1, 2, 3):
            cert = certify_l2_rip(np.eye(6), epsilon=0.01, s=s)
            assert cert.verdict is Verdict.HOLDS and cert.exact
            assert cert.achieved <= 1e-12

    def test_planted_failure_matches_eigen_oracle(self):
        eps0 = 0.3
        x = planted_matrix(5, eps0)
        # oracle: the {0,1} Gram block is [[1, eps0], [eps0, 1 + eps0^2]]
        block = np.array([[1.0, eps0], [eps0, 1.0 + eps0**2]])
        expected = float(np.max(np.abs(np.linalg.eigvalsh(block) - 1.0)))
        assert expected > eps0  # planted deviation exceeds the threshold
        cert = certify_l2_rip(x, epsilon=eps0, s=2)
        assert cert.verdict is Verdict.FAILS
        assert list(cert.witness.indices) == [0, 1]
        assert cert.achieved == pytest.approx(expected, abs=1e-12)

    def test_gaussian_holds_exact(self):
        dims = Dims(n=4000, d=50, k=3)
        x = sample_ensemble(dims, Ensemble.GAUSSIAN_SCALED, seed=77)
        cert = certify_l2_rip(x, epsilon=0.3, s=3)
        assert cert.verdict is Verdict.HOLDS and cert.exact

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            certify_l2_rip(np.eye(60), epsilon=0.5, s=10)
        # refused before any d x d Gram is formed
        d = 3000
        x = np.ones((8, d))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                certify_l2_rip(x, epsilon=0.5, s=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * d

    def test_sampled_pass_is_lower_bound_only(self):
        x = sample_ensemble(Dims(n=500, d=40, k=2), Ensemble.GAUSSIAN_SCALED, seed=1)
        cert = certify_l2_rip(x, epsilon=0.5, s=2, mode="sampled", trials=50, seed=9)
        assert cert.verdict is Verdict.LOWER_BOUND_ONLY
        assert not cert.exact

    def test_sampled_can_prove_failure(self):
        cert = certify_l2_rip(planted_matrix(6, 0.4), epsilon=0.1, s=2, mode="sampled", trials=400, seed=3)
        assert cert.verdict is Verdict.FAILS
        assert cert.witness is not None

    def test_sampled_never_holds_a_dense_gram(self):
        d = 3000
        x = sample_ensemble(Dims(n=64, d=d, k=5), Ensemble.GAUSSIAN_SCALED, seed=4)
        tracemalloc.start()
        try:
            cert = certify_l2_rip(x, epsilon=0.5, s=5, mode="sampled", trials=20, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * d
        assert not cert.exact


class TestLinfRip:
    def test_identity_holds(self):
        cert = certify_linf_rip(np.eye(8), epsilon=1e-9, s=4)
        assert cert.verdict is Verdict.HOLDS and cert.exact

    def test_planted_value_exact(self):
        eps0 = 0.25
        cert = certify_linf_rip(planted_matrix(6, eps0), epsilon=0.2, s=3)
        # worst row of the deviation: off-diagonal eps0 plus diagonal eps0^2
        assert cert.achieved == pytest.approx(eps0 + eps0**2, abs=1e-12)
        assert cert.verdict is Verdict.FAILS

    def test_greedy_equals_brute_force(self, rng):
        for t in range(30):
            d = int(rng.integers(4, 15))
            s = int(rng.integers(2, 5))
            n = int(rng.integers(10, 60))
            x = rng.standard_normal((n, d)) / np.sqrt(n)
            cert = certify_linf_rip(x, epsilon=0.5, s=s)
            oracle = brute_force_linf_cert(x.T @ x, s)
            assert cert.achieved == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("n,d,s,ensemble", SCAN_SHAPES)
    def test_panel_scan_equals_row_loop(self, monkeypatch, n, d, s, ensemble, rows):
        # panel products round like a dense Gram only when one panel spans it
        # (the same X^T X call); the scan itself must add nothing of its own
        for seed in range(3):
            x = scan_design(n, d, ensemble, seed)
            if rows is None:
                assert ripcert.PANEL_BYTES >= 8 * d * d  # one panel: the dense product itself
                g = x.T @ x
            else:
                monkeypatch.setattr(ripcert, "PANEL_BYTES", 8 * d * rows)
                g = panel_gram(x, rows)
            cert = certify_linf_rip(x, epsilon=0.5, s=s)
            achieved, witness = dense_linf_scan(g, min(s, d))
            assert cert.achieved == achieved
            assert np.array_equal(cert.witness.indices, witness)
            pi = certify_pi(x, alpha=0.1)
            dev = np.abs(g - np.eye(d))
            i, j = divmod(int(np.argmax(dev)), d)
            assert pi.achieved == dev[i, j]
            assert np.array_equal(pi.witness.indices, np.unique([i, j]))

    def test_multi_panel_scan_matches_dense_gram(self):
        # d = 3000 spans 5 default panels, general matrix products whose
        # rounding may differ from the dense X^T X product's in the last bits
        x = sample_ensemble(Dims(n=64, d=3000, k=6), Ensemble.GAUSSIAN_SCALED, seed=8)
        assert ripcert.PANEL_BYTES < 8 * 3000 * 3000
        cert = certify_linf_rip(x, epsilon=0.5, s=6)
        achieved, witness = dense_linf_scan(x.data.T @ x.data, 6)
        assert cert.achieved == pytest.approx(achieved, rel=1e-14)
        assert np.array_equal(cert.witness.indices, witness)

    def test_exact_scan_never_holds_a_dense_gram(self):
        n, d = 64, 3000
        x = sample_ensemble(Dims(n=n, d=d, k=20), Ensemble.GAUSSIAN_SCALED, seed=3)
        tracemalloc.start()
        try:
            certify_linf_rip(x, epsilon=0.25, s=20)
            certify_pi(x, alpha=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * d

    def test_value_grows_roughly_linearly_in_s(self):
        x = sample_ensemble(Dims(n=200, d=50, k=10), Ensemble.GAUSSIAN_SCALED, seed=5)
        values = [certify_linf_rip(x, epsilon=10.0, s=s).achieved for s in range(2, 21, 3)]
        assert all(b > a for a, b in zip(values, values[1:]))
        # linear fit explains nearly all of the variance
        svals = np.arange(2, 21, 3, dtype=float)
        coef = np.polyfit(svals, values, 1)
        fitted = np.polyval(coef, svals)
        ss_res = np.sum((values - fitted) ** 2)
        ss_tot = np.sum((values - np.mean(values)) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.95

    def test_sampled_mode(self):
        x = planted_matrix(6, 0.4)
        cert = certify_linf_rip(x, epsilon=0.1, s=2, mode="sampled", trials=300, seed=2)
        assert cert.verdict is Verdict.FAILS

    def test_supnorm_rip_implies_l2_rip(self, rng):
        # whenever the sup-norm certificate holds exactly, the eigenvalue
        # certificate holds at the same parameters
        confirmed = 0
        for t in range(25):
            d = int(rng.integers(5, 14))
            n = int(rng.integers(30, 400))
            s = int(rng.integers(2, 5))
            eps = float(rng.uniform(0.1, 0.95))
            x = rng.standard_normal((n, d)) / np.sqrt(n)
            if certify_linf_rip(x, epsilon=eps, s=s).holds:
                assert certify_l2_rip(x, epsilon=eps, s=s).holds
                confirmed += 1
        assert confirmed > 0


class TestPairwiseIncoherence:
    def test_identity(self):
        cert = certify_pi(np.eye(5), alpha=1e-6)
        assert cert.verdict is Verdict.HOLDS and cert.exact

    def test_planted_value(self):
        eps0 = 0.3
        cert = certify_pi(planted_matrix(5, eps0), alpha=0.5)
        # off-diagonal deviation eps0 dominates the diagonal deviation eps0^2
        assert cert.achieved == pytest.approx(max(eps0, eps0**2), abs=1e-12)

    def test_pi_implies_linf_rip(self, rng):
        # alpha = eps/s incoherence forces (eps, s) sup-norm RIP
        for t in range(20):
            d = int(rng.integers(5, 20))
            n = int(rng.integers(20, 200))
            s = int(rng.integers(2, 6))
            x = rng.standard_normal((n, d)) / np.sqrt(n)
            eps = float(rng.uniform(0.1, 0.9))
            if certify_pi(x, alpha=eps / s).holds:
                assert certify_linf_rip(x, epsilon=eps, s=s).holds

    def test_linf_rip_does_not_imply_pi(self):
        # the planted matrix passes sup-norm RIP just above its exact value
        # but fails incoherence at alpha = eps0/s for s >= 2
        eps0 = 0.3
        x = planted_matrix(6, eps0)
        for s in (2, 3, 4):
            assert certify_linf_rip(x, epsilon=eps0 + eps0**2 + 1e-12, s=s).holds
            assert not certify_pi(x, alpha=eps0 / s).holds


class TestWelchFloor:
    def test_orthonormal_equality(self):
        q = orthonormal_columns(16, 16, seed=4)
        assert welch_floor(q) == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_identical_columns(self):
        x = np.column_stack([np.ones(3), np.ones(3)])
        assert welch_floor(x) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_floor(self):
        x = sample_ensemble(Dims(n=100, d=500, k=1), Ensemble.GAUSSIAN_SCALED, seed=6)
        val = welch_floor(x)
        assert val >= 1.0 / 100.0
        assert val <= 3.0 / 100.0

    def test_zero_column_rejected(self):
        x = np.zeros((4, 2))
        x[:, 0] = 1.0
        with pytest.raises(ValueError):
            welch_floor(x)


class TestSampleFloor:
    def test_arithmetic(self):
        assert linf_rip_sample_floor(0.25, 12) == pytest.approx(16.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            linf_rip_sample_floor(0.5, 12)
        with pytest.raises(ValueError):
            linf_rip_sample_floor(0.25, 1)

    def test_certified_matrices_respect_floor(self):
        # any exact pass at (eps, s) with d >= s^3/eps^2 must have n above the floor
        eps, s = 0.3, 4
        d = math.ceil(s**3 / eps**2)
        n = 3000
        x = sample_ensemble(Dims(n=n, d=d, k=s), Ensemble.GAUSSIAN_SCALED, seed=12)
        cert = certify_linf_rip(x, epsilon=eps, s=s)
        if cert.holds:
            assert n >= linf_rip_sample_floor(eps, s)


def test_certificate_json():
    cert = certify_pi(planted_matrix(4, 0.2), alpha=0.1)
    doc = json.loads(certificate_to_json(cert))
    assert doc["kind"] == CertKind.PAIRWISE_INCOHERENCE.value
    assert doc["verdict"] == "fails"
    assert doc["exact"] is True
    assert doc["witness"] == [0, 1]
    assert doc["achieved"] == pytest.approx(0.2)
