import math
import tracemalloc

import numpy as np
import pytest

from conftest import brute_force_linf_cert, dense_l2_scan, dense_linf_scan, orthonormal_columns
from linfrec import ripcert
from linfrec.core import Dims, Ensemble, sample_ensemble
from linfrec.ripcert import (
    BudgetExceeded,
    Verdict,
    certificate_to_json,
    certify_l2_rip,
    certify_linf_rip,
    certify_pi,
    linf_rip_sample_floor,
    welch_floor,
)


# (n, d, s, ensemble): s = 1, s > d, d not a multiple of the forced panel
# heights, and a Rademacher design whose Gram entries tie often.  At s = 1 a
# Rademacher design ties every row (each G_ii sums the same n squares), so the
# anchor and witness are row 0.
SCAN_SHAPES = [
    (50, 40, 1, "gaussian"),
    (50, 40, 1, "rademacher"),
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
        assert list(cert.witness) == [0, 1]
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

    def test_exact_s1_forms_no_whole_gram(self):
        # at s = 1 any d within the subset budget passes, so a d x d Gram could be any size;
        # at s = 2 and d = 200 (19,900 blocks) each block is formed from its own columns too
        d = 3000
        x = sample_ensemble(Dims(n=8, d=d, k=1), Ensemble.GAUSSIAN_SCALED, seed=2)
        tracemalloc.start()
        try:
            cert = certify_l2_rip(x, epsilon=0.5, s=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * d  # an eighth of the d x d Gram's 8 d^2 bytes
        deviation = np.abs(np.einsum("ij,ij->j", x, x) - 1.0)
        assert cert.achieved == pytest.approx(deviation.max(), rel=1e-14)
        assert cert.witness.tolist() == [int(np.argmax(deviation))]

        d = 200
        x = sample_ensemble(Dims(n=8, d=d, k=2), Ensemble.GAUSSIAN_SCALED, seed=2)
        tracemalloc.start()
        try:
            cert = certify_l2_rip(x, epsilon=0.5, s=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * d
        achieved, witness = dense_l2_scan(x, 2)
        assert cert.achieved == pytest.approx(achieved, rel=1e-13)
        assert cert.witness.tolist() == witness.tolist()

    def test_exact_blocks_equal_the_whole_gram_scan(self):
        # each s x s block formed from its columns against the block indexed out of X^T X
        rng = np.random.default_rng(30)
        for _ in range(50):
            n, d = int(rng.integers(5, 401)), int(rng.integers(3, 41))
            s = int(rng.integers(1, 4))
            x = rng.standard_normal((n, d)) / np.sqrt(n)
            achieved, witness = dense_l2_scan(x, s)
            epsilon = float(rng.uniform(0.5, 1.5)) * achieved
            cert = certify_l2_rip(x, epsilon=epsilon, s=s)
            assert cert.achieved == pytest.approx(achieved, rel=1e-13)
            assert cert.witness.tolist() == witness.tolist()
            assert cert.verdict is (Verdict.HOLDS if achieved <= epsilon else Verdict.FAILS)

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
            assert np.array_equal(cert.witness, witness)
            pi = certify_pi(x, alpha=0.1)
            dev = np.abs(g - np.eye(d))
            i, j = divmod(int(np.argmax(dev)), d)
            assert pi.achieved == dev[i, j]
            assert np.array_equal(pi.witness, np.unique([i, j]))

    def test_multi_panel_scan_matches_dense_gram(self):
        # d = 3000 spans 5 default panels, general matrix products whose
        # rounding may differ from the dense X^T X product's in the last bits
        x = sample_ensemble(Dims(n=64, d=3000, k=6), Ensemble.GAUSSIAN_SCALED, seed=8)
        assert ripcert.PANEL_BYTES < 8 * 3000 * 3000
        cert = certify_linf_rip(x, epsilon=0.5, s=6)
        achieved, witness = dense_linf_scan(x.T @ x, 6)
        assert cert.achieved == pytest.approx(achieved, rel=1e-14)
        assert np.array_equal(cert.witness, witness)

    @pytest.mark.parametrize("ensemble", ["gaussian", "rademacher"])
    def test_default_panels_equal_row_loop(self, ensemble):
        # d = 1500 spans two default panels: the Gaussian panel Gram is not
        # exactly symmetric (the scan reads both entries of a pair from the
        # upper one), and the Rademacher one ties at the cut
        n, d, s = 64, 1500, 12
        rows = ripcert.PANEL_BYTES // (8 * d)
        assert rows < d
        x = scan_design(n, d, ensemble, 5)
        g = panel_gram(x, rows)
        cert = certify_linf_rip(x, epsilon=0.5, s=s)
        achieved, witness = dense_linf_scan(g, s)
        assert cert.achieved == achieved
        assert np.array_equal(cert.witness, witness)

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("s,witness", [(3, [3, 5, 7]), (4, [3, 5, 7, 9])])
    def test_ties_across_a_panel_boundary_take_the_smaller_columns(self, monkeypatch, rows, s, witness):
        # row 7 starts a panel at either height; its four off-diagonal
        # magnitudes all equal c, two left of the boundary (carried from
        # earlier panels) and two right of it
        d, c = 16, 0.25
        x = np.eye(d)
        x[7, [3, 5, 9, 12]] = c
        monkeypatch.setattr(ripcert, "PANEL_BYTES", 8 * d * rows)
        cert = certify_linf_rip(x, epsilon=0.1, s=s)
        assert cert.achieved == (s - 1) * c
        assert list(cert.witness) == witness

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("s,witness", [(3, [3, 5, 12]), (4, [3, 5, 7, 12])])
    def test_ties_carried_to_the_anchor_take_the_smaller_rows(self, monkeypatch, rows, s, witness):
        # row 12 starts a panel at either height and is the anchor; all four of
        # its tied magnitudes reach it through the column carry, so only the
        # carry's merge decides the tie (keeping later rows gives [7, 9, 12] at s = 3)
        d, c = 16, 0.25
        x = np.eye(d)
        x[12, [3, 5, 7, 9]] = c
        monkeypatch.setattr(ripcert, "PANEL_BYTES", 8 * d * rows)
        cert = certify_linf_rip(x, epsilon=0.1, s=s)
        assert cert.achieved == (s - 1) * c
        assert list(cert.witness) == witness

    def test_exact_scan_never_holds_a_dense_gram(self):
        n, d, s = 64, 3000, 20
        x = sample_ensemble(Dims(n=n, d=d, k=s), Ensemble.GAUSSIAN_SCALED, seed=3)
        tracemalloc.start()
        try:
            certify_linf_rip(x, epsilon=0.25, s=s)
            certify_pi(x, alpha=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one panel at a time, its scratch, and the carried (value, row) pairs
        assert peak < 2 * ripcert.PANEL_BYTES + 16 * d * s

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


@pytest.mark.parametrize(
    "certify",
    [
        lambda x: certify_l2_rip(x, epsilon=-math.inf, s=2, mode="sampled"),
        lambda x: certify_linf_rip(x, epsilon=-math.inf, s=2),
        lambda x: certify_pi(x, alpha=-math.inf),
    ],
    ids=["l2-sampled", "linf-exact", "pi"],
)
def test_certifiers_reject_a_negative_infinite_threshold(certify):
    # "--eps -inf" reads as a flag on the command line; test_cli passes the other bad values
    with pytest.raises(ValueError, match=r"(epsilon|alpha) must be a finite number, got -inf"):
        certify(np.eye(5))


@pytest.mark.parametrize(
    "certify",
    [
        lambda x: certify_l2_rip(x, epsilon=10**400, s=2),
        lambda x: certify_linf_rip(x, epsilon=10**400, s=2),
        lambda x: certify_linf_rip(x, epsilon=-(10**400), s=2, mode="sampled"),
        lambda x: certify_pi(x, alpha=10**400),
    ],
    ids=["l2-exact", "linf-exact", "linf-sampled-negative", "pi"],
)
def test_certifiers_reject_a_huge_integer_threshold(certify):
    # float() overflows on these; the threshold is named as a configuration would name it
    with pytest.raises(ValueError, match=r"(epsilon|alpha) must be a finite number, got -?1000"):
        certify(np.eye(5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "certify",
    [
        lambda x: certify_l2_rip(x, epsilon=0.25, s=2),
        lambda x: certify_l2_rip(x, epsilon=0.25, s=2, mode="sampled", trials=20),
        lambda x: certify_linf_rip(x, epsilon=0.25, s=2),
        lambda x: certify_linf_rip(x, epsilon=0.25, s=2, mode="sampled", trials=20),
        lambda x: certify_pi(x, alpha=0.25),
        welch_floor,
    ],
    ids=["l2-exact", "l2-sampled", "linf-exact", "linf-sampled", "pi", "welch"],
)
def test_certifiers_reject_a_design_with_a_non_finite_entry(certify, bad):
    # a NaN or infinite entry would decide the verdict, in every certifier and mode
    x = np.eye(12)
    x[3, 5] = bad
    with pytest.raises(ValueError, match="design has a non-finite entry"):
        certify(x)


@pytest.mark.parametrize("certify", [certify_l2_rip, certify_linf_rip])
def test_certifiers_name_an_unknown_mode(certify):
    # a misspelt mode must not run the sampled scan
    with pytest.raises(ValueError, match="unknown mode 'exakt'; expected 'exact' or 'sampled'"):
        certify(np.eye(5), 0.25, 2, mode="exakt")


def test_certificate_json():
    # the whole string, one certificate per verdict: the fields in order, the witness as a list
    cases = [
        (
            certify_pi(planted_matrix(4, 0.2), alpha=0.1),
            '{"kind": "pairwise_incoherence", "threshold": 0.1, "s": 2, "verdict": "fails", '
            '"achieved": 0.2, "witness": [0, 1], "exact": true}',
        ),
        (
            certify_l2_rip(np.eye(6), 0.01, 2),
            '{"kind": "l2_rip", "threshold": 0.01, "s": 2, "verdict": "holds", '
            '"achieved": 0.0, "witness": [0, 1], "exact": true}',
        ),
        (
            certify_linf_rip(np.eye(6), 0.25, 2, mode="sampled", trials=5),
            '{"kind": "linf_rip", "threshold": 0.25, "s": 2, "verdict": "lower_bound_only", '
            '"achieved": 0.0, "witness": null, "exact": false}',
        ),
        (
            certify_linf_rip(planted_matrix(5, 0.3), 0.25, 3),
            '{"kind": "linf_rip", "threshold": 0.25, "s": 3, "verdict": "fails", '
            '"achieved": 0.39000000000000007, "witness": [0, 1, 2], "exact": true}',
        ),
    ]
    for cert, expected in cases:
        assert certificate_to_json(cert) == expected
