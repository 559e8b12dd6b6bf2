import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import linfrec
from conftest import brute_force_sign_max, dense_lp_ratio, orthonormal_columns
from linfrec.adversarial import (
    ConstructionFailure,
    build_indistinguishable_pair,
    build_masking_vector,
    build_metric_impossibility_pair,
    save_pair,
)
from linfrec.core import Dims, Ensemble, load_instance, sample_ensemble
from linfrec.linops import IndexSet, restricted_gram
from linfrec.ripcert import certify_linf_rip


def gaussian(n, d, seed):
    return sample_ensemble(Dims(n=n, d=d, k=1), Ensemble.GAUSSIAN_SCALED, seed)


class TestMaskingVector:
    def test_orthonormal_gram_gives_sign_vector(self):
        q = orthonormal_columns(12, 6, seed=1)
        s = IndexSet.from_iterable([0, 2, 5])
        mv = build_masking_vector(q, s, normalize=False)
        assert mv.linf_v == pytest.approx(1.0, abs=1e-9)
        # on-support correlation equals the sign vector itself
        on_support = q[:, s.indices].T @ (q @ mv.v)
        assert np.max(np.abs(on_support)) == pytest.approx(1.0, abs=1e-9)

    def test_explicit_2x2_gram_against_dense_oracle(self):
        # columns with unit norms and inner product 1/2
        x = np.zeros((3, 2))
        x[:, 0] = [1.0, 0.0, 0.0]
        x[:, 1] = [0.5, math.sqrt(0.75), 0.0]
        s = IndexSet.from_iterable([0, 1])
        m = restricted_gram(x, s)
        assert np.allclose(m, [[1.0, 0.5], [0.5, 1.0]], atol=1e-12)
        # oracle: M^{-1} = (4/3) [[1, -1/2], [-1/2, 1]]; both rows have l1
        # norm 2; tie goes to row 0 so u = (+1, -1) and v_S = (2, -2)
        mv = build_masking_vector(x, s, normalize=False)
        assert mv.linf_v == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(mv.v, [2.0, -2.0], atol=1e-9)

    def test_sign_choice_is_exact_maximizer(self, rng):
        # brute force over all sign vectors confirms the max-l1-row rule
        for t in range(10):
            n, d, ssize = 40, 20, int(rng.integers(2, 9))
            x = rng.standard_normal((n, d)) / np.sqrt(n)
            s = IndexSet(np.sort(rng.choice(d, size=ssize, replace=False)).astype(np.int64))
            m_inv = np.linalg.inv(restricted_gram(x, s))
            mv = build_masking_vector(x, s, normalize=False)
            assert mv.linf_v == pytest.approx(brute_force_sign_max(m_inv), rel=1e-10)
            assert mv.linf_v == pytest.approx(np.max(np.abs(m_inv).sum(axis=1)), rel=1e-10)

    def test_normalization_unit_gram_image(self):
        x = gaussian(100, 400, seed=4)
        s = IndexSet.from_iterable(range(20))
        mv = build_masking_vector(x, s, normalize=True)
        assert mv.normalized
        gram_v = x.T @ (x @ mv.v)
        assert np.max(np.abs(gram_v)) == pytest.approx(1.0, abs=1e-9)
        # linf_gram_v keeps the pre-normalization value
        assert mv.linf_gram_v > 1.0

    def test_normalized_ratio_matches_dense_lp(self, rng):
        # the normalized vector attains the dense LP optimum over all 2d
        # constraints and never falls below the sign-pattern vector's ratio
        cases = []
        for n, d, ssize in [(30, 200, 6), (20, 300, 8), (40, 60, 3), (25, 150, 10)]:
            x = rng.standard_normal((n, d)) / np.sqrt(n)
            s = IndexSet(np.sort(rng.choice(d, size=ssize, replace=False)).astype(np.int64))
            cases.append((x, s, None))
        # off-support column 3 * x_{s_0}: its constraint |(X_S^T X_S v_S)_0| <= 1/3
        # cuts off every on-support optimum, so it binds at the LP optimum
        x = rng.standard_normal((40, 12)) / np.sqrt(40)
        s = IndexSet.from_iterable(range(5))
        x[:, 11] = 3.0 * x[:, 0]
        cases.append((x, s, 11))
        for x, s, binding in cases:
            mv = build_masking_vector(x, s)
            sign = build_masking_vector(x, s, normalize=False)
            assert mv.linf_v == pytest.approx(dense_lp_ratio(x, s.indices), rel=1e-9)
            assert mv.linf_v >= sign.linf_v / sign.linf_gram_v * (1.0 - 1e-12)
            if binding is not None:
                img = x.T @ (x @ mv.v)
                assert abs(img[binding]) == pytest.approx(1.0, abs=1e-9)
                assert mv.linf_v > sign.linf_v / sign.linf_gram_v

    def test_median_magnitude_at_reference_point(self):
        # median of ||v||_inf / ||X^T X v||_inf over seeds clears the frozen
        # multiple of k/sqrt(n) at the reference configuration
        from linfrec.frozen import MASKING_MEDIAN_CONSTANT

        k, n, d = 40, 100, 4000
        vals = []
        for seed in range(50):
            x = gaussian(n, d, seed=3000 + seed)
            s = IndexSet.from_iterable(range(k // 2))
            mv = build_masking_vector(x, s, normalize=True)
            vals.append(mv.linf_v)
        assert np.median(vals) >= MASKING_MEDIAN_CONSTANT * k / math.sqrt(n)

    def test_off_support_control(self):
        # before normalization the off-support image stays within a factor
        # ten of the on-support image in nearly all draws
        k, n, d = 40, 100, 4000
        hits = 0
        trials = 40
        for seed in range(trials):
            x = gaussian(n, d, seed=4000 + seed)
            s = IndexSet.from_iterable(range(k // 2))
            mv = build_masking_vector(x, s, normalize=False)
            img = x.T @ (x @ mv.v)
            on = np.max(np.abs(img[s.indices]))
            off = np.max(np.abs(np.delete(img, s.indices)))
            hits += off <= 10.0 * on
        assert hits >= 0.95 * trials

    # The LP's answer may exceed the cap by its own roundoff, not by more.
    NEUMANN_RTOL = 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(800, 2000),
        d=st.integers(20, 120),
        s=st.integers(1, 6),
        ensemble=st.sampled_from(list(Ensemble)),
        seed=st.integers(0, 2**32 - 1),
        witness=st.booleans(),
        data=st.data(),
    )
    def test_gain_is_capped_by_the_certificate(self, n, d, s, ensemble, seed, witness, data):
        # |S| <= s gives ||X_S^T X_S - I||_inf <= achieved; below 1, the
        # on-support rows alone cap ||v||_inf / ||X^T X v||_inf at 1/(1 - achieved)
        x = sample_ensemble(Dims(n=n, d=d, k=1), ensemble, seed)
        cert = certify_linf_rip(x, 0.25, s)
        assume(cert.achieved < 1.0)
        if witness:
            support = cert.witness
        else:
            size = data.draw(st.integers(1, s), label="size")
            support = IndexSet.from_iterable(np.random.default_rng(seed).choice(d, size=size, replace=False))
        assert len(support) <= s
        cap = 1.0 / (1.0 - cert.achieved)
        assert build_masking_vector(x, support).linf_v <= cap * (1.0 + self.NEUMANN_RTOL)

    def test_singular_gram_raises(self):
        x = np.column_stack([np.ones(4), np.ones(4)])
        with pytest.raises(ConstructionFailure):
            build_masking_vector(x, IndexSet.from_iterable([0, 1]))

    def test_scaling_sweep_against_sqrt_k(self):
        # along the fixed-ratio sweep n = k^2/16 the median normalized sup
        # norm grows; against log sqrt(k) the regression slope is 0.5 +- 0.35
        meds = []
        ks = (16, 32, 64)
        for k in ks:
            n = k * k // 16
            vals = []
            for seed in range(50):
                x = gaussian(n, 2000, seed=5000 + 13 * k + seed)
                s = IndexSet.from_iterable(range(k // 2))
                vals.append(build_masking_vector(x, s).linf_v)
            meds.append(float(np.median(vals)))
        slope_sqrt_k = float(np.polyfit(np.log(np.sqrt(ks)), np.log(meds), 1)[0])
        assert 0.15 <= slope_sqrt_k <= 0.85


def test_harness_import_loads_no_scipy():
    # the masking LP imports scipy on first use only, so importing the
    # package and its harness stays free of scipy's import time
    src = str(Path(linfrec.__file__).resolve().parents[1])
    code = "import sys, linfrec, linfrec.harness; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestIndistinguishablePair:
    def test_identity_design_degenerate(self):
        # square identity: the Gram is exact, v is the sign vector, and the
        # separation equals the noise correlation scale (no adversary gain)
        d = 10
        x = np.eye(d)
        s = IndexSet.from_iterable([0, 1])
        t = IndexSet.from_iterable([2, 3])
        pair = build_indistinguishable_pair(x, s, t, base_magnitude=1.0)
        sep = np.max(np.abs(pair.theta1 - pair.theta2))
        m1 = np.max(np.abs(x.T @ pair.xi1))
        assert sep == pytest.approx(1.0, abs=1e-12)
        assert m1 == pytest.approx(1.0, abs=1e-12)

    def test_shared_observation_identity(self):
        for seed in range(5):
            x = gaussian(100, 500, seed=6000 + seed)
            pair = build_indistinguishable_pair(
                x, IndexSet.from_iterable(range(10)), IndexSet.from_iterable(range(10, 20)), 2.0
            )
            y1 = x @ pair.theta1 + pair.xi1
            y2 = x @ pair.theta2 + pair.xi2
            tol = 1e-9 * (1.0 + np.max(np.abs(pair.shared_y)))
            assert np.max(np.abs(y1 - y2)) <= tol

    def test_pair_invariants(self):
        x = gaussian(80, 300, seed=3)
        s = IndexSet.from_iterable(range(8))
        t = IndexSet.from_iterable(range(10, 18))
        pair = build_indistinguishable_pair(x, s, t, base_magnitude=1.5)
        # theta1 - theta2 = -v with v supported on s; xi2 is identically zero
        v = pair.theta2 - pair.theta1
        assert np.array_equal(np.flatnonzero(v), s.indices)
        assert np.all(pair.xi2 == 0.0)
        assert np.all(pair.theta1[t.indices] == 1.5)

    def test_preconditions(self):
        x = gaussian(50, 100, seed=4)
        with pytest.raises(ValueError):
            build_indistinguishable_pair(
                x, IndexSet.from_iterable([0, 1]), IndexSet.from_iterable([1, 2]), 1.0
            )
        with pytest.raises(ValueError):
            build_indistinguishable_pair(
                x, IndexSet.from_iterable([0, 1]), IndexSet.from_iterable([2, 3, 4]), 1.0
            )


class TestMetricImpossibilityPair:
    def test_forced_unit_separation_and_shared_column(self):
        x = gaussian(60, 40, seed=5)
        for i in (0, 7, 39):
            pair = build_metric_impossibility_pair(x, i)
            assert np.max(np.abs(pair.theta1 - pair.theta2)) == 1.0
            assert np.array_equal(pair.shared_y, x[:, i])

    def test_noise_metrics_stay_small(self):
        # the planted column has tiny sup norm and order-one l2 norm, far
        # below the forced estimation error
        hits_inf, hits_l2 = 0, 0
        trials = 20
        for seed in range(trials):
            x = gaussian(1000, 4000, seed=7000 + seed)
            pair = build_metric_impossibility_pair(x, seed % 4000)
            hits_inf += np.max(np.abs(pair.xi1)) <= 0.3
            hits_l2 += np.linalg.norm(pair.xi1) <= 1.5
        assert hits_inf == trials
        assert hits_l2 == trials

    def test_bad_index(self):
        x = gaussian(10, 5, seed=6)
        with pytest.raises(ValueError):
            build_metric_impossibility_pair(x, 5)


class TestPairSerialization:
    def test_two_instances_share_one_matrix_file(self, tmp_path):
        x = gaussian(40, 60, seed=9)
        pair = build_indistinguishable_pair(
            x, IndexSet.from_iterable(range(4)), IndexSet.from_iterable(range(4, 8)), 1.0
        )
        p1, p2, pm = save_pair(pair, x, tmp_path)
        import json

        doc1 = json.loads(p1.read_text())
        doc2 = json.loads(p2.read_text())
        assert doc1["matrix"] == doc2["matrix"]  # same file, same content hash
        inst1 = load_instance(p1)
        inst2 = load_instance(p2)
        assert np.array_equal(inst1.x, inst2.x)
        assert np.allclose(inst1.y, inst2.y, atol=1e-12)
        assert np.array_equal(inst2.noise, np.zeros(40))
