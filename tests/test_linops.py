import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import dense_restricted_solve, orthonormal_columns, power_iteration_norm
from linfrec.linops import (
    DEFAULT_TOL,
    SolverFailure,
    _cg_solve,
    hard_threshold_values,
    inf_op_norm,
    restricted_gram,
    restricted_ols,
)

finite_vecs = arrays(
    np.float64,
    st.integers(1, 12),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestHardThreshold:
    def test_examples(self):
        assert np.array_equal(hard_threshold_values(np.array([3.0, -5.0, 1.0, 0.0]), 2), [3.0, -5.0, 0.0, 0.0])
        assert np.array_equal(hard_threshold_values(np.array([3.0, -5.0, 1.0]), 0), [0.0, 0.0, 0.0])
        # lexicographic tie-break keeps the smaller index
        assert np.array_equal(hard_threshold_values(np.array([2.0, -2.0]), 1), [2.0, 0.0])

    def test_bad_k(self):
        with pytest.raises(ValueError):
            hard_threshold_values(np.zeros(3), 4)

    @settings(max_examples=60, deadline=None)
    @given(v=finite_vecs, k=st.integers(0, 12))
    def test_idempotent(self, v, k):
        k = min(k, len(v))
        once = hard_threshold_values(v, k)
        twice = hard_threshold_values(once, k)
        assert np.array_equal(once, twice)

    @settings(max_examples=200, deadline=None)
    @given(
        v=arrays(
            np.float64,
            st.integers(2, 40),
            elements=st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(allow_nan=False, allow_infinity=False)
            ),
        ),
        data=st.data(),
    )
    def test_keeps_what_a_lexsort_by_magnitude_then_index_keeps(self, v, data):
        # ties (and the +-0 entries drawn often here) go to the smaller index,
        # as a lexsort on (-|v|, index) orders them; a NaN or infinite entry is
        # a ValueError under the array rule (tests/test_arrays.py)
        k = data.draw(st.integers(1, len(v) - 1))
        keep = np.lexsort((np.arange(len(v)), -np.abs(v)))[:k]
        expected = np.zeros(len(v))
        expected[keep] = v[keep]
        assert hard_threshold_values(v, k).tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 10),
        k=st.integers(1, 10),
    )
    def test_properization_bound(self, data, d, k):
        # thresholding any estimate to k-sparse at most doubles its distance
        # to any k-sparse target, in l2 and sup norm
        k = min(k, d)
        theta = np.asarray(
            data.draw(arrays(np.float64, d, elements=st.floats(-100, 100, allow_nan=False)))
        )
        target_vals = data.draw(
            arrays(np.float64, k, elements=st.floats(-100, 100, allow_nan=False))
        )
        support = data.draw(st.permutations(range(d)))[:k]
        truth = np.zeros(d)
        truth[np.asarray(support, dtype=int)] = target_vals
        ht = hard_threshold_values(theta, k)
        for order in (2, np.inf):
            lhs = np.linalg.norm(ht - truth, ord=order)
            rhs = 2 * np.linalg.norm(theta - truth, ord=order)
            assert lhs <= rhs + 1e-9


class TestInfOpNorm:
    def test_examples(self):
        assert inf_op_norm(np.array([[1.0, -2.0], [3.0, 4.0]])) == 7.0
        assert inf_op_norm(np.eye(5)) == 1.0
        assert inf_op_norm(np.zeros((3, 3))) == 0.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            inf_op_norm(np.zeros((2, 3)))

    def test_dominates_spectral_norm_on_symmetric(self, rng):
        for t in range(20):
            a = rng.standard_normal((8, 8))
            sym = 0.5 * (a + a.T)
            assert inf_op_norm(sym) >= power_iteration_norm(sym, seed=t) - 1e-8


class TestRestrictedGram:
    def test_identity(self):
        s = np.array([0, 3, 4])
        assert np.array_equal(restricted_gram(np.eye(6), s), np.eye(3))

    def test_orthonormal_columns(self):
        q = orthonormal_columns(10, 4, seed=2)
        s = np.array([1, 3])
        assert np.allclose(restricted_gram(q, s), np.eye(2), atol=1e-12)

    def test_matches_column_dot_oracle(self, rng):
        x = rng.standard_normal((4, 3))
        s = np.array([0, 2])
        got = restricted_gram(x, s)
        oracle = np.array(
            [
                [x[:, 0] @ x[:, 0], x[:, 0] @ x[:, 2]],
                [x[:, 2] @ x[:, 0], x[:, 2] @ x[:, 2]],
            ]
        )
        assert np.allclose(got, oracle, atol=1e-12)
        assert np.array_equal(got, got.T)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            restricted_gram(np.eye(3), np.empty(0, dtype=np.int64))


class TestRestrictedOls:
    def test_identity_design(self):
        w = restricted_ols(np.eye(3), np.array([1]), np.array([0.0, 1.0, 0.0]))
        assert np.allclose(w, [1.0], atol=1e-9)

    def test_consistent_system(self, rng):
        # noiseless rhs on the true support reproduces the signal
        x = rng.standard_normal((60, 10)) / np.sqrt(60)
        theta_s = np.array([1.5, -2.0, 0.25])
        s = np.array([2, 5, 7])
        theta = np.zeros(10)
        theta[s] = theta_s
        w = restricted_ols(x, s, x @ theta)
        assert np.allclose(w, theta_s, atol=1e-6)

    def test_matches_dense_oracle(self, rng):
        for t in range(25):
            n = int(rng.integers(40, 120))
            ssize = int(rng.integers(1, 20))
            x = rng.standard_normal((n, 25)) / np.sqrt(n)
            s = np.sort(rng.choice(25, size=ssize, replace=False))
            rhs = rng.standard_normal(n)
            got = restricted_ols(x, s, rhs)
            want = dense_restricted_solve(x, s, x[:, s].T @ rhs)
            denom = 1.0 + np.max(np.abs(want))
            assert np.max(np.abs(got - want)) / denom <= 1e-8

    def test_duplicate_columns_solve_to_min_norm(self):
        # duplicated columns give a singular but consistent normal system;
        # CG from zero stays in the Gram's range and finds its min-norm solution
        x = np.column_stack([np.ones(4), np.ones(4)])
        w = restricted_ols(x, np.array([0, 1]), np.array([1.0, -1.0, 2.0, 0.0]))
        assert np.allclose(w, [0.25, 0.25], atol=1e-12)

    def test_solver_failure_attaches_residual(self):
        # b = (1, -1) lies in the null space of the duplicate-column Gram
        # [[4, 4], [4, 4]], so no w reduces the residual below ||b||_inf
        cols = np.column_stack([np.ones(4), np.ones(4)])
        with pytest.raises(SolverFailure) as exc_info:
            _cg_solve(cols, np.array([1.0, -1.0]))
        assert exc_info.value.residual == 1.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 8), ssize=st.integers(1, 12), extra=st.integers(0, 4))
    def test_contract_on_consistent_systems(self, data, rows, ssize, extra):
        # X_S^T rhs always lies in the Gram's range, so every call is consistent,
        # including the rank-deficient ones with |S| > rows or repeated columns
        small_ints = st.integers(-3, 3).map(float)
        x = data.draw(arrays(np.float64, (rows, ssize + extra), elements=small_ints))
        rhs = data.draw(arrays(np.float64, rows, elements=small_ints))
        support = data.draw(st.permutations(range(ssize + extra)))[:ssize]
        s = np.sort(support)
        w = restricted_ols(x, s, rhs)
        cols = x[:, s]
        b = cols.T @ rhs
        resid = np.max(np.abs(cols.T @ (cols @ w) - b))
        assert resid <= DEFAULT_TOL * (1.0 + np.max(np.abs(b)))
