import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from linfrec.core import Dims, Ensemble, gaussian_noise, sample_ensemble
from linfrec.frozen import (
    METRIC_CHAIN_DELTA,
    METRIC_CHAIN_LOWER_A,
    METRIC_CHAIN_UPPER_A,
)
from linfrec.linops import SolverFailure
from linfrec.metrics import compute_metrics


def test_zero_noise_all_metrics_zero():
    x = sample_ensemble(Dims(n=20, d=10, k=2), Ensemble.GAUSSIAN_SCALED, 1)
    mr = compute_metrics(x, np.zeros(20), np.array([0, 3]))
    assert mr.m_gram == mr.m_gram_support == mr.m_l2 == mr.m_linf == 0.0
    assert mr.m_ols == 0.0


def test_identity_design_unit_noise():
    n = 6
    x = np.eye(n)
    xi = np.zeros(n)
    xi[0] = 1.0
    mr = compute_metrics(x, xi, np.array([0]))
    assert mr.m_gram == 1.0
    assert mr.m_gram_support == 1.0
    assert mr.m_ols == pytest.approx(1.0, abs=1e-9)
    assert mr.m_linf == 1.0
    assert mr.m_l2 == pytest.approx(1.0 / math.sqrt(n), abs=1e-12)


def test_support_metric_never_exceeds_full_metric(rng):
    for _ in range(10):
        x = rng.standard_normal((30, 15)) / math.sqrt(30)
        xi = rng.standard_normal(30)
        s = np.sort(rng.choice(15, size=5, replace=False))
        mr = compute_metrics(x, xi, s)
        assert mr.m_gram_support <= mr.m_gram + 1e-15
        assert mr.m_gram >= 0 and mr.m_l2 >= 0


@settings(max_examples=50, deadline=None)
@given(
    xi=arrays(np.float64, st.integers(1, 30), elements=st.floats(-1e6, 1e6, allow_nan=False)),
)
def test_norm_comparisons_deterministic(xi):
    # ||xi||_inf <= ||xi||_2 <= sqrt(n) ||xi||_inf, exactly, for every input
    n = len(xi)
    l2 = np.linalg.norm(xi)
    linf = np.max(np.abs(xi))
    assert linf <= l2 + 1e-9 * max(1.0, l2)
    assert l2 <= math.sqrt(n) * linf + 1e-9 * max(1.0, l2)


def test_ratio_fields_match_definitions(rng):
    x = rng.standard_normal((40, 12)) / math.sqrt(40)
    xi = rng.standard_normal(40)
    s = np.array([1, 4, 9])
    mr = compute_metrics(x, xi, s)
    assert mr.ols_over_support == pytest.approx(mr.m_ols / mr.m_gram_support)
    # ||xi||_2 / ||xi||_inf is always in [1, sqrt(n)]
    assert 1.0 <= mr.m_l2 * math.sqrt(40) / mr.m_linf <= math.sqrt(40) + 1e-12


def test_singular_system_reports_missing_ols(monkeypatch):
    # duplicate support columns: singular but consistent, so m_ols is the
    # min-norm least-squares solution's sup norm
    x = np.column_stack([np.ones(5), np.ones(5), np.eye(5)[:, 0]])
    xi = np.array([1.0, -1.0, 0.5, 0.0, 0.0])
    s = np.array([0, 1])
    mr = compute_metrics(x, xi, s)
    min_norm = np.linalg.lstsq(x[:, s], xi, rcond=None)[0]
    assert mr.m_ols == pytest.approx(np.max(np.abs(min_norm)), abs=1e-12)
    assert "ols_failure" not in mr.diagnostics

    def failing_solve(x, s, rhs):
        raise SolverFailure("restricted least-squares did not converge", 1.0)

    monkeypatch.setattr("linfrec.metrics.restricted_ols", failing_solve)
    mr = compute_metrics(x, xi, s)
    assert mr.m_ols is None
    assert "achieved residual" in mr.diagnostics["ols_failure"]
    assert mr.ols_over_support is None


from functools import lru_cache


@lru_cache(maxsize=4)
def _chain_draws(trials, n=1200, d=4000, k=10):
    out = []
    for t in range(trials):
        rng = np.random.default_rng(200 + t)
        x = sample_ensemble(Dims(n=n, d=d, k=k), Ensemble.GAUSSIAN_SCALED, 200 + t)
        xi = gaussian_noise(n, 1.0, 300 + t)
        s = np.sort(rng.choice(d, size=k, replace=False))
        out.append((compute_metrics(x, xi, s), n, k))
    return out


class TestEquivalenceChain:
    def _draws(self, trials, n=1200, d=4000, k=10):
        return _chain_draws(trials, n, d, k)

    def test_ols_within_factor_six_of_support_metric(self):
        trials, hits = 40, 0
        for mr, _, _ in self._draws(40):
            ratio = mr.ols_over_support
            hits += ratio is not None and 1.0 / 6.0 <= ratio <= 6.0
        assert hits >= 0.95 * trials

    def test_support_metric_upper_chain(self):
        # support correlation at most A ||xi||_2 sqrt(ln(k/delta)/n)
        trials, hits = 40, 0
        for mr, n, k in self._draws(40):
            l2 = mr.m_l2 * math.sqrt(n)
            bound = METRIC_CHAIN_UPPER_A * l2 * math.sqrt(math.log(k / METRIC_CHAIN_DELTA) / n)
            hits += mr.m_gram_support <= bound
        assert hits >= 0.95 * trials

    def test_support_metric_lower_chain(self):
        # support correlation at least a ||xi||_2 / sqrt(n), k >= 16
        trials, hits = 40, 0
        for mr, n, k in self._draws(40, k=16):
            l2 = mr.m_l2 * math.sqrt(n)
            hits += mr.m_gram_support >= METRIC_CHAIN_LOWER_A * l2 / math.sqrt(n)
        assert hits >= 0.95 * trials
