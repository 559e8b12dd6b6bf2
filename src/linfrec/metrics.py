"""Candidate sup-norm error metrics and their cross-comparison.

Five ways of measuring the noise scale of an instance, ordered as a chain:
the restricted least-squares image of the noise, its correlation with the
support columns, the correlation with all columns, and the plain l2 / sup
norms of the noise itself.  Under an oblivious Gaussian design the first two
agree to within a factor of 6; the norm comparisons at the tail of the chain
hold deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import check_support, check_vector
from .linops import SolverFailure, restricted_ols

__all__ = ["MetricReport", "compute_metrics"]


@dataclass
class MetricReport:
    m_gram: float          # ||X^T xi||_inf over all columns
    m_gram_support: float  # ||X_{S:}^T xi||_inf
    m_ols: float | None    # ||[X^T X]^+_{SxS} X_{S:}^T xi||_inf (None if the solve fails)
    m_l2: float            # ||xi||_2 / sqrt(n)
    m_linf: float          # ||xi||_inf
    ols_over_support: float | None  # m_ols / m_gram_support (None without m_ols or if the divisor is 0)
    diagnostics: dict = field(default_factory=dict)


def compute_metrics(x: np.ndarray, noise: np.ndarray, s: np.ndarray) -> MetricReport:
    n, d = x.shape
    noise = check_vector(noise, "noise", n)
    s = check_support(s, "support", d)
    corr = x.T @ noise
    m_gram = float(np.max(np.abs(corr), initial=0.0))
    m_gram_support = float(np.max(np.abs(corr[s]), initial=0.0))
    diagnostics = {}
    try:
        w = restricted_ols(x, s, noise)
        m_ols = float(np.max(np.abs(w), initial=0.0))
    except SolverFailure as exc:
        m_ols = None
        diagnostics["ols_failure"] = str(exc)
    m_l2 = float(np.linalg.norm(noise) / math.sqrt(n))
    m_linf = float(np.max(np.abs(noise), initial=0.0))
    return MetricReport(
        m_gram=m_gram,
        m_gram_support=m_gram_support,
        m_ols=m_ols,
        m_l2=m_l2,
        m_linf=m_linf,
        ols_over_support=None if m_ols is None or m_gram_support == 0.0 else m_ols / m_gram_support,
        diagnostics=diagnostics,
    )
