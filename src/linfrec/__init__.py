"""Sup-norm sparse recovery toolkit.

Estimators for recovering a k-sparse signal from noisy linear measurements
with entrywise (sup-norm) error control, certifiers for the matrix properties
the guarantees rest on, adversarial constructions that separate the oblivious
and adaptive noise regimes, and a seeded Monte Carlo harness.
"""

from .core import (
    Dims,
    Ensemble,
    RecoveryInstance,
    build_instance,
    gaussian_noise,
    sample_ensemble,
)
from .linops import SolverFailure, inf_op_norm, restricted_gram, restricted_ols
from .recovery import RecoveryReport, iht, oblivious_recover, osr_reduction
from .ripcert import RipCertificate, certify_l2_rip, certify_linf_rip, certify_pi, linf_rip_sample_floor, welch_floor

__version__ = "0.1.0"

__all__ = [
    "Dims",
    "Ensemble",
    "RecoveryInstance",
    "RecoveryReport",
    "RipCertificate",
    "SolverFailure",
    "build_instance",
    "certify_l2_rip",
    "certify_linf_rip",
    "certify_pi",
    "gaussian_noise",
    "iht",
    "inf_op_norm",
    "linf_rip_sample_floor",
    "oblivious_recover",
    "osr_reduction",
    "restricted_gram",
    "restricted_ols",
    "sample_ensemble",
    "welch_floor",
]
