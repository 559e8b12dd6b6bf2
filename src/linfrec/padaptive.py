"""Masked observation oracle and the recursive support estimator.

The oracle hands out fresh measurement blocks with chosen columns zeroed
before the observation is formed, so each query reveals only the unmasked
part of the hidden signal.  The estimator warm-starts with IHT, then
repeatedly masks everything it has found and thresholds correlations to pick
up the remainder, and finishes with restricted least squares on the collected
support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SCALARS, Dims, Ensemble, check, check_vector, draw_tiles, gaussian_noise
from .linops import hard_threshold_values, restricted_ols
from .recovery import RecoveryReport, iht

__all__ = [
    "MaskedOracle",
    "SupportBlowupError",
    "ThresholdStats",
    "adaptive_support_recover",
    "default_r_inf",
    "threshold_stats",
]

# Signal-to-noise constant of the variable-selection problem; the FP/FN
# analysis thresholds at half of it.  Calibrated once and frozen.
SNR_CONSTANT = 80.0
SUPPORT_CAP_FACTOR = 64.0


class SupportBlowupError(RuntimeError):
    """The accumulated support exceeded the false-positive budget."""


@dataclass
class QueryRecord:
    rows: int
    # ||X^T xi||_inf of the block: analysis only
    noise_corr: float


class MaskedOracle:
    """Stateful query interface hiding a sparse truth.

    Every call to :meth:`masked_observe` draws a fresh design block (entries
    of variance 1/rows), keyed by ``(master_seed, query_index)`` with the
    masked columns zero and their tiles left undrawn, and fresh Gaussian noise
    ``gaussian_noise(rows, noise_sigma, master_seed, query_index)``.  It
    returns ``(block, cols, y)``: the drawn tiles packed side by side and
    their columns, as ``core.draw_tiles`` gives them, and ``y = X theta + xi``,
    computed from the drawn tiles alone as ``block @ theta[cols] + xi``.  A
    mask moves no unmasked entry and no noise entry.  The truth enters only
    through its unmasked coordinates.  Analysis code may read :attr:`truth`
    and each query's ``noise_corr`` in :attr:`query_log`; estimator code must
    not.
    """

    def __init__(
        self,
        dims: Dims,
        truth: np.ndarray,
        noise_sigma: float,
        master_seed: int,
        ensemble: Ensemble = Ensemble.GAUSSIAN_SCALED,
    ):
        self.truth = check_vector(truth, "truth", dims.d)
        self.noise_sigma = check(noise_sigma, "noise_sigma", "a finite nonnegative number")
        self.master_seed = check(master_seed, "master_seed", "a nonnegative integer")
        self.dims = dims
        self.ensemble = Ensemble(ensemble)
        self.query_log: list[QueryRecord] = []

    def masked_observe(self, rows: int, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw and log the next query: the drawn tiles' block, their columns and y."""
        check(rows, "rows", "a positive integer")
        qi = len(self.query_log)
        x, cols = draw_tiles((self.master_seed, qi), rows, self.dims.d, self.ensemble, mask)
        xi = gaussian_noise(rows, self.noise_sigma, self.master_seed, qi)
        signal = x @ self.truth[cols]
        y = signal + xi
        corr = float(np.max(np.abs(x.T @ (y - signal)), initial=0.0))
        self.query_log.append(QueryRecord(rows, corr))
        return x, cols, y

    def rows_consumed(self) -> int:
        return sum(q.rows for q in self.query_log)


@dataclass
class ThresholdStats:
    s_fp: np.ndarray  # sorted int64 indices
    s_fn: np.ndarray
    fn_energy_ratio: float


def threshold_stats(
    x: np.ndarray,
    y: np.ndarray,
    truth: np.ndarray,
    threshold: float,
) -> ThresholdStats:
    """Partition coordinates by the rule |x_i^T y| >= threshold versus truth.

    False positives pass the test off the true support; false negatives fail
    it on the support.  ``fn_energy_ratio`` is the fraction of signal l2 mass
    sitting on the false negatives.  The threshold may be infinite, not NaN.
    """
    y, truth = check_vector(y, "y", x.shape[0]), check_vector(truth, "truth", x.shape[1])
    threshold = check(threshold, "threshold", "a number other than NaN")
    corr = np.abs(x.T @ y)
    on = truth != 0
    hit = corr >= threshold
    s_fp = np.flatnonzero(hit & ~on)
    s_fn = np.flatnonzero(~hit & on)
    total = float(np.linalg.norm(truth))
    ratio = 0.0 if total == 0.0 else float(np.linalg.norm(truth[s_fn]) / total)
    return ThresholdStats(s_fp=s_fp, s_fn=s_fn, fn_energy_ratio=ratio)


def default_r_inf(noise_sigma: float, d: int) -> float:
    """Per-round correlation threshold from the known noise scale.

    The analysis wants half of ``SNR_CONSTANT`` times the realized per-round
    noise correlation level, which is not observable a priori; the Gaussian
    tail proxy sigma * sqrt(2 ln d) stands in for it.
    """
    sigma, d = check(noise_sigma, "noise_sigma", "a finite nonnegative number"), check(d, "d", "a positive integer")
    return 0.5 * SNR_CONSTANT * sigma * math.sqrt(2.0 * math.log(d))


def _check_rounds(n: int, rounds: int) -> None:
    """Reject fewer than one round, or an n-row budget that leaves each round no rows (n < 3 * rounds)."""
    if not SCALARS["a positive integer"](rounds):
        raise ValueError(f"need at least one adaptive round: rounds must be a positive integer, got {rounds!r}")
    if n < 3 * rounds:
        raise ValueError(f"n={n} leaves each of rounds={rounds} rounds no rows; need n >= {3 * rounds}")


def adaptive_support_recover(
    oracle: MaskedOracle, rounds: int, R: float, r2: float, r_inf: float
) -> RecoveryReport:
    """Recover support and values through masked queries.

    The budget is ``oracle.dims``: n rows in all, sparsity k.  Phase I: IHT
    at resolution ``r2`` on an unmasked block of n // 3 rows; its support
    seeds T_0.  Phase II: ``rounds`` rounds of n // (3 rounds) rows, each
    masking the current T and adding coordinates whose correlation with the
    fresh observation clears ``r_inf``.  Phase III: the remaining rows, masking
    everything outside T, so that only the tiles holding T are drawn,
    restricted least squares on T, then hard threshold to k.  An
    n below 3 * rounds, which leaves each round no rows, raises a ValueError
    naming both before the first query.
    """
    n, d, k = oracle.dims.n, oracle.dims.d, oracle.dims.k
    _check_rounds(n, rounds)
    for value, name in ((R, "R"), (r2, "r2"), (r_inf, "r_inf")):  # before the first query
        check(value, name, "a finite number")
    x0, _, y0 = oracle.masked_observe(n // 3, np.empty(0, dtype=np.int64))
    warm = iht(x0, y0, k, R, r2)
    del x0, y0  # the warm block is the largest; free it before the later draws
    t_cur = np.flatnonzero(warm.estimate)
    support_trace = [len(t_cur)]
    support_sets = [t_cur.tolist()]

    round_rows = n // (3 * rounds)
    for _ in range(rounds):
        xb, cols, yb = oracle.masked_observe(round_rows, t_cur)
        t_cur = np.union1d(t_cur, cols[np.abs(xb.T @ yb) >= r_inf])
        support_trace.append(len(t_cur))
        support_sets.append(t_cur.tolist())

    cap = SUPPORT_CAP_FACTOR * k * max(math.log(k), 1.0)
    if len(t_cur) > cap:
        raise SupportBlowupError(
            f"support grew to {len(t_cur)} > cap {cap:.0f}; false-positive control failed"
        )

    theta = np.zeros(d)
    xb, cols, y_f = oracle.masked_observe(n - n // 3 - rounds * round_rows, np.setdiff1d(np.arange(d), t_cur))
    if len(t_cur):
        theta[t_cur] = restricted_ols(xb, np.searchsorted(cols, t_cur), y_f)
    theta = hard_threshold_values(theta, k)

    return RecoveryReport(
        estimate=theta,
        iterations=rounds,
        diagnostics={
            "support_trace": support_trace,
            "support_sets": support_sets,
            "rows_consumed": oracle.rows_consumed(),
        },
    )
