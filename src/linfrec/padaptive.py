"""Masked observation oracle and the recursive support estimator.

The oracle hands out fresh measurement blocks with chosen columns zeroed
before the observation is formed, so each query reveals only the unmasked
part of the hidden signal.  The estimator warm-starts with IHT, then
repeatedly masks everything it has found and thresholds correlations to pick
up the remainder, and finishes with restricted least squares on the collected
support.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import Dims, Ensemble, MeasurementMatrix, SparseVector, as_array, draw_design, rng_from
from .linops import IndexSet, hard_threshold_values, restricted_ols
from .recovery import IhtParams, RecoveryReport, iht

__all__ = [
    "MaskedOracle",
    "SupportBlowupError",
    "SupportEstimatorParams",
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
    mask: list[int]
    sub_seed: int
    # ||X^T xi||_inf of the block: analysis only, never in the transcript
    noise_corr: float = 0.0


class MaskedOracle:
    """Stateful query interface hiding a sparse truth.

    Every call to :meth:`masked_observe` draws a fresh design block (entries
    of variance 1/rows) and fresh Gaussian noise, deterministically from
    ``(master_seed, query_index)``, zeroes the masked columns, and returns
    ``(X, y)`` with ``y = X theta + xi``.  The truth enters only through its
    unmasked coordinates.  Analysis code may read :attr:`truth` and each
    query's ``noise_corr`` in :attr:`query_log`; estimator code must not.
    """

    def __init__(
        self,
        dims: Dims,
        truth: SparseVector,
        noise_sigma: float,
        master_seed: int,
        ensemble: Ensemble = Ensemble.GAUSSIAN_SCALED,
    ):
        if truth.d != dims.d:
            raise ValueError(f"truth length {truth.d} != d {dims.d}")
        self.dims = dims
        self.truth = truth
        self.noise_sigma = float(noise_sigma)
        self.master_seed = int(master_seed)
        self.ensemble = Ensemble(ensemble)
        self.query_log: list[QueryRecord] = []

    def masked_observe(self, rows: int, mask: IndexSet) -> tuple[MeasurementMatrix, np.ndarray]:
        if rows < 1:
            raise ValueError("must request at least one row")
        qi = len(self.query_log)
        rng = rng_from(self.master_seed, qi)
        data = draw_design(rng, rows, self.dims.d, self.ensemble)
        xi = rng.standard_normal(rows) * self.noise_sigma
        if len(mask):
            data[:, mask.indices] = 0.0
        signal = data @ self.truth.values
        y = signal + xi
        corr = float(np.max(np.abs(data.T @ (y - signal)), initial=0.0))
        self.query_log.append(QueryRecord(rows, [int(i) for i in mask.indices], qi, corr))
        return MeasurementMatrix(data=data, ensemble=self.ensemble), y

    def rows_consumed(self) -> int:
        return sum(q.rows for q in self.query_log)

    def transcript_json(self) -> str:
        doc = {
            "format": "linfrec-oracle-transcript-v1",
            "dims": {"n": self.dims.n, "d": self.dims.d, "k": self.dims.k},
            "noise_sigma": self.noise_sigma,
            "master_seed": self.master_seed,
            "ensemble": self.ensemble.value,
            "queries": [
                {"rows": q.rows, "mask": q.mask, "sub_seed": q.sub_seed} for q in self.query_log
            ],
        }
        return json.dumps(doc)

    @classmethod
    def replay(cls, transcript: str, truth: SparseVector) -> list[tuple[MeasurementMatrix, np.ndarray]]:
        """Regenerate the (X, y) sequence of a recorded transcript."""
        doc = json.loads(transcript)
        if doc.get("format") != "linfrec-oracle-transcript-v1":
            raise ValueError("not an oracle transcript")
        dims = Dims(**doc["dims"])
        oracle = cls(
            dims, truth, doc["noise_sigma"], doc["master_seed"], Ensemble(doc["ensemble"])
        )
        out = []
        for q in doc["queries"]:
            out.append(oracle.masked_observe(q["rows"], IndexSet.from_iterable(q["mask"])))
        return out


@dataclass
class ThresholdStats:
    s_fp: IndexSet
    s_fn: IndexSet
    fn_energy_ratio: float


def threshold_stats(
    x: MeasurementMatrix | np.ndarray,
    y: np.ndarray,
    truth: SparseVector,
    threshold: float,
) -> ThresholdStats:
    """Partition coordinates by the rule |x_i^T y| >= threshold versus truth.

    False positives pass the test off the true support; false negatives fail
    it on the support.  ``fn_energy_ratio`` is the fraction of signal l2 mass
    sitting on the false negatives.
    """
    data = as_array(x)
    corr = np.abs(data.T @ np.asarray(y, dtype=np.float64))
    on = np.zeros(data.shape[1], dtype=bool)
    on[truth.support] = True
    hit = corr >= threshold
    s_fp = IndexSet(np.flatnonzero(hit & ~on).astype(np.int64))
    s_fn = IndexSet(np.flatnonzero(~hit & on).astype(np.int64))
    total = float(np.linalg.norm(truth.values))
    ratio = 0.0 if total == 0.0 else float(np.linalg.norm(truth.values[s_fn.indices]) / total)
    return ThresholdStats(s_fp=s_fp, s_fn=s_fn, fn_energy_ratio=ratio)


def default_r_inf(noise_sigma: float, d: int, snr_constant: float = SNR_CONSTANT) -> float:
    """Per-round correlation threshold from the known noise scale.

    The analysis wants half the SNR constant times the realized per-round
    noise correlation level, which is not observable a priori; the Gaussian
    tail proxy sigma * sqrt(2 ln d) stands in for it.
    """
    return 0.5 * snr_constant * noise_sigma * math.sqrt(2.0 * math.log(d))


@dataclass(frozen=True)
class SupportEstimatorParams:
    """Budgets for the three-phase masked-query estimator.

    One third of the rows warm-start, one third spreads across N masking
    rounds (floor division; the remainder joins the final phase), one third
    funds the closing least-squares fit.
    """

    k: int
    n_total: int
    N: int
    R: float
    r2: float
    r_inf: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("need at least one adaptive round")

    @property
    def warm_rows(self) -> int:
        return self.n_total // 3

    @property
    def round_rows(self) -> int:
        return self.n_total // (3 * self.N)

    @property
    def final_rows(self) -> int:
        return self.n_total - self.warm_rows - self.N * self.round_rows


def adaptive_support_recover(
    oracle: MaskedOracle, params: SupportEstimatorParams
) -> RecoveryReport:
    """Recover support and values through masked queries.

    Phase I: IHT on an unmasked block; its support seeds T_0.  Phase II: N
    rounds, each masking the current T and adding coordinates whose
    correlation with the fresh observation clears ``r_inf``.  Phase III: a
    fresh block masking everything outside T, restricted least squares on T,
    then hard threshold to k.
    """
    d = oracle.dims.d
    x0, y0 = oracle.masked_observe(params.warm_rows, IndexSet.from_iterable([]))
    warm = iht(x0, y0, IhtParams(k=params.k, R=params.R, r=params.r2))
    t_cur = IndexSet(warm.estimate.support.copy())
    support_trace = [len(t_cur)]
    support_sets = [[int(i) for i in t_cur.indices]]

    for _ in range(params.N):
        xi_blk, yi = oracle.masked_observe(params.round_rows, t_cur)
        corr = np.abs(xi_blk.data.T @ yi)
        found = np.flatnonzero(corr >= params.r_inf).astype(np.int64)
        t_cur = t_cur.union(IndexSet(found))
        support_trace.append(len(t_cur))
        support_sets.append([int(i) for i in t_cur.indices])

    cap = SUPPORT_CAP_FACTOR * params.k * max(math.log(params.k), 1.0)
    if len(t_cur) > cap:
        raise SupportBlowupError(
            f"support grew to {len(t_cur)} > cap {cap:.0f}; false-positive control failed"
        )

    theta = np.zeros(d)
    xf, yf = oracle.masked_observe(params.final_rows, t_cur.complement(d))
    if len(t_cur):
        w = restricted_ols(xf, t_cur, yf)
        theta[t_cur.indices] = w
    theta = hard_threshold_values(theta, params.k)

    return RecoveryReport(
        estimate=SparseVector.from_dense(theta, budget=params.k),
        iterations=params.N,
        diagnostics={
            "support_trace": support_trace,
            "support_sets": support_sets,
            "final_support": [int(i) for i in t_cur.indices],
            "rows_consumed": oracle.rows_consumed(),
        },
    )
