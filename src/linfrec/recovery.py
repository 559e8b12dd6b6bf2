"""The estimators: IHT (for both noise regimes), three-phase oblivious
recovery, and the geometric holdout reduction.  Each sees only the design,
the observation and its parameters; scoring against the truth is the caller's.

The oblivious pipeline splits rows three ways and rescales by sqrt(3) so each
split keeps unit column variance; the reduction splits 2T ways and rescales by
sqrt(2T) for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import MeasurementMatrix, SparseVector, as_array
from .linops import IndexSet, SolverFailure, hard_threshold_values, restricted_ols

__all__ = [
    "IhtParams",
    "ObliviousParams",
    "RecoveryReport",
    "ReductionParams",
    "iht",
    "oblivious_recover",
    "osr_reduction",
]

# Universal constants with no closed form; fixed once, overridable per call
# through the params dataclasses.
DEFAULT_THRESHOLD_C = 1.0 / 80.0  # support-identification threshold is r / c
DEFAULT_HOLDOUT_C = 1.0 / 20.0    # holdout test fires above rho / c'


@dataclass(frozen=True)
class IhtParams:
    """Budget k, signal-norm bound R, target resolution r.

    R bounds ||theta*||_2 in the oblivious regime and ||theta*||_inf in the
    adaptive regime; the iteration itself is identical.
    """

    k: int
    R: float
    r: float

    def __post_init__(self):
        if self.R <= 0 or self.r <= 0:
            raise ValueError("R and r must be positive")

    @property
    def max_iters(self) -> int:
        if self.r >= self.R:
            return 0
        return math.ceil(math.log2(self.R / self.r))


@dataclass(frozen=True)
class ObliviousParams:
    k: int
    R: float
    r: float
    c: float = DEFAULT_THRESHOLD_C

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("threshold constant c must be positive")


@dataclass(frozen=True)
class ReductionParams:
    k: int
    R: float
    r: float
    c: float = DEFAULT_THRESHOLD_C
    c_prime: float = DEFAULT_HOLDOUT_C

    def __post_init__(self):
        if self.c_prime <= 0:
            raise ValueError("holdout constant c' must be positive")


@dataclass
class RecoveryReport:
    estimate: SparseVector
    iterations: int
    diagnostics: dict = field(default_factory=dict)


def _iht_values(
    x: np.ndarray, y: np.ndarray, k: int, n_iters: int, record: bool
) -> tuple[np.ndarray, list[np.ndarray]]:
    theta = np.zeros(x.shape[1])
    trace = [theta.copy()] if record else []
    for _ in range(n_iters):
        theta = hard_threshold_values(theta + x.T @ (y - x @ theta), k)
        if record:
            trace.append(theta.copy())
    return theta, trace


def iht(
    x: MeasurementMatrix | np.ndarray,
    y: np.ndarray,
    params: IhtParams,
    record_iterates: bool = False,
) -> RecoveryReport:
    """Gradient step then keep-top-k, for ceil(log2(R/r)) iterations.

    Under adaptive noise with a sup-norm RIP certificate at (eps <= 1/4, 2k)
    the sup-norm error is at most r + 2 ||X^T xi||_inf.
    """
    data = as_array(x)
    y = np.asarray(y, dtype=np.float64)
    if len(y) != data.shape[0]:
        raise ValueError(f"y length {len(y)} != n {data.shape[0]}")
    n_iters = params.max_iters
    theta, trace = _iht_values(data, y, params.k, n_iters, record_iterates)
    report = RecoveryReport(
        estimate=SparseVector.from_dense(theta, budget=params.k), iterations=n_iters
    )
    if record_iterates:
        report.diagnostics["iterates"] = trace
    return report


def _split_rows(data: np.ndarray, y: np.ndarray, parts: int) -> tuple[list, list, int]:
    """``parts`` equal consecutive row blocks (views), and the rows left over."""
    size = data.shape[0] // parts
    blocks = [slice(i * size, (i + 1) * size) for i in range(parts)]
    return [data[b] for b in blocks], [y[b] for b in blocks], data.shape[0] - parts * size


def oblivious_recover(
    x: MeasurementMatrix | np.ndarray,
    y: np.ndarray,
    params: ObliviousParams,
) -> RecoveryReport:
    """Three-phase recovery: IHT warm start, support thresholding, restricted OLS.

    Phase 1 runs IHT at resolution sqrt(k)*r on the first third of rows.
    Phase 2 thresholds |X^T residual| at r/c on the second third to pick the
    correction support L.  Phase 3 solves restricted least squares on L over
    the last third and adds the correction.  Output support is contained in
    supp(warm start) union L.
    """
    data = as_array(x)
    y = np.asarray(y, dtype=np.float64)
    scale = math.sqrt(3.0)
    xs, ys, dropped = _split_rows(scale * data, scale * y, 3)
    x1, x2, x3 = xs
    y1, y2, y3 = ys

    warm = iht(x1, y1, IhtParams(k=params.k, R=params.R, r=math.sqrt(params.k) * params.r))
    theta_hat = warm.estimate.values

    r2 = y2 - x2 @ theta_hat
    r3 = y3 - x3 @ theta_hat
    corr = x2.T @ r2
    l_idx = np.flatnonzero(np.abs(corr) >= params.r / params.c).astype(np.int64)

    theta = theta_hat.copy()
    if len(l_idx):
        theta[l_idx] += restricted_ols(x3, IndexSet(l_idx), r3)

    budget = int(len(warm.estimate.support) + len(l_idx))
    return RecoveryReport(
        estimate=SparseVector.from_dense(theta, budget=max(budget, 1)),
        iterations=warm.iterations,
        diagnostics={
            "support_size": int(np.count_nonzero(theta)),
            "correction_support": len(l_idx),
            "truncated_rows": dropped,
        },
    )


def osr_reduction(
    x: MeasurementMatrix | np.ndarray,
    y: np.ndarray,
    params: ReductionParams,
) -> RecoveryReport:
    """Geometric-threshold reduction with holdout validation.

    Runs the oblivious pipeline at resolutions R/2, R/4, ... on odd blocks,
    hard-thresholds each output to k, and checks the correlation of the
    residual on the matching even holdout block.  Returns the iterate from
    the round before the first failed check (the zero vector if the first
    check fails), else the final iterate.  A round whose inner least-squares
    step cannot be solved counts as a failed check: the estimate never
    existed, so the last validated iterate is returned.
    """
    data = as_array(x)
    y = np.asarray(y, dtype=np.float64)
    d = data.shape[1]
    if params.r >= params.R:
        return RecoveryReport(estimate=SparseVector.zeros(d, params.k), iterations=0)

    big_t = math.ceil(math.log2(params.R / params.r))
    scale = math.sqrt(2.0 * big_t)
    xs, ys, dropped = _split_rows(scale * data, scale * y, 2 * big_t)

    theta_prev = np.zeros(d)
    rho = params.R
    stop_round = None
    stop_reason = None
    holdout_trace = []
    for t in range(big_t):
        rho /= 2.0
        try:
            inner = oblivious_recover(
                xs[2 * t], ys[2 * t], ObliviousParams(k=params.k, R=params.R, r=rho, c=params.c)
            )
        except SolverFailure:
            # an uncomputable estimate cannot pass validation; keep the last
            # holdout-validated iterate (rounds this deep are junk anyway)
            stop_round = t
            stop_reason = "inner_solver_failure"
            break
        theta_next = hard_threshold_values(inner.estimate.values, params.k)
        xh, yh = xs[2 * t + 1], ys[2 * t + 1]
        stat = float(np.max(np.abs(xh.T @ (yh - xh @ theta_next)), initial=0.0))
        holdout_trace.append(stat)
        if stat > rho / params.c_prime:
            stop_round = t
            stop_reason = "holdout_rejection"
            break
        theta_prev = theta_next

    return RecoveryReport(
        estimate=SparseVector.from_dense(theta_prev, budget=params.k),
        iterations=big_t if stop_round is None else stop_round,
        diagnostics={
            "rounds": big_t,
            "stop_round": stop_round,
            "stop_reason": stop_reason,
            "holdout_stats": holdout_trace,
            "truncated_rows": dropped,
        },
    )
