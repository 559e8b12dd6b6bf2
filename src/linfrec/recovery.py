"""The estimators: IHT (for both noise regimes), three-phase oblivious
recovery, and the geometric holdout reduction.  Each sees only the design,
the observation and its parameters; scoring against the truth is the caller's.

IHT reads the design once for X^T y and once per column that enters its
support, whose Gram rows X_S^T X (at most k x d floats) it holds; each of its
iterations is then an O(dk) product, not two passes over the design.

The oblivious pipeline splits rows three ways and treats each split as if
rescaled by sqrt(3), so it keeps unit column variance; the reduction splits
2T ways for the same reason.  No rescaled copy is formed: an estimator takes
the rows as they are and multiplies its length-d correlations by the split
count (its ``gain``), which is what the rescaled rows would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SCALARS, check, check_vector
from .linops import SolverFailure, hard_threshold_values, restricted_ols

__all__ = [
    "RecoveryReport",
    "iht",
    "oblivious_recover",
    "osr_reduction",
]

# Universal constants with no closed form; fixed once and read directly by
# the estimators, never set per call.
DEFAULT_THRESHOLD_C = 1.0 / 80.0  # support-identification threshold is r / c
DEFAULT_HOLDOUT_C = 1.0 / 20.0    # holdout test fires above rho / c'


@dataclass
class RecoveryReport:
    estimate: np.ndarray  # length d, float64
    iterations: int
    diagnostics: dict = field(default_factory=dict)


def _halvings(R: float, r: float) -> int:
    """ceil(log2(R/r)): the halvings that take resolution R down to r (0 if r >= R).

    Where R/r overflows, the difference of the logarithms stands in for it.
    It is not used throughout, because it can round an exact power of two
    up by an ulp and so add a halving.
    """
    if not (SCALARS["a finite number"](R) and SCALARS["a finite number"](r) and R > 0 and r > 0):
        raise ValueError(f"R and r must be positive and finite, got R={R!r}, r={r!r}")
    if r >= R:
        return 0
    ratio = R / r
    return math.ceil(math.log2(ratio) if ratio < math.inf else math.log2(R) - math.log2(r))


def _sparsity(k, d: int) -> int:
    """``k`` checked to be an integer (never a bool) in [0, d]."""
    if not (SCALARS["a nonnegative integer"](k) and k <= d):
        raise ValueError(f"k must be an integer in [0, {d}], got k={k!r}")
    return int(k)


def iht(
    x: np.ndarray, y: np.ndarray, k: int, R: float, r: float, *, gain: float = 1.0
) -> RecoveryReport:
    """Gradient step then keep-top-k, for ceil(log2(R/r)) iterations from zero.

    R bounds ||theta*||_2 in the oblivious regime and ||theta*||_inf in the
    adaptive regime; the iteration itself is identical.  Under adaptive noise
    with a sup-norm RIP certificate at (eps <= 1/4, 2k) the sup-norm error is
    at most r + 2 ||X^T xi||_inf.  ``gain`` runs the iteration on
    ``sqrt(gain) * (x, y)`` without forming that copy.

    The step X^T (y - X theta) is formed as c - theta_S G_S, from c = X^T y
    (one pass over ``x``) and the Gram rows G_S = X_S^T X of the support S of
    theta.  Columns that enter S get their rows from one ``x[:, new].T @ x``
    product per iteration; rows of columns that leave are dropped.  Each
    iteration is then O(dk) beside the threshold.  The first iteration equals
    the residual form bit for bit; later ones may differ in the last bits.
    """
    y = check_vector(y, "y", x.shape[0])
    d = x.shape[1]
    k = _sparsity(k, d)
    n_iters = _halvings(R, r)
    gain = check(gain, "gain", "a finite number")
    theta = np.zeros(d)
    if n_iters == 0:
        return RecoveryReport(estimate=theta, iterations=0)
    c = x.T @ y
    held = np.empty(0, dtype=np.int64)  # gram[i] is column held[i]'s Gram row
    gram = np.empty((0, d))
    for _ in range(n_iters):
        kept = theta[held] != 0
        fresh = theta.copy()
        fresh[held] = 0.0
        new = np.flatnonzero(fresh)  # the support of theta outside held
        held = np.concatenate([held[kept], new])
        gram = np.concatenate([gram[kept], x[:, new].T @ x]) if len(new) else gram[kept]
        theta = hard_threshold_values(theta + gain * (c - theta[held] @ gram), k)
    return RecoveryReport(estimate=theta, iterations=n_iters)


def _split_rows(data: np.ndarray, y: np.ndarray, parts: int, least: int) -> tuple[list, list, int]:
    """``parts`` equal consecutive row blocks (views), and the rows left over.

    Blocks of fewer than ``least`` rows are a ValueError naming n and the rows needed.
    """
    n = data.shape[0]
    if n < parts * least:
        raise ValueError(f"n={n} is too few rows for {parts} blocks of at least {least}; need n >= {parts * least}")
    size = n // parts
    blocks = [slice(i * size, (i + 1) * size) for i in range(parts)]
    return [data[b] for b in blocks], [y[b] for b in blocks], n - parts * size


def oblivious_recover(
    x: np.ndarray, y: np.ndarray, k: int, R: float, r: float, *, gain: float = 1.0
) -> RecoveryReport:
    """Three-phase recovery: IHT warm start, support thresholding, restricted OLS.

    Phase 1 runs IHT at resolution sqrt(k)*r on the first third of rows.
    Phase 2 thresholds |X^T residual| at r/c on the second third to pick the
    correction support L.  Phase 3 solves restricted least squares on L over
    the last third and adds the correction.  Output support is contained in
    supp(warm start) union L.  Each third counts as rescaled by sqrt(3); with
    ``gain`` the input counts as ``sqrt(gain) * (x, y)`` as well.  Fewer than
    3 rows, which leave a third empty, raise a ValueError.
    """
    y = check_vector(y, "y", x.shape[0])
    k = _sparsity(k, x.shape[1])
    _halvings(R, r)  # checks the caller's R and r, not the warm start's sqrt(k) * r
    xs, ys, dropped = _split_rows(x, y, 3, 1)
    x1, x2, x3 = xs
    y1, y2, y3 = ys
    gain = 3.0 * check(gain, "gain", "a finite number")

    # at k = 0 every iterate is zero; sqrt(1) * r keeps the resolution positive
    warm = iht(x1, y1, k, R, math.sqrt(max(k, 1)) * r, gain=gain)
    theta_hat = warm.estimate

    r2 = y2 - x2 @ theta_hat
    corr = gain * (x2.T @ r2)
    l_idx = np.flatnonzero(np.abs(corr) >= r / DEFAULT_THRESHOLD_C).astype(np.int64)

    theta = theta_hat.copy()
    if len(l_idx):
        r3 = y3 - x3 @ theta_hat
        theta[l_idx] += restricted_ols(x3, l_idx, r3)

    return RecoveryReport(
        estimate=theta,
        iterations=warm.iterations,
        diagnostics={
            "correction_support": len(l_idx),
            "truncated_rows": dropped,
        },
    )


def osr_reduction(x: np.ndarray, y: np.ndarray, k: int, R: float, r: float) -> RecoveryReport:
    """Geometric-threshold reduction with holdout validation.

    Runs the oblivious pipeline at resolutions R/2, R/4, ... on odd blocks,
    hard-thresholds each output to k, and checks the correlation of the
    residual on the matching even holdout block.  Returns the iterate from
    the round before the first failed check (the zero vector if the first
    check fails), else the final iterate.  A round whose inner least-squares
    step cannot be solved counts as a failed check: the estimate never
    existed, so the last validated iterate is returned.  Each of the
    2T blocks, T = ceil(log2(R/r)), needs 3 rows for the oblivious thirds,
    so n < 6T raises a ValueError before any round.
    """
    y = check_vector(y, "y", x.shape[0])
    d = x.shape[1]
    k = _sparsity(k, d)
    big_t = _halvings(R, r)
    if big_t == 0:
        return RecoveryReport(estimate=np.zeros(d), iterations=0)

    parts = 2 * big_t
    xs, ys, dropped = _split_rows(x, y, parts, 3)  # each odd block feeds oblivious_recover's thirds

    theta_prev = np.zeros(d)
    rho = R
    stop_round = None
    stop_reason = None
    holdout_trace = []
    for t in range(big_t):
        rho /= 2.0
        try:
            inner = oblivious_recover(xs[2 * t], ys[2 * t], k, R, rho, gain=parts)
        except SolverFailure:
            # an uncomputable estimate cannot pass validation; keep the last
            # holdout-validated iterate (rounds this deep are junk anyway)
            stop_round = t
            stop_reason = "inner_solver_failure"
            break
        theta_next = hard_threshold_values(inner.estimate, k)
        xh, yh = xs[2 * t + 1], ys[2 * t + 1]
        stat = parts * float(np.max(np.abs(xh.T @ (yh - xh @ theta_next)), initial=0.0))
        holdout_trace.append(stat)
        if stat > rho / DEFAULT_HOLDOUT_C:
            stop_round = t
            stop_reason = "holdout_rejection"
            break
        theta_prev = theta_next

    return RecoveryReport(
        estimate=theta_prev,
        iterations=big_t if stop_round is None else stop_round,
        diagnostics={
            "rounds": big_t,
            "stop_round": stop_round,
            "stop_reason": stop_reason,
            "holdout_stats": holdout_trace,
            "truncated_rows": dropped,
        },
    )
