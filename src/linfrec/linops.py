"""Deterministic linear-algebra primitives shared by every estimator.

Hard thresholding, the max-row-l1 operator norm, restricted Gram blocks, and
the one restricted least-squares solver: matrix-free conjugate gradients,
which never forms the restricted Gram or its inverse.  An index set S (a
support) is a 1-D array of strictly increasing column indices, checked by
``core.check_support``.
"""

from __future__ import annotations

import numpy as np

from .core import SCALARS, check_support, check_vector

__all__ = [
    "SolverFailure",
    "hard_threshold_values",
    "inf_op_norm",
    "restricted_gram",
    "restricted_ols",
]

DEFAULT_TOL = 1e-9


class SolverFailure(RuntimeError):
    """Iterative solve did not reach tolerance; carries the achieved residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (achieved residual {residual:.3e})")
        self.residual = residual


def hard_threshold_values(v: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude coordinates (ties to the smaller index)."""
    v = check_vector(v, "v", np.size(v))
    d = len(v)
    if not (SCALARS["a nonnegative integer"](k) and k <= d):
        raise ValueError(f"need 0 <= k <= d, got k={k!r}, d={d}")
    if k == 0:
        return np.zeros(d)
    if k >= d:
        return v.copy()
    # a stable sort of -|v|: descending magnitude, ties to the smaller index
    keep = np.argsort(-np.abs(v), kind="stable")[:k]
    out = np.zeros(d)
    out[keep] = v[keep]
    return out


def inf_op_norm(m: np.ndarray) -> float:
    """max-row-l1 norm (the infinity-to-infinity operator norm)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m).sum(axis=1)))


def restricted_gram(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """[X^T X]_{S x S} as an |S| x |S| array, S a nonempty support (see ``core.check_support``)."""
    s = check_support(s, "support", x.shape[1])
    if len(s) == 0:
        raise ValueError("index set must be nonempty")
    cols = x[:, s]  # a fresh copy, so cols.T @ cols is numpy's exactly symmetric product
    return cols.T @ cols


def _cg_solve(cols: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Conjugate gradients on A w = b with A = cols^T cols, never forming A.

    In exact arithmetic CG ends within rank(A) <= min(rows, |S|) steps, and
    from w = 0 it stays in range(A), so a consistent singular system gets its
    min-norm solution; twice that many steps leave room for rounding.  A small
    recursive residual is confirmed on the true one, restarting from it if they
    disagree.  Breakdown (p^T A p <= 0 or not finite) means b leaves range(A).
    """
    target = DEFAULT_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    w = np.zeros(len(b))
    r = p = b
    rr = float(r @ r)
    for _ in range(2 * min(cols.shape)):
        if float(np.max(np.abs(r), initial=0.0)) <= target:
            r = p = b - cols.T @ (cols @ w)
            if float(np.max(np.abs(r), initial=0.0)) <= target:
                return w
            rr = float(r @ r)
        ap = cols.T @ (cols @ p)
        pap = float(p @ ap)
        if not (np.isfinite(pap) and pap > 0.0):
            break
        alpha = rr / pap
        w += alpha * p
        r = r - alpha * ap
        rr, rr_prev = float(r @ r), rr
        p = r + (rr / rr_prev) * p
    resid = float(np.max(np.abs(b - cols.T @ (cols @ w)), initial=0.0))
    if resid <= target:
        return w
    raise SolverFailure("restricted least-squares did not converge", resid)


def restricted_ols(x: np.ndarray, s: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve [X^T X]_{S x S} w = X_{S:}^T rhs by matrix-free conjugate gradients.

    ``rhs`` lives in observation space (length n).  The returned w satisfies
    ``||A w - b||_inf <= DEFAULT_TOL * (1 + ||b||_inf)`` on the true residual,
    or SolverFailure is raised with the achieved residual.  A singular but
    consistent system (such as |S| > n) yields its min-norm solution.  S is
    a nonempty support (see ``core.check_support``).
    """
    s = check_support(s, "support", x.shape[1])
    if len(s) == 0:
        raise ValueError("index set must be nonempty")
    rhs = check_vector(rhs, "rhs", x.shape[0])
    cols = x[:, s]
    return _cg_solve(cols, cols.T @ rhs)
