"""Deterministic linear-algebra primitives shared by every estimator.

Hard thresholding, the max-row-l1 operator norm, restricted Gram blocks, and a
first-order restricted least-squares solver.  The solver never forms an
explicit inverse; a dense solve is exposed separately for small systems and as
the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import SparseVector

__all__ = [
    "IndexSet",
    "SolverFailure",
    "apply_restricted_inverse",
    "dense_restricted_solve",
    "hard_threshold",
    "hard_threshold_values",
    "inf_op_norm",
    "restricted_gram",
    "restricted_ols",
]

DEFAULT_TOL = 1e-9
MAX_ITER_CAP = 100_000
# Fixed GD step 1/(1 + RIP_EPSILON) for restricted Grams within RIP_EPSILON of I.
RIP_EPSILON = 0.5


@dataclass(frozen=True)
class IndexSet:
    """Sorted, duplicate-free column indices."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("indices must be 1-D")
        if len(idx) > 1 and np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        if len(idx) and idx[0] < 0:
            raise ValueError("indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_iterable(cls, it: Iterable[int]) -> "IndexSet":
        return cls(np.unique(np.fromiter((int(i) for i in it), dtype=np.int64)))

    def complement(self, d: int) -> "IndexSet":
        mask = np.ones(d, dtype=bool)
        mask[self.indices] = False
        return IndexSet(np.flatnonzero(mask).astype(np.int64))

    def union(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(np.union1d(self.indices, other.indices))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


class SolverFailure(RuntimeError):
    """Iterative solve did not reach tolerance; carries the achieved residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (achieved residual {residual:.3e})")
        self.residual = residual


def hard_threshold_values(v: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude coordinates (ties to the smaller index)."""
    v = np.asarray(v, dtype=np.float64)
    d = len(v)
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    if k == 0:
        return np.zeros(d)
    if k >= d:
        return v.copy()
    # lexsort: primary key -|v| (descending magnitude), secondary key index.
    order = np.lexsort((np.arange(d), -np.abs(v)))
    out = np.zeros(d)
    keep = order[:k]
    out[keep] = v[keep]
    return out


def hard_threshold(v: np.ndarray, k: int) -> SparseVector:
    return SparseVector.from_dense(hard_threshold_values(v, k), budget=k)


def inf_op_norm(m: np.ndarray) -> float:
    """max-row-l1 norm (the infinity-to-infinity operator norm)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m).sum(axis=1)))


def restricted_gram(x: np.ndarray, s: IndexSet) -> np.ndarray:
    """[X^T X]_{S x S} as an |S| x |S| array."""
    if len(s) == 0:
        raise ValueError("index set must be nonempty")
    cols = x[:, s.indices]
    g = cols.T @ cols
    return 0.5 * (g + g.T)  # symmetrize roundoff


def dense_restricted_solve(x: np.ndarray, s: IndexSet, b: np.ndarray) -> np.ndarray:
    """Solve [X^T X]_{S x S} w = b by a dense factorization (oracle path)."""
    return np.linalg.solve(restricted_gram(x, s), np.asarray(b, dtype=np.float64))


def _gd_solve(cols: np.ndarray, b: np.ndarray, tol: float, max_iter: int | None) -> np.ndarray:
    """Fixed-step gradient descent on 0.5 w^T A w - b^T w with A = cols^T cols.

    Matrix-free: each step costs two products through ``cols``.  Converges
    whenever eig(A) lies in (0, 2/step); with A near the identity (the
    RIP-scale regime) the step 1/(1+eps) contracts geometrically.
    """
    step = 1.0 / (1.0 + RIP_EPSILON)
    bnorm = float(np.max(np.abs(b), initial=0.0))
    target = tol * (1.0 + bnorm)
    if max_iter is None:
        kappa = (1.0 + RIP_EPSILON) / max(1.0 - RIP_EPSILON, 1e-3)
        max_iter = min(MAX_ITER_CAP, 10 * max(1, math.ceil(math.log2(kappa * max(bnorm, 1.0) / tol))))
    w = np.zeros(len(b))
    resid = bnorm
    for _ in range(max_iter):
        g = cols.T @ (cols @ w) - b
        resid = float(np.max(np.abs(g), initial=0.0))
        if resid <= target:
            return w
        if not np.isfinite(resid) or resid > 1e9 * (1.0 + bnorm):
            break  # diverging: step too large for this spectrum
        w -= step * g
    raise SolverFailure("restricted least-squares did not converge", resid)


def restricted_ols(
    x: np.ndarray,
    s: IndexSet,
    rhs: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> np.ndarray:
    """Solve [X^T X]_{S x S} w = X_{S:}^T rhs iteratively.

    ``rhs`` lives in observation space (length n).  The returned w satisfies
    ``||A w - b||_inf <= tol * (1 + ||b||_inf)`` or SolverFailure is raised
    with the achieved residual.
    """
    if len(s) == 0:
        raise ValueError("index set must be nonempty")
    cols = x[:, s.indices]
    b = cols.T @ np.asarray(rhs, dtype=np.float64)
    return _gd_solve(cols, b, tol, max_iter)


def apply_restricted_inverse(
    x: np.ndarray,
    s: IndexSet,
    v: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> np.ndarray:
    """Solve [X^T X]_{S x S} w = v for v already in coefficient space."""
    if len(s) == 0:
        raise ValueError("index set must be nonempty")
    cols = x[:, s.indices]
    b = np.asarray(v, dtype=np.float64)
    if len(b) != len(s):
        raise ValueError(f"right-hand side length {len(b)} != |S| = {len(s)}")
    return _gd_solve(cols, b, tol, max_iter)
