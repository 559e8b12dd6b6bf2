"""Adversarial constructions behind the quadratic sample-complexity barrier.

A masking vector is a sparse v whose sup norm is large while ``X^T X v`` has
unit sup norm; feeding ``xi = X v`` as noise perturbs the signal by v yet is
invisible in correlation space.  Pairing a base signal with its v-shifted
sibling yields two instances with byte-identical observations, which no
estimator can tell apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import RecoveryInstance, check, check_support, save_instance, save_matrix_addressed
from .linops import restricted_gram

__all__ = [
    "ConstructionFailure",
    "IndistinguishablePair",
    "build_indistinguishable_pair",
    "build_masking_vector",
    "build_metric_impossibility_pair",
    "save_pair",
]

PAIR_RTOL = 1e-9
# Off-support rows of the masking LP may exceed 1 by this much before a cut is added.
CUT_TOL = 1e-10


class ConstructionFailure(RuntimeError):
    pass


@dataclass
class IndistinguishablePair:
    """Two instances sharing X and y; member 2 is noiseless."""

    theta1: np.ndarray
    theta2: np.ndarray
    xi1: np.ndarray
    shared_y: np.ndarray
    budget: int  # the sparsity budget of both members, written by save_pair


def build_masking_vector(x: np.ndarray, s: np.ndarray, normalize: bool = True) -> np.ndarray:
    """The length-d v supported on S maximizing ||v||_inf per unit of ||X^T X v||_inf.

    With M the restricted Gram, the sign pattern u of the max-l1 row of
    M^{-1} attains ``max_{u in {-1,+1}^S} ||M^{-1} u||_inf`` exactly, so
    ``v_S = M^{-1} u`` is the exact maximizer when only the on-support image
    ``(X^T X v)_S`` is bounded.  Ties between rows go to the smaller index.

    If ``normalize`` is false, that sign-pattern vector is returned as is.
    Otherwise the off-support image ``X_j^T X_S v_S`` is bounded too: v is
    the exact solution of the linear program behind the full ratio (see
    ``_ratio_maximizer``), rescaled so ||X^T X v||_inf = 1.

    S goes through ``core.check_support``: its indices increase strictly,
    and the row tie-break and the LP's visiting order follow them.
    """
    d = x.shape[1]
    s = check_support(s, "support", d)
    m = restricted_gram(x, s)
    try:
        m_inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise ConstructionFailure(f"restricted Gram on |S|={len(s)} is singular") from exc
    if not np.all(np.isfinite(m_inv)):
        raise ConstructionFailure("restricted Gram inverse is not finite")

    row_l1 = np.abs(m_inv).sum(axis=1)
    v = np.zeros(d)
    if not normalize:
        pick = int(np.argmax(row_l1))  # first max: lexicographic tie-break
        u = np.sign(m_inv[pick])
        u[u == 0.0] = 1.0
        v[s] = m_inv @ u
        return v
    v[s] = _ratio_maximizer(x.T @ x[:, s], s, row_l1)
    scale = float(np.max(np.abs(x.T @ (x @ v))))
    if scale == 0.0:
        raise ConstructionFailure("cannot normalize: X^T X v vanished")
    return v / scale


def _ratio_maximizer(image: np.ndarray, s: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """w maximizing ||w||_inf / ||image @ w||_inf, with image = X^T X_S (d x |S|).

    The maximum is ``max_i max {w_i : |image_j w| <= 1 for every row j}``, one
    linear program per coordinate.  Each is solved by cutting planes: start
    from the |S| on-support rows (the rows of M), then add the most violated
    rows until none exceeds 1 + CUT_TOL.  Every LP over a subset of the rows
    bounds coordinate i's full value from above, so pruning on it is exact:
    over the on-support rows alone the bound is the l1 norm of row i of
    M^{-1} (``bounds``), coordinates are visited in decreasing bound, and a
    coordinate is dropped once any relaxation cannot beat the best ratio
    found.  Cuts are shared across coordinates.
    """
    from scipy.optimize import linprog  # 0.2 s import; keep it off `import linfrec`

    size = len(s)
    active = np.zeros(image.shape[0], dtype=bool)
    active[s] = True
    best_w, best = None, 0.0
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] <= best:
            break
        c = np.zeros(size)
        c[i] = -1.0
        while True:
            rows = image[active]
            res = linprog(
                c,
                A_ub=np.vstack([rows, -rows]),
                b_ub=np.ones(2 * len(rows)),
                bounds=(None, None),
                method="highs",
            )
            if res.status != 0:
                raise ConstructionFailure(f"masking LP failed: {res.message}")
            if -res.fun <= best:
                break  # a relaxation's value bounds coordinate i's from above
            w = res.x
            img = np.abs(image @ w)
            excess = np.where(active, 0.0, img)
            cut = np.flatnonzero(excess > 1.0 + CUT_TOL)
            if len(cut):
                active[cut[np.argsort(-excess[cut], kind="stable")[:size]]] = True
                continue
            ratio = float(np.max(np.abs(w)) / np.max(img))
            if ratio > best:
                best_w, best = w, ratio
            break
    return best_w


def _check_shared(y1: np.ndarray, y2: np.ndarray) -> None:
    tol = PAIR_RTOL * (1.0 + float(np.max(np.abs(y1), initial=0.0)))
    if not float(np.max(np.abs(y1 - y2), initial=0.0)) <= tol:  # NaN fails too
        raise ConstructionFailure("pair members do not share an observation vector")


def build_indistinguishable_pair(
    x: np.ndarray,
    s: np.ndarray,
    t: np.ndarray,
    base_magnitude: float,
) -> IndistinguishablePair:
    """Two instances with identical (X, y): a base signal on T versus the same
    signal shifted by the masking vector on S, the shift absorbed into noise.

    ``s`` and ``t`` must be disjoint and equally sized (each half the sparsity
    budget of the instances being emulated); ``t`` is checked as ``s`` is, so
    the budget counts distinct columns.  A non-finite ``base_magnitude`` is a
    ValueError naming it.
    """
    base_magnitude = check(base_magnitude, "base_magnitude", "a finite number")
    d = x.shape[1]
    s = check_support(s, "support", d)
    t = check_support(t, "base support", d)
    if len(np.intersect1d(s, t)):
        raise ValueError("masking and base supports must be disjoint")
    if len(s) != len(t):
        raise ValueError(f"|S| = {len(s)} and |T| = {len(t)} must be equal (both k/2)")

    v = build_masking_vector(x, s, normalize=True)

    theta1 = np.zeros(d)
    theta1[t] = base_magnitude
    theta2 = theta1 + v
    xi1 = x @ v

    y1 = x @ theta1 + xi1
    y2 = x @ theta2
    _check_shared(y1, y2)
    return IndistinguishablePair(theta1=theta1, theta2=theta2, xi1=xi1, shared_y=y1, budget=len(s) + len(t))


def build_metric_impossibility_pair(x: np.ndarray, i: int) -> IndistinguishablePair:
    """The one-column pair: (0, X e_i) versus (e_i, 0), sharing y = column i.

    Demonstrates that noise-side error metrics (||xi||_inf, scaled ||xi||_2,
    restricted least-squares residuals) cannot be achieved under adaptive
    noise: both members force sup-norm estimation error 1/2 on some member
    while every such metric stays near zero.
    """
    d = x.shape[1]
    if check(i, "i", "a nonnegative integer") >= d:
        raise ValueError(f"column index {i} out of range for d={d}")
    theta2 = np.zeros(d)
    theta2[i] = 1.0
    xi1 = x[:, i].copy()
    y = x[:, i].copy()
    _check_shared(y, x @ theta2)
    return IndistinguishablePair(theta1=np.zeros(d), theta2=theta2, xi1=xi1, shared_y=y, budget=1)


def save_pair(
    pair: IndistinguishablePair,
    x: np.ndarray,
    out_dir: str | Path,
    stem: str = "pair",
) -> tuple[Path, Path, Path]:
    """Write the two instances as JSON sharing one content-addressed matrix file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    matrix_path = save_matrix_addressed(x, out_dir)

    inst1 = RecoveryInstance(x=x, y=pair.shared_y, truth=pair.theta1, noise=pair.xi1, budget=pair.budget)
    inst2 = RecoveryInstance(x=x, y=pair.shared_y, truth=pair.theta2, noise=np.zeros(x.shape[0]), budget=pair.budget)
    p1 = out_dir / f"{stem}-member1.json"
    p2 = out_dir / f"{stem}-member2.json"
    save_instance(inst1, p1, matrix_path)
    save_instance(inst2, p2, matrix_path)
    return p1, p2, matrix_path
