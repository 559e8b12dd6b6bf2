"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: brute-force subset
enumeration, dense factorizations, power iteration, exhaustive sign search.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import strategies as st


def power_iteration_norm(m: np.ndarray, iters: int = 400, seed: int = 0) -> float:
    """Spectral norm by power iteration on m^T m."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    a = m.T @ m
    for _ in range(iters):
        v = a @ v
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        v /= nv
    return float(np.sqrt(v @ (a @ v)))


def brute_force_linf_cert(g: np.ndarray, s: int) -> float:
    """Max over all subsets |S| <= s of the max-row-l1 norm of [g - I]_{SxS}."""
    d = g.shape[0]
    dev = g - np.eye(d)
    best = 0.0
    for size in range(1, min(s, d) + 1):
        for sub in itertools.combinations(range(d), size):
            idx = np.asarray(sub)
            block = dev[np.ix_(idx, idx)]
            best = max(best, float(np.max(np.abs(block).sum(axis=1))))
    return best


def dense_linf_scan(g: np.ndarray, s: int) -> tuple[float, np.ndarray]:
    """Greedy sup-norm RIP value and witness from a whole Gram matrix, row by row.

    Both entries of a pair are read from the upper triangle.  For anchor row i:
    |G_ii - 1| plus the s-1 largest off-diagonal magnitudes, summed in
    ascending order; ties at the cut go to the smaller column index, and the
    first strict maximum wins.
    """
    d = g.shape[0]
    absdev = np.abs(np.triu(g) + np.triu(g, 1).T - np.eye(d))
    best = -np.inf
    best_subset = None
    take = min(s - 1, d - 1)
    for i in range(d):
        row = absdev[i].copy()
        diag = row[i]
        row[i] = -np.inf
        top = np.lexsort((np.arange(d), -row))[:take]
        val = diag + float(np.sort(row[top]).sum())
        if val > best:
            best = float(val)
            best_subset = np.sort(np.concatenate(([i], top))).astype(np.int64)
    return best, best_subset


def dense_l2_scan(x: np.ndarray, s: int) -> tuple[float, np.ndarray]:
    """Exact l2-RIP value and witness from the whole Gram, over every size-s subset.

    Each s x s block is indexed out of X^T X; the value is the larger of
    |lambda_min - 1| and |lambda_max - 1|, and the first strict maximum in
    lexicographic subset order wins.
    """
    g = x.T @ x
    best = -np.inf
    best_subset = None
    for sub in itertools.combinations(range(g.shape[0]), s):
        idx = np.asarray(sub, dtype=np.int64)
        evals = np.linalg.eigvalsh(g[np.ix_(idx, idx)])
        val = float(max(abs(evals[0] - 1.0), abs(evals[-1] - 1.0)))
        if val > best:
            best, best_subset = val, idx
    return best, best_subset


def brute_force_sign_max(m_inv: np.ndarray) -> float:
    """max over u in {-1,+1}^s of ||m_inv u||_inf by exhaustive search."""
    s = m_inv.shape[0]
    best = 0.0
    for bits in itertools.product((-1.0, 1.0), repeat=s):
        u = np.asarray(bits)
        best = max(best, float(np.max(np.abs(m_inv @ u))))
    return best


def dense_restricted_solve(x: np.ndarray, s, b: np.ndarray) -> np.ndarray:
    """Solve [X^T X]_{S x S} w = b by a dense factorization; ``s`` is an index array."""
    cols = x[:, s]
    return np.linalg.solve(cols.T @ cols, np.asarray(b, dtype=np.float64))


def residual_iht(x: np.ndarray, y: np.ndarray, k: int, iterations: int, gain: float = 1.0) -> np.ndarray:
    """IHT in its residual form: theta <- H_k(theta + gain X^T (y - X theta)), from zero.

    Two passes over x per iteration.  H_k keeps the k largest magnitudes,
    ties to the smaller index.
    """
    d = x.shape[1]
    theta = np.zeros(d)
    for _ in range(iterations):
        step = theta + gain * (x.T @ (y - x @ theta))
        keep = np.lexsort((np.arange(d), -np.abs(step)))[:k]
        theta = np.zeros(d)
        theta[keep] = step[keep]
    return theta


def dense_lp_ratio(x: np.ndarray, s: np.ndarray) -> float:
    """max over v supported on s of ||v||_inf / ||X^T X v||_inf.

    One dense LP per coordinate i: maximize v_i subject to all 2d constraints
    |X_j^T X_S v_S| <= 1; each optimum is rescaled by its own full image.
    """
    from scipy.optimize import linprog

    image = x.T @ x[:, s]
    a_ub = np.vstack([image, -image])
    best = 0.0
    for i in range(len(s)):
        c = np.zeros(len(s))
        c[i] = -1.0
        res = linprog(c, A_ub=a_ub, b_ub=np.ones(len(a_ub)), bounds=(None, None), method="highs")
        assert res.status == 0, res.message
        v = np.zeros(x.shape[1])
        v[s] = res.x
        best = max(best, float(np.max(np.abs(v)) / np.max(np.abs(x.T @ (x @ v)))))
    return best


def is_design(x, shape: tuple[int, int]) -> bool:
    """True for the design contract: a writable, C-ordered, 2-D float64 ndarray."""
    return (
        type(x) is np.ndarray
        and x.dtype == np.float64
        and x.shape == shape
        and x.flags.c_contiguous
        and x.flags.writeable
    )


def orthonormal_columns(n: int, d: int, seed: int) -> np.ndarray:
    """n x d matrix with exactly orthonormal columns (n >= d)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    return q[:, :d]


# one value of each JSON type, for swapping a field's value for another type
JSON_SWAPS = [None, True, 7, 0.5, "x", [], {}]


def _json_paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def mutated_json(data, doc):
    """A copy of ``doc`` with one field dropped, cut short, or swapped for another JSON type.

    ``data`` is a Hypothesis ``st.data()`` draw; the field is any key or list
    index at any depth.
    """
    doc = json.loads(json.dumps(doc))
    *head, last = data.draw(st.sampled_from(list(_json_paths(doc))))
    parent = doc
    for key in head:
        parent = parent[key]
    value = parent[last]
    ops = ["drop", "swap"] + (["cut"] if isinstance(value, list) and value else [])
    op = data.draw(st.sampled_from(ops))
    if op == "drop":
        del parent[last]
    elif op == "cut":
        parent[last] = value[: data.draw(st.integers(0, len(value) - 1))]
    else:
        parent[last] = data.draw(st.sampled_from([v for v in JSON_SWAPS if type(v) is not type(value)]))
    return doc


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
