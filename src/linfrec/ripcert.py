"""Certifiers for restricted-isometry-type matrix properties.

Three properties of the Gram deviation G = X^T X - I are certified:

* l2-RIP: extreme eigenvalues of every restricted Gram block lie in
  [1 - eps, 1 + eps].
* sup-norm RIP: the max-row-l1 norm of every restricted deviation block is at
  most eps.  Exact certification is done greedily per anchor row: the worst
  subset containing row i is the diagonal term plus the s-1 largest
  off-diagonal magnitudes, so no subset enumeration is needed.
* pairwise incoherence: an entrywise bound on |G_ij|.

No certifier holds G whole: l2 certification and the sampled sup-norm mode
form only s x s blocks, each from its columns.  The exact sup-norm and
incoherence certifiers scan its upper triangle in row panels
X[:, lo:hi]^T X[:, c0:], c0 = lo rounded down to a multiple of 64, of at
most PANEL_BYTES each, which is half the multiply-adds of whole panels.
Both entries of a pair are read from the upper triangle.  The sup-norm scan
keeps every row's s-1 largest magnitudes, with their columns, in one d x (s-1)
keeper: a later row's part left of the panel is carried forward through its
column, and its own panel completes it.  So their memory is
O(n d + PANEL_BYTES + d s).

Also provides the averaged-coherence floor (which is at least 1/n for any
matrix) and the minimum sample count compatible with sup-norm RIP at (eps, s).
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import SCALARS, check, check_design, rng_from
from .linops import inf_op_norm, restricted_gram

__all__ = [
    "BudgetExceeded",
    "CertKind",
    "EXACT_SUBSET_BUDGET",
    "RipCertificate",
    "Verdict",
    "certificate_to_json",
    "certify_l2_rip",
    "certify_linf_rip",
    "certify_pi",
    "linf_rip_sample_floor",
    "welch_floor",
]

EXACT_SUBSET_BUDGET = 10**6

# Bytes of one panel of Gram rows (524 rows at d = 4000).  Every panel is
# written into one buffer of this size; the sup-norm scan adds a bool mask an
# eighth of it, its candidates, and 16 bytes per kept (value, index) pair.
PANEL_BYTES = 16 * 2**20


class CertKind(str, enum.Enum):
    L2_RIP = "l2_rip"
    LINF_RIP = "linf_rip"
    PAIRWISE_INCOHERENCE = "pairwise_incoherence"


class Verdict(str, enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    LOWER_BOUND_ONLY = "lower_bound_only"


class BudgetExceeded(ValueError):
    pass


@dataclass
class RipCertificate:
    kind: CertKind
    threshold: float  # eps for RIP kinds, alpha for incoherence
    s: int
    verdict: Verdict
    achieved: float
    witness: np.ndarray | None  # sorted int64 indices
    exact: bool

    def __post_init__(self):
        if self.verdict is Verdict.FAILS and self.witness is None:
            raise ValueError("a failing certificate must carry a witness subset")
        if self.exact and self.verdict is Verdict.LOWER_BOUND_ONLY:
            raise ValueError("exact certification must reach a definite verdict")

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS


def certificate_to_json(cert: RipCertificate) -> str:
    """The certificate's fields in declaration order; the enums write their values."""
    doc = asdict(cert)
    if cert.witness is not None:
        doc["witness"] = cert.witness.tolist()
    return json.dumps(doc)


def _exact_mode(mode: str) -> bool:
    """Whether ``mode`` is "exact"; anything but it or "sampled" is a ValueError."""
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'sampled'")
    return mode == "exact"


def _sampled_subsets(d: int, s: int, seed: int, trials: int):
    """``trials`` sorted random size-s subsets.

    Subset t is drawn from ``rng_from(seed, t)``, so results do not depend on
    evaluation order.
    """
    seed, trials = check(seed, "seed", "a nonnegative integer"), check(trials, "trials", "a positive integer")
    return (np.sort(rng_from(seed, t).choice(d, size=s, replace=False)) for t in range(trials))


def _certificate(kind: CertKind, threshold: float, s: int, worst: float, witness: np.ndarray, exact: bool) -> RipCertificate:
    """The verdict on ``worst``, the largest value found, with ``witness`` attaining it.

    Above the threshold (or at NaN) the certificate fails, with the witness.
    At or below it an exhaustive search holds; a sampled one is only a lower
    bound and carries no witness.
    """
    if not worst <= threshold:
        verdict = Verdict.FAILS
    elif exact:
        verdict = Verdict.HOLDS
    else:
        verdict, witness = Verdict.LOWER_BOUND_ONLY, None
    return RipCertificate(
        kind=kind, threshold=float(threshold), s=s, verdict=verdict,
        achieved=float(worst), witness=witness, exact=exact,
    )


def _scan_certificate(kind: CertKind, epsilon: float, s: int, subsets, value, exact: bool) -> RipCertificate:
    """Certificate from the first worst ``value(idx)`` over ``subsets``."""
    worst = -np.inf
    witness = None
    for sub in subsets:
        idx = np.asarray(sub, dtype=np.int64)
        val = value(idx)
        if val > worst:
            worst = val
            witness = idx
    return _certificate(kind, epsilon, s, worst, witness, exact)


def certify_l2_rip(
    x: np.ndarray,
    epsilon: float,
    s: int,
    mode: str = "exact",
    trials: int = 500,
    seed: int = 0,
) -> RipCertificate:
    """Check that restricted Gram eigenvalues lie in [1 - eps, 1 + eps].

    Exact mode enumerates all size-s subsets (eigenvalues of principal
    submatrices interlace, so size-s blocks dominate smaller ones) and
    requires at most EXACT_SUBSET_BUDGET subsets.  Sampled mode can only
    certify failure; a clean pass is reported as a lower bound.  Both form
    each s x s block from its columns, so neither holds the whole Gram.
    """
    x = check_design(x, "design")
    d = x.shape[1]
    epsilon, s = check(epsilon, "epsilon", "a finite number"), min(check(s, "s", "a positive integer"), d)
    exact = _exact_mode(mode)

    if exact:
        n_subsets = math.comb(d, s)
        if n_subsets > EXACT_SUBSET_BUDGET:
            raise BudgetExceeded(
                f"C({d},{s}) = {n_subsets} subsets exceeds the exact budget {EXACT_SUBSET_BUDGET}"
            )
        subsets = itertools.combinations(range(d), s)
    else:
        subsets = _sampled_subsets(d, s, seed, trials)

    def deviation(idx: np.ndarray) -> float:
        evals = np.linalg.eigvalsh(restricted_gram(x, idx))
        return float(max(abs(evals[0] - 1.0), abs(evals[-1] - 1.0)))

    return _scan_certificate(CertKind.L2_RIP, epsilon, s, subsets, deviation, exact=exact)


def _upper_panels(x: np.ndarray):
    """Yield ``(lo, u)`` over consecutive row panels of the upper triangle of X^T X - I.

    Panel rows [lo, hi) form only ``X[:, lo:hi]^T X[:, c0:]``, with c0 = lo
    rounded down to a multiple of 64: a product whose columns start on such a
    boundary rounds every entry as the full-width panel product would.  ``u``
    is that product from column lo on, minus the identity, and its leading
    (hi - lo) x (hi - lo) block is made symmetric from its upper triangle, so
    every Gram entry is read from the panel of its smaller index.
    """
    d = x.shape[1]
    rows = min(d, max(1, PANEL_BYTES // (8 * d)))
    lower = np.tri(64, k=-1, dtype=bool)
    buf = np.empty(rows * d)  # every panel is written here: one panel is held at a time
    for lo in range(0, d, rows):
        c0 = lo - lo % 64
        h = min(rows, d - lo)
        u = np.matmul(x[:, lo : lo + h].T, x[:, c0:], out=buf[: h * (d - c0)].reshape(h, d - c0))[:, lo - c0 :]
        r = np.arange(h)
        u[r, r] -= 1.0
        for a in range(0, h, 64):  # in 64-row blocks: no temporary of the whole block
            b = min(a + 64, h)
            u[a:b, :a] = u[:a, a:b].T
            np.copyto(u[a:b, a:b], u[a:b, a:b].T, where=lower[: b - a, : b - a])
        yield lo, u


def _group_floor(a: np.ndarray, take: int, axis: int) -> np.ndarray:
    """A lower bound on the ``take``-th largest entry of each line of ``a`` along ``axis``.

    The line is cut into at least 4 * take groups (one entry each when it is
    shorter than 8 * take); ``take`` of their maxima are distinct entries, so
    the take-th largest maximum is at most the take-th largest entry.
    """
    length = a.shape[axis]
    if length < take:
        return np.full(a.shape[1 - axis], -np.inf)
    size = max(1, length // (4 * take))
    groups = length // size
    if axis == 0:
        maxima = a[: groups * size].reshape(groups, size, -1).max(axis=1)
    else:
        maxima = a[:, : groups * size].reshape(a.shape[0], groups, size).max(axis=2).T
    maxima.partition(groups - take, axis=0)
    return maxima[groups - take]


def _candidates(u: np.ndarray, row_floor: np.ndarray, col_floor: np.ndarray) -> np.ndarray:
    """Flat indices into ``u`` of entries at least their row's floor or, right of
    the leading block, their column's floor; takes |u| in place, 64 rows at a time
    so each block is compared while it is in cache."""
    h, width = u.shape
    mask = np.empty(u.shape, dtype=bool)
    right = np.empty((min(h, 64), width - h), dtype=bool)
    for a in range(0, h, 64):
        b = min(a + 64, h)
        rows = u[a:b]
        np.abs(rows, out=rows)
        np.greater_equal(rows, row_floor[a:b, None], out=mask[a:b])
        np.greater_equal(rows[:, h:], col_floor, out=right[: b - a])
        np.logical_or(mask[a:b, h:], right[: b - a], out=mask[a:b, h:])
    return np.flatnonzero(mask)


def _carry(top: np.ndarray, top_idx: np.ndarray, lines, idx, vals) -> None:
    """Keep in ``top`` each line's ``take`` largest magnitudes over the entries seen so far.

    ``top``/``top_idx`` hold, per line, magnitudes in decreasing order (ties
    in index order, -inf until ``take`` entries are seen) and their indices.
    ``(lines, idx, vals)`` are new candidates grouped by line, each line's in
    index order and after every index it carries.  Each touched line
    stable-sorts its carried magnitudes followed by its new ones and keeps the
    first ``take``, so a tie keeps the smaller index; lines are merged 4096 at
    a time to bound the scratch.
    """
    take, k = top.shape[1], len(lines)
    starts = np.append(np.flatnonzero(np.diff(lines, prepend=-1)), k)
    for b in range(0, len(starts) - 1, 4096):
        first = starts[b : b + 4097]
        touched, counts = lines[first[:-1]], np.diff(first)
        merged = np.full((len(touched), take + int(counts.max())), -np.inf)
        merged[:, :take] = top[touched]
        merged[:, take:][np.arange(counts.max()) < counts[:, None]] = vals[first[0] : first[-1]]
        pos = np.argsort(-merged, axis=1, kind="stable")[:, :take]
        top[touched] = np.take_along_axis(merged, pos, axis=1)
        new_idx = idx[np.clip(first[:-1, None] + pos - take, 0, k - 1)]
        old_idx = np.take_along_axis(top_idx[touched], np.minimum(pos, take - 1), axis=1)
        top_idx[touched] = np.where(pos >= take, new_idx, old_idx)


def _linf_panel_scan(x: np.ndarray, s: int) -> tuple[float, np.ndarray]:
    """Exact max over |S| <= s of the restricted deviation's max-row-l1 norm.

    For anchor row i the maximizing subset is i plus the s-1 largest
    off-diagonal magnitudes in that row; all terms are nonnegative so smaller
    subsets never win.  A row's value is |G_ii - 1| plus those magnitudes summed
    in ascending order, so it depends on their values alone.  The first row
    reaching the maximum is the anchor; among magnitudes tied at the cut its
    witness takes the smaller column indices.

    Only the upper triangle is formed (``_upper_panels``).  Row j's magnitudes
    left of its panel sit in column j of earlier panels.  ``top``/``top_idx``
    keep every row's s-1 largest magnitudes and their indices, all through
    ``_carry``: each panel carries every later column's forward (its rows),
    then completes each of its own rows with that row's entries (its columns),
    after which the row is final and its kept magnitudes are its value's terms
    and the witness.  Only entries at least a floor on the s-1-th largest are
    read out: the kept s-1-th largest, or on the first panel a bound from
    group maxima.  At s = 1 only the diagonal is read.
    """
    d = x.shape[1]
    take = min(s - 1, d - 1)
    top = np.full((d, take), -np.inf)
    top_idx = np.full((d, take), -1, dtype=np.int64)
    best, anchor = -np.inf, -1
    for lo, u in _upper_panels(x):
        h, width = u.shape
        hi = lo + h
        r = np.arange(h)
        vals = np.abs(u[r, r])
        if take:  # at s = 1 a row's value is its diagonal term: no candidate is sought
            u[r, r] = 0.0
            # the carried take-th largest
            row_floor, col_floor = top[lo:hi].min(axis=1), top[hi:].min(axis=1)
            if lo < take:  # fewer than take rows carried: bound the floors from this panel
                np.abs(u, out=u)
                row_floor = np.maximum(row_floor, _group_floor(u, take, 1))
                col_floor = np.maximum(col_floor, _group_floor(u[:, h:], take, 0))
            flat = _candidates(u, row_floor, col_floor)
            fr, fc = np.divmod(flat, width)
            del flat
            fv = u[fr, fc]
            row = (fv >= row_floor[fr]) & (fc != fr)
            _carry(top[lo:hi], top_idx[lo:hi], fr[row], lo + fc[row], fv[row])  # the panel's rows are final
            vals += top[lo:hi, ::-1].sum(axis=1)  # the take largest, in ascending order
            if hi < d:
                col = np.flatnonzero((fc >= h) & (fv >= col_floor[np.maximum(fc - h, 0)]))
                k = max(len(col), 1)
                col = col[np.sort(fc[col] * k + np.arange(len(col))) % k]  # by column, then by row
                _carry(top, top_idx, lo + fc[col], lo + fr[col], fv[col])
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, anchor = float(vals[i]), lo + i
    return best, np.sort(np.concatenate(([anchor], top_idx[anchor])))


def certify_linf_rip(
    x: np.ndarray,
    epsilon: float,
    s: int,
    mode: str = "exact",
    trials: int = 500,
    seed: int = 0,
) -> RipCertificate:
    """Check the sup-norm RIP: row-l1 of every restricted deviation <= eps."""
    x = check_design(x, "design")
    d = x.shape[1]
    epsilon, s = check(epsilon, "epsilon", "a finite number"), min(check(s, "s", "a positive integer"), d)

    if _exact_mode(mode):
        worst, witness = _linf_panel_scan(x, s)
        return _certificate(CertKind.LINF_RIP, epsilon, s, worst, witness, exact=True)

    def deviation(idx: np.ndarray) -> float:
        return inf_op_norm(restricted_gram(x, idx) - np.eye(len(idx)))

    subsets = _sampled_subsets(d, s, seed, trials)
    return _scan_certificate(CertKind.LINF_RIP, epsilon, s, subsets, deviation, exact=False)


def certify_pi(x: np.ndarray, alpha: float) -> RipCertificate:
    """Entrywise bound on |[X^T X - I]_{ij}|; always exact (one Gram pass).

    The witness is the first largest entry in row-major order, which for a
    symmetric matrix lies in the upper triangle, the part the panels form.
    """
    x = check_design(x, "design")
    alpha = check(alpha, "alpha", "a finite number")
    worst, i, j = -np.inf, 0, 0
    for lo, u in _upper_panels(x):
        np.abs(u, out=u)
        pi = int(np.argmax(u.max(axis=1)))  # by row: an argmax over all of u would copy the view
        pj = int(np.argmax(u[pi]))
        if u[pi, pj] > worst:
            worst, i, j = float(u[pi, pj]), lo + pi, lo + pj
    return _certificate(CertKind.PAIRWISE_INCOHERENCE, alpha, 2, worst, np.unique([i, j]), exact=True)


def welch_floor(x: np.ndarray) -> float:
    """Average squared correlation of normalized columns; always >= 1/n.

    ||U^T U||_F = ||U U^T||_F, so the smaller of the two Gram matrices is formed.
    """
    x = check_design(x, "design")
    norms = np.linalg.norm(x, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("matrix has a zero column")
    u = x / norms
    n, d = u.shape
    g = u @ u.T if n < d else u.T @ u
    return float(np.sum(g * g) / (d * d))


def linf_rip_sample_floor(epsilon: float, s: int) -> float:
    """Minimum n for (eps, s) sup-norm RIP when d >= s^3 / eps^2."""
    if not (SCALARS["a finite number"](epsilon) and 0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
    if not (SCALARS["a positive integer"](s) and s >= 2):
        raise ValueError(f"s must be an integer of at least 2, got {s!r}")
    return s * s / (144.0 * epsilon * epsilon)
