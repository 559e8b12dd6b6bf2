"""Certifiers for restricted-isometry-type matrix properties.

Three properties of the Gram deviation G = X^T X - I are certified:

* l2-RIP: extreme eigenvalues of every restricted Gram block lie in
  [1 - eps, 1 + eps].
* sup-norm RIP: the max-row-l1 norm of every restricted deviation block is at
  most eps.  Exact certification is done greedily per anchor row: the worst
  subset containing row i is the diagonal term plus the s-1 largest
  off-diagonal magnitudes, so no subset enumeration is needed.
* pairwise incoherence: an entrywise bound on |G_ij|.

Only exact l2 certification, whose subset budget bounds d, holds G whole.
The exact sup-norm and incoherence certifiers scan it in row panels
X[:, lo:hi]^T X of at most PANEL_BYTES each, so their memory is
O(n d + PANEL_BYTES); the sampled modes form only s x s blocks.

Also provides the averaged-coherence floor (which is at least 1/n for any
matrix) and the minimum sample count compatible with sup-norm RIP at (eps, s).
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import MeasurementMatrix, as_array, rng_from
from .linops import IndexSet, inf_op_norm, restricted_gram

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

# Bytes of one panel of Gram rows (524 rows at d = 4000).  The sup-norm scan
# holds two panels at once: the rows and their partitioned copy.
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
    witness: IndexSet | None
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
    doc = {
        "kind": cert.kind.value,
        "threshold": cert.threshold,
        "s": cert.s,
        "verdict": cert.verdict.value,
        "achieved": cert.achieved,
        "witness": None if cert.witness is None else [int(i) for i in cert.witness.indices],
        "exact": cert.exact,
    }
    return json.dumps(doc)


def _gram(x: MeasurementMatrix | np.ndarray) -> np.ndarray:
    data = as_array(x)
    g = data.T @ data
    return 0.5 * (g + g.T)


def _sampled_subset(d: int, s: int, seed: int, index: int) -> np.ndarray:
    # per-subset derived seed: results do not depend on evaluation order
    return np.sort(rng_from(seed, index).choice(d, size=s, replace=False))


def _scan_certificate(kind: CertKind, epsilon: float, s: int, subsets, value, exact: bool) -> RipCertificate:
    """Certificate from the worst ``value(idx)`` over ``subsets``.

    A failure carries the worst subset as its witness; a clean scan holds
    when it was exhaustive and is only a lower bound (without a witness)
    when it was sampled.
    """
    worst = -np.inf
    witness = None
    for sub in subsets:
        idx = np.asarray(sub, dtype=np.int64)
        val = value(idx)
        if val > worst:
            worst = val
            witness = idx
    if worst <= epsilon:
        verdict = Verdict.HOLDS if exact else Verdict.LOWER_BOUND_ONLY
        wit = IndexSet(witness) if exact and witness is not None else None
    else:
        verdict = Verdict.FAILS
        wit = IndexSet(witness)
    return RipCertificate(
        kind=kind, threshold=float(epsilon), s=s, verdict=verdict,
        achieved=float(worst), witness=wit, exact=exact,
    )


def certify_l2_rip(
    x: MeasurementMatrix | np.ndarray,
    epsilon: float,
    s: int,
    mode: str = "exact",
    trials: int = 500,
    seed: int = 0,
) -> RipCertificate:
    """Check that restricted Gram eigenvalues lie in [1 - eps, 1 + eps].

    Exact mode enumerates all size-s subsets (eigenvalues of principal
    submatrices interlace, so size-s blocks dominate smaller ones) and
    requires at most EXACT_SUBSET_BUDGET subsets (which bounds d, so it reads
    the whole Gram).  Sampled mode forms only its s x s blocks and can only
    certify failure; a clean pass is reported as a lower bound.
    """
    data = as_array(x)
    d = data.shape[1]
    s = min(int(s), d)

    if mode == "exact":
        n_subsets = math.comb(d, s)
        if n_subsets > EXACT_SUBSET_BUDGET:
            raise BudgetExceeded(
                f"C({d},{s}) = {n_subsets} subsets exceeds the exact budget {EXACT_SUBSET_BUDGET}"
            )
        subsets = itertools.combinations(range(d), s)
        g = _gram(data)
    else:
        subsets = (_sampled_subset(d, s, seed, t) for t in range(trials))
        g = None

    def deviation(idx: np.ndarray) -> float:
        block = restricted_gram(data, IndexSet(idx)) if g is None else g[np.ix_(idx, idx)]
        evals = np.linalg.eigvalsh(block)
        return float(max(abs(evals[0] - 1.0), abs(evals[-1] - 1.0)))

    return _scan_certificate(CertKind.L2_RIP, epsilon, s, subsets, deviation, exact=mode == "exact")


def _abs_deviation_panels(data: np.ndarray):
    """Yield ``(lo, |[X^T X - I]_{lo:hi, :}|)`` over consecutive row panels.

    A panel spanning all d rows is the very ``X.T @ X`` product of the dense
    Gram.  Narrower panels are general matrix products, whose rounding may
    differ from the dense product's in the last bit of some entries.
    """
    d = data.shape[1]
    rows = max(1, PANEL_BYTES // (8 * d))
    for lo in range(0, d, rows):
        p = data[:, lo : lo + rows].T @ data
        r = np.arange(p.shape[0])
        p[r, lo + r] -= 1.0
        yield lo, np.abs(p, out=p)


def _linf_panel_scan(data: np.ndarray, s: int) -> tuple[float, np.ndarray]:
    """Exact max over |S| <= s of the restricted deviation's max-row-l1 norm.

    For anchor row i the maximizing subset is i plus the s-1 largest
    off-diagonal magnitudes in that row; all terms are nonnegative so smaller
    subsets never win.  The first row reaching the maximum is the anchor.
    """
    take = min(s - 1, data.shape[1] - 1)
    best = -np.inf
    anchor, anchor_row = -1, None
    for lo, p in _abs_deviation_panels(data):
        r = np.arange(p.shape[0])
        vals = p[r, lo + r]
        p[r, lo + r] = -np.inf
        if take > 0:
            vals += np.partition(p, -take, axis=1)[:, -take:].sum(axis=1)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, anchor, anchor_row = float(vals[i]), lo + i, p[i].copy()
    top = np.argpartition(anchor_row, -take)[-take:] if take > 0 else np.empty(0, dtype=np.int64)
    return best, np.sort(np.concatenate(([anchor], top))).astype(np.int64)


def certify_linf_rip(
    x: MeasurementMatrix | np.ndarray,
    epsilon: float,
    s: int,
    mode: str = "exact",
    trials: int = 500,
    seed: int = 0,
) -> RipCertificate:
    """Check the sup-norm RIP: row-l1 of every restricted deviation <= eps."""
    data = as_array(x)
    d = data.shape[1]
    s = min(int(s), d)
    if s < 1:
        raise ValueError("subset size must be at least 1")

    if mode == "exact":
        worst, witness = _linf_panel_scan(data, s)
        verdict = Verdict.HOLDS if worst <= epsilon else Verdict.FAILS
        return RipCertificate(
            kind=CertKind.LINF_RIP, threshold=float(epsilon), s=s, verdict=verdict,
            achieved=float(worst), witness=IndexSet(witness), exact=True,
        )

    def deviation(idx: np.ndarray) -> float:
        cols = data[:, idx]
        return inf_op_norm(cols.T @ cols - np.eye(len(idx)))

    subsets = (_sampled_subset(d, s, seed, t) for t in range(trials))
    return _scan_certificate(CertKind.LINF_RIP, epsilon, s, subsets, deviation, exact=False)


def certify_pi(x: MeasurementMatrix | np.ndarray, alpha: float) -> RipCertificate:
    """Entrywise bound on |[X^T X - I]_{ij}|; always exact (one Gram pass).

    The witness is the first largest entry in row-major order.
    """
    worst, i, j = -np.inf, 0, 0
    for lo, p in _abs_deviation_panels(as_array(x)):
        pi, pj = divmod(int(np.argmax(p)), p.shape[1])
        if p[pi, pj] > worst:
            worst, i, j = float(p[pi, pj]), lo + pi, pj
    verdict = Verdict.HOLDS if worst <= alpha else Verdict.FAILS
    return RipCertificate(
        kind=CertKind.PAIRWISE_INCOHERENCE, threshold=float(alpha), s=2,
        verdict=verdict, achieved=worst, witness=IndexSet.from_iterable({i, j}), exact=True,
    )


def welch_floor(x: MeasurementMatrix | np.ndarray) -> float:
    """Average squared correlation of normalized columns; always >= 1/n.

    ||U^T U||_F = ||U U^T||_F, so the smaller of the two Gram matrices is formed.
    """
    data = as_array(x)
    norms = np.linalg.norm(data, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("matrix has a zero column")
    u = data / norms
    n, d = u.shape
    g = u @ u.T if n < d else u.T @ u
    return float(np.sum(g * g) / (d * d))


def linf_rip_sample_floor(epsilon: float, s: int) -> float:
    """Minimum n for (eps, s) sup-norm RIP when d >= s^3 / eps^2."""
    if not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if s < 2:
        raise ValueError(f"subset size must be at least 2, got {s}")
    return s * s / (144.0 * epsilon * epsilon)
