"""Domain types, random matrix ensembles, deterministic seeding, and file formats.

Everything downstream (estimators, certifiers, the experiment harness) builds on
the types here.  All randomness flows through counter-based Philox generators
keyed by ``(seed, *subkeys)`` so that any draw -- including per-query resamples
in the masked-oracle module -- is reproducible bit-for-bit.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dims",
    "Ensemble",
    "MeasurementMatrix",
    "ModelTag",
    "NoiseKind",
    "NoiseVector",
    "RecoveryInstance",
    "SparseVector",
    "as_array",
    "build_instance",
    "draw_design",
    "load_instance",
    "load_matrix",
    "matrix_sha256",
    "matrix_to_csv",
    "rng_from",
    "sample_ensemble",
    "save_instance",
    "save_matrix",
    "save_matrix_addressed",
]

RESIDUAL_RTOL = 1e-10

MATRIX_MAGIC = b"LFRMAT01"  # 8 magic bytes, then u32 n, u32 d, row-major f64 LE


def rng_from(seed: int, *subkeys: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, *subkeys).

    Distinct key tuples give independent streams; equal tuples give
    bit-identical streams.  Philox is counter-based, so derived streams are
    reproducible regardless of draw order elsewhere.
    """
    ss = np.random.SeedSequence((int(seed),) + tuple(int(s) for s in subkeys))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class Dims:
    """Problem dimensions: n rows (samples), d columns, sparsity budget k."""

    n: int
    d: int
    k: int

    def __post_init__(self):
        if not (1 <= self.k <= self.d):
            raise ValueError(f"need 1 <= k <= d, got k={self.k}, d={self.d}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")


class Ensemble(str, enum.Enum):
    GAUSSIAN_SCALED = "gaussian_scaled"
    RADEMACHER_SCALED = "rademacher_scaled"
    EXPLICIT = "explicit"


class NoiseKind(str, enum.Enum):
    ISOTROPIC_GAUSSIAN = "isotropic_gaussian"
    ADVERSARIAL = "adversarial"
    ZERO = "zero"
    EXPLICIT = "explicit"


class ModelTag(str, enum.Enum):
    OBLIVIOUS = "oblivious"
    ADAPTIVE = "adaptive"
    PARTIALLY_ADAPTIVE = "partially_adaptive"


@dataclass
class MeasurementMatrix:
    """Dense n x d design with ensemble provenance.

    For the scaled ensembles every entry has variance ``1/n`` (Gaussian
    ``N(0, 1/n)`` or Rademacher ``+-1/sqrt(n)``), so ``E[X^T X] = I_d``.
    """

    data: np.ndarray
    ensemble: Ensemble

    def __post_init__(self):
        self.data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if self.data.ndim != 2:
            raise ValueError("matrix data must be 2-D")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    @classmethod
    def explicit(cls, data: np.ndarray) -> "MeasurementMatrix":
        return cls(data=np.asarray(data, dtype=np.float64), ensemble=Ensemble.EXPLICIT)


def as_array(x: MeasurementMatrix | np.ndarray) -> np.ndarray:
    """The float64 array behind a matrix argument (no copy for a MeasurementMatrix)."""
    return x.data if isinstance(x, MeasurementMatrix) else np.asarray(x, dtype=np.float64)


def draw_design(rng: np.random.Generator, rows: int, d: int, ensemble: Ensemble) -> np.ndarray:
    """A rows x d array of i.i.d. entries of variance 1/rows, drawn from ``rng``."""
    if ensemble is Ensemble.GAUSSIAN_SCALED:
        z = rng.standard_normal((rows, d))
    elif ensemble is Ensemble.RADEMACHER_SCALED:
        z = rng.integers(0, 2, size=(rows, d)).astype(np.float64)
        z *= 2.0
        z -= 1.0
    else:
        raise ValueError(f"cannot sample ensemble {ensemble!r}; use MeasurementMatrix.explicit")
    return np.divide(z, np.sqrt(rows), out=z)


def sample_ensemble(dims: Dims, ensemble: Ensemble, seed: int) -> MeasurementMatrix:
    """Draw an n x d matrix with i.i.d. entries of variance 1/n.

    Deterministic in ``seed``: two calls with equal arguments return
    bit-identical matrices.
    """
    ensemble = Ensemble(ensemble)
    return MeasurementMatrix(data=draw_design(rng_from(seed), dims.n, dims.d, ensemble), ensemble=ensemble)


@dataclass
class SparseVector:
    """Length-d vector with cached support and a declared sparsity cap.

    Invariants: ``support`` is exactly the set of nonzero positions (sorted),
    and ``len(support) <= budget``.
    """

    values: np.ndarray
    support: np.ndarray
    budget: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.support = np.asarray(self.support, dtype=np.int64)
        actual = np.flatnonzero(self.values)
        if not np.array_equal(actual, self.support):
            raise ValueError("support does not match nonzero positions")
        if len(self.support) > self.budget:
            raise ValueError(f"nnz {len(self.support)} exceeds budget {self.budget}")

    @classmethod
    def from_dense(cls, values: np.ndarray, budget: int) -> "SparseVector":
        values = np.asarray(values, dtype=np.float64)
        return cls(values=values, support=np.flatnonzero(values), budget=int(budget))

    @classmethod
    def zeros(cls, d: int, budget: int) -> "SparseVector":
        return cls(values=np.zeros(d), support=np.empty(0, dtype=np.int64), budget=int(budget))

    @property
    def nnz(self) -> int:
        return len(self.support)

    @property
    def d(self) -> int:
        return len(self.values)


@dataclass
class NoiseVector:
    """Length-n noise with provenance (how it was produced)."""

    values: np.ndarray
    kind: NoiseKind
    sigma: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.kind is NoiseKind.ZERO and np.any(self.values != 0.0):
            raise ValueError("zero-provenance noise must be identically 0")

    @classmethod
    def zero(cls, n: int) -> "NoiseVector":
        return cls(values=np.zeros(n), kind=NoiseKind.ZERO)

    @classmethod
    def gaussian(cls, n: int, sigma: float, seed: int) -> "NoiseVector":
        vals = rng_from(seed).standard_normal(n) * float(sigma)
        return cls(values=vals, kind=NoiseKind.ISOTROPIC_GAUSSIAN, sigma=float(sigma))

    @classmethod
    def adversarial(cls, values: np.ndarray) -> "NoiseVector":
        return cls(values=values, kind=NoiseKind.ADVERSARIAL)

    @classmethod
    def explicit(cls, values: np.ndarray) -> "NoiseVector":
        return cls(values=values, kind=NoiseKind.EXPLICIT)


@dataclass
class RecoveryInstance:
    """An (X, y, truth, noise) bundle with the generative-model tag.

    ``y`` always equals ``X theta + xi`` up to roundoff; this is checked on
    construction.
    """

    x: MeasurementMatrix
    y: np.ndarray
    truth: SparseVector
    noise: NoiseVector
    model: ModelTag

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        resid = self.y - self.x.data @ self.truth.values - self.noise.values
        tol = RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(self.y), initial=0.0)))
        if float(np.max(np.abs(resid), initial=0.0)) > tol:
            raise ValueError("observation is not X@truth + noise to roundoff")


def build_instance(
    x: MeasurementMatrix, truth: SparseVector, noise: NoiseVector, model: ModelTag
) -> RecoveryInstance:
    """Assemble an instance, computing y = X theta + xi."""
    if truth.d != x.d:
        raise ValueError(f"truth length {truth.d} != d {x.d}")
    if len(noise.values) != x.n:
        raise ValueError(f"noise length {len(noise.values)} != n {x.n}")
    y = x.data @ truth.values + noise.values
    return RecoveryInstance(x=x, y=y, truth=truth, noise=noise, model=ModelTag(model))


# ---------------------------------------------------------------------------
# File formats.  Matrix: magic bytes, u32 n, u32 d, row-major f64 little-endian.
# Instances: JSON referencing the matrix file by name and content hash.
# ---------------------------------------------------------------------------


def save_matrix(m: MeasurementMatrix, path: str | Path) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<II", m.n, m.d))
        fh.write(np.ascontiguousarray(m.data, dtype="<f8").tobytes())


def save_matrix_addressed(m: MeasurementMatrix, out_dir: str | Path) -> Path:
    """Write ``m`` into ``out_dir`` under a name taken from its sha256; return the path.

    Equal matrices land in one file, so instances can share it by name.  When
    that file exists the new copy is dropped: equal names mean equal bytes, and
    renaming over an existing file forces a flush on ext4.
    """
    out_dir = Path(out_dir)
    tmp = out_dir / f"{os.getpid()}.matrix.tmp"  # per process: concurrent writers never share it
    save_matrix(m, tmp)
    path = out_dir / f"matrix-{matrix_sha256(tmp)[:16]}.bin"
    if path.exists():
        tmp.unlink()
    else:
        tmp.replace(path)
    return path


def load_matrix(path: str | Path) -> MeasurementMatrix:
    raw = Path(path).read_bytes()
    if raw[: len(MATRIX_MAGIC)] != MATRIX_MAGIC:
        raise ValueError(f"{path}: bad magic bytes")
    n, d = struct.unpack_from("<II", raw, len(MATRIX_MAGIC))
    body = raw[len(MATRIX_MAGIC) + 8 :]
    if len(body) != 8 * n * d:
        raise ValueError(f"{path}: payload is {len(body)} bytes, expected {8 * n * d}")
    data = np.frombuffer(body, dtype="<f8").reshape(n, d).astype(np.float64)
    return MeasurementMatrix(data=data, ensemble=Ensemble.EXPLICIT)


def matrix_to_csv(m: MeasurementMatrix, path: str | Path) -> None:
    np.savetxt(path, m.data, delimiter=",", fmt="%.17g")


def matrix_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def save_instance(inst: RecoveryInstance, path: str | Path, matrix_file: str | Path) -> None:
    """Write an instance as JSON next to an already-saved matrix file.

    The matrix is referenced by file name plus content hash so that two
    instances can share one matrix byte-for-byte.
    """
    path = Path(path)
    matrix_file = Path(matrix_file)
    doc = {
        "format": "linfrec-instance-v1",
        "model": inst.model.value,
        "matrix": {"file": matrix_file.name, "sha256": matrix_sha256(matrix_file)},
        "y": inst.y.tolist(),
        "truth": {"values": inst.truth.values.tolist(), "budget": inst.truth.budget},
        "noise": {
            "values": inst.noise.values.tolist(),
            "kind": inst.noise.kind.value,
            "sigma": inst.noise.sigma,
        },
    }
    path.write_text(json.dumps(doc))


def load_instance(path: str | Path) -> RecoveryInstance:
    path = Path(path)
    doc = json.loads(path.read_text())
    if doc.get("format") != "linfrec-instance-v1":
        raise ValueError(f"{path}: not a linfrec instance file")
    matrix_file = path.parent / doc["matrix"]["file"]
    if matrix_sha256(matrix_file) != doc["matrix"]["sha256"]:
        raise ValueError(f"{matrix_file}: content hash mismatch")
    x = load_matrix(matrix_file)
    truth = SparseVector.from_dense(np.asarray(doc["truth"]["values"]), doc["truth"]["budget"])
    noise = NoiseVector(
        values=np.asarray(doc["noise"]["values"]),
        kind=NoiseKind(doc["noise"]["kind"]),
        sigma=doc["noise"]["sigma"],
    )
    return RecoveryInstance(
        x=x, y=np.asarray(doc["y"]), truth=truth, noise=noise, model=ModelTag(doc["model"])
    )
