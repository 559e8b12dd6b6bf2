"""Domain types, random matrix ensembles, deterministic seeding, and file formats.

Everything downstream (estimators, certifiers, the experiment harness) builds on
the types here.  All randomness flows through SFC64 generators keyed by
``(seed, *subkeys)`` through a SeedSequence, so that any draw -- including
per-query resamples in the masked-oracle module -- is reproducible
bit-for-bit.  A design is drawn in fixed tiles, each from its own key, so a
tile can be skipped or drawn alone without moving any other entry, and the
tiles can be filled on several threads without moving any byte.  A tile's
stream is defined by ``rng_from``; a draw computes the seeded SFC64 states of
all its tiles in one vectorized SeedSequence/SFC64 pass instead.
"""

from __future__ import annotations

import ctypes
import enum
import functools
import hashlib
import json
import math
import mmap
import numbers
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "Dims",
    "Ensemble",
    "RecoveryInstance",
    "build_instance",
    "draw_design",
    "gaussian_noise",
    "json_field",
    "load_instance",
    "load_matrix",
    "matrix_sha256",
    "replace_file",
    "rng_from",
    "sample_ensemble",
    "save_instance",
    "save_matrix",
    "save_matrix_addressed",
]

RESIDUAL_RTOL = 1e-10

MATRIX_MAGIC = b"LFRMAT01"  # 8 magic bytes, then u32 n, u32 d, row-major f64 LE

# Instance formats read, oldest first; the last is written.  A v1 file is a
# v2 file plus the fields model, noise.kind and noise.sigma, which are ignored.
INSTANCE_FORMATS = ("linfrec-instance-v1", "linfrec-instance-v2")


# A design is drawn in tiles of TILE_ROWS x TILE_COLS entries, tile (i, j)
# from rng_from(*key, i, j, TILE_TAG).  The tag is last and nonzero, so no
# tile key reads as a shorter key padded with zeros (see rng_from).
TILE_ROWS = 1024
TILE_COLS = 16
TILE_TAG = 0x74696C65  # "tile"
# A fill thread draws up to GROUP full-width tiles of a row tile into one
# contiguous buffer of at most GROUP * TILE_ROWS * TILE_COLS doubles (1 MiB).
GROUP = 8
# A design of at least _MAPPED_BYTES is drawn into its own anonymous mapping
# (see _mapped_zeros); glibc maps a block this large itself until its dynamic
# threshold rises.  Mappings of _HUGE_BYTES or more get the huge-page advice
# numpy gives its own arrays of that size.
_MAPPED_BYTES = 1 << 17
_HUGE_BYTES = 1 << 22

# Processes drawing designs at once: 1 in-process, the pool size in the
# harness's pool workers (set by _share_cores), so that all processes' fill
# threads together use each core once.
_workers = 1


def _share_cores(workers: int) -> None:
    """Draw as one of ``workers`` processes that share this process's cores."""
    global _workers
    _workers = workers


def _cores() -> int:
    """The cores this process may run on (all of the machine's where that cannot be asked)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS bundled with numpy's wheel, if it exports ``blas_thread_shutdown_``.

    numpy has already loaded it, so this opens the same library, not a copy.
    """
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            lib.blas_thread_shutdown_.restype = ctypes.c_int
        except (OSError, AttributeError):
            continue
        return lib
    return None


def rng_from(seed: int, *subkeys: int) -> np.random.Generator:
    """SFC64 generator keyed by (seed, *subkeys) through a SeedSequence.

    Equal tuples give bit-identical streams and distinct tuples independent
    ones, with one exception: a SeedSequence reads the key as 32-bit words
    (two for an integer of 2**32 or more) and pads it with zero words to
    four, so zeros at the end of a key that fit within those four words are
    ignored.  ``(1, 2)``, ``(1, 2, 0)`` and ``(1, 2, 0, 0)`` give one stream.
    """
    ss = np.random.SeedSequence((int(seed),) + tuple(int(s) for s in subkeys))
    return np.random.Generator(np.random.SFC64(ss))


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


def _unscaled_tile(rng: np.random.Generator, out: np.ndarray, ensemble: Ensemble) -> None:
    """Fill the C-ordered ``out`` row-major with the ensemble's unscaled entries."""
    if ensemble is Ensemble.GAUSSIAN_SCALED:
        rng.standard_normal(out=out)
    else:
        out[...] = rng.integers(0, 2, size=out.shape)
        out *= 2.0
        out -= 1.0


# numpy's SeedSequence (a pool of four 32-bit words hashed and mixed with
# these constants) and SFC64's seeding (three seeded words, a counter of 1,
# then 12 rounds), run by _seed_states over arrays with one lane per tile.
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


def _words(part: int) -> list[int]:
    """The 32-bit words a SeedSequence reads the integer ``part`` as, least significant first."""
    part = int(part)
    if part < 0:
        raise ValueError("expected non-negative integer")
    return [part >> shift & _WORD for shift in range(0, max(part.bit_length(), 1), 32)]


def _hasher(const: int, mult: int):
    """A SeedSequence hash of uint32 arrays: xor with the running constant, step it, multiply, fold."""

    def step(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _WORD
        value = value * np.uint32(const)
        return value ^ value >> 16

    return step


def _seed_states(key: tuple[int, ...], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The seeded SFC64 state of ``rng_from(*key, i[t], j[t], TILE_TAG)`` in row t, as 4 uint64.

    ``i`` and ``j`` are equal-length integer arrays of entries below 2**32.
    """
    words = [np.array([w], dtype=np.uint32) for part in key for w in _words(part)]
    words += [i.astype(np.uint32), j.astype(np.uint32), np.array([TILE_TAG], dtype=np.uint32)]
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ value >> 16

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(words[w] if w < len(words) else zero) for w in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(3, np.uint64): six words cycled from the pool, paired low word first
    hashout = _hasher(_INIT_B, _MULT_B)
    seeded = [hashout(pool[w % _POOL_WORDS]).astype(np.uint64) for w in range(6)]
    a, b, c = (seeded[w] | seeded[w + 1] << 32 for w in range(0, 6, 2))
    for counter in range(1, 13):
        a, b, c = b ^ b >> 11, c + (c << 3), (c << 24 | c >> 40) + (a + b + np.uint64(counter))
    return np.stack(np.broadcast_arrays(a, b, c, np.uint64(13)), axis=-1)


@functools.cache
def _check_seeding() -> None:
    """Raise unless _seed_states gives numpy's own SFC64 seeding, as rng_from does; once per process."""
    key, i, j = (2**64 + 5, 0, 2**32 + 9), np.array([0, 3]), np.array([7, 0])
    want = [np.random.SFC64(np.random.SeedSequence((*key, a, b, TILE_TAG))).state["state"]["state"] for a, b in zip(i, j)]
    if not np.array_equal(_seed_states(key, i, j), want):
        raise RuntimeError(f"numpy {np.__version__} seeds SFC64 unlike linfrec's tile seeding pass")


def _tile_states(key: tuple[int, ...], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``_seed_states(key, i, j)``, checked once against numpy's seeding."""
    _check_seeding()
    return _seed_states(key, i, j)


def _fill(x: np.ndarray, states: np.ndarray, ensemble: Ensemble, col_tiles: list) -> None:
    """Draw the listed column tiles of ``x`` in every row tile, tile (i, j) from ``states[i, j]``.

    Full-width tiles are drawn GROUP at a time into one contiguous buffer,
    scaled there in one pass and copied to ``x`` as whole tile rows, each one
    item of TILE_COLS doubles; a narrower last tile is scaled into ``x`` alone.
    One generator is set to each tile's state in turn.
    """
    rows, d = x.shape
    root = math.sqrt(rows)
    full = [tile for tile in col_tiles if tile[1].stop - tile[1].start == TILE_COLS]
    groups = [full[g : g + GROUP] for g in range(0, len(full), GROUP)]
    groups += [[tile] for tile in col_tiles if tile[1].stop - tile[1].start < TILE_COLS]
    item = np.dtype((np.void, TILE_COLS * 8))
    xv = x[:, : d - d % TILE_COLS].view(item)
    buf = np.empty(min(GROUP, len(col_tiles)) * min(TILE_ROWS, rows) * TILE_COLS)
    bits = np.random.SFC64(0)
    rng = np.random.Generator(bits)
    for i, top in enumerate(range(0, rows, TILE_ROWS)):
        height = min(TILE_ROWS, rows - top)
        for group in groups:
            cols = group[0][1]
            band = buf[: len(group) * height * (cols.stop - cols.start)].reshape(len(group), height, -1)
            for slot, (j, _, drop) in zip(band, group):
                bits.state = {"bit_generator": "SFC64", "state": {"state": states[i, j]}, "has_uint32": 0, "uinteger": 0}
                _unscaled_tile(rng, slot, ensemble)
                if drop is not None:
                    slot[:, drop] = 0.0
            if cols.stop - cols.start < TILE_COLS:
                np.divide(band[0], root, out=x[top : top + height, cols])
                continue
            np.divide(band, root, out=band)
            first, last = group[0][0], group[-1][0]
            sel = slice(first, last + 1) if last - first + 1 == len(group) else [j for j, _, _ in group]
            xv[top : top + height, sel] = band.view(item)[:, :, 0].T


def _mapped_zeros(rows: int, d: int) -> np.ndarray:
    """A zero rows x d float64 array in its own private anonymous mapping, unmapped when it is freed.

    ``np.zeros`` takes an array below 32 MiB from glibc's heap once glibc's
    dynamic mmap threshold has risen past its size.  A freed design there
    stays resident whenever a small block lands above it, and whether one
    does depends on how the fill threads interleave, so the peak RSS of the
    same draws could differ by a whole design from one run to the next.  An
    array below _MAPPED_BYTES, or one on a platform without private mappings,
    comes from ``np.zeros``.
    """
    nbytes = rows * d * 8
    if nbytes < _MAPPED_BYTES or not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros((rows, d))
    pages = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    if nbytes >= _HUGE_BYTES and hasattr(mmap, "MADV_HUGEPAGE"):
        pages.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(pages, dtype=np.float64).reshape(rows, d)


def draw_design(
    key: tuple[int, ...], rows: int, d: int, ensemble: Ensemble, masked: np.ndarray | None = None
) -> np.ndarray:
    """A fresh C-ordered rows x d float64 array of i.i.d. entries of variance 1/rows.

    Tile (i, j) holds rows ``[i*TILE_ROWS, (i+1)*TILE_ROWS)`` and columns
    ``[j*TILE_COLS, (j+1)*TILE_COLS)``, cut at the edges of the array, and is
    filled row-major from ``rng_from(*key, i, j, TILE_TAG)``.  Hence the
    unscaled first rows of a draw equal the unscaled draw of fewer rows, and
    the columns listed in ``masked`` are zero while every other entry is what
    the unmasked draw holds.  A tile whose columns are all masked is not drawn.
    The seeded SFC64 states of the tiles drawn are computed in one vectorized
    SeedSequence/SFC64 pass (``_tile_states``), equal to those ``rng_from``
    gives, and a negative key part raises a ValueError as a SeedSequence does.

    A mask index outside ``[0, d)`` raises a ValueError naming it.

    The column tiles are dealt in contiguous blocks to one thread per core
    this process may use (cores divided among the harness's pool workers).
    Each thread sets one generator to each tile's state in turn, and draws
    its full-width tiles of a row tile GROUP at a time
    into one contiguous buffer of at most ``GROUP * TILE_ROWS * TILE_COLS``
    doubles (1 MiB), scales them there and copies them to ``x`` in whole
    tile rows; a narrower last tile is drawn alone.  Each tile comes from
    its own key and writes only its own entries, so the bytes do not depend
    on the number of threads or on how tiles are grouped.

    A design of 128 KiB or more lives in its own anonymous mapping
    (``_mapped_zeros``), so its pages go back to the system when it is freed.

    Before a draw of more than one tile, OpenBLAS's idle worker threads are
    released, since they busy-wait for a while after every BLAS call and
    would take a core from the fill; the next BLAS call starts them again at
    the same thread count.  Releasing them under a BLAS call in progress on
    another thread is unsafe, so they are released only while the calling
    thread is the process's only Python thread (linfrec starts none that
    outlives a draw).  A thread started outside Python is not seen, and must
    not be inside BLAS during a draw.
    """
    ensemble = Ensemble(ensemble)
    keep = np.ones(d, dtype=bool)
    if masked is not None and len(masked):
        masked = np.asarray(masked)
        outside = masked[(masked < 0) | (masked >= d)]
        if len(outside):
            raise ValueError(f"mask index {outside[0]} is out of range for d={d}")
        keep[masked] = False
    col_tiles = []
    for j, lo in enumerate(range(0, d, TILE_COLS)):
        cols = keep[lo : lo + TILE_COLS]
        if cols.any():
            col_tiles.append((j, slice(lo, lo + len(cols)), None if cols.all() else ~cols))
    row_tiles, drawn = math.ceil(rows / TILE_ROWS), np.array([j for j, _, _ in col_tiles], dtype=np.intp)
    states = np.empty((row_tiles, math.ceil(d / TILE_COLS), 4), dtype=np.uint64)
    lanes = _tile_states(key, np.repeat(np.arange(row_tiles), len(drawn)), np.tile(drawn, row_tiles))
    states[:, drawn] = lanes.reshape(row_tiles, len(drawn), 4)
    x = _mapped_zeros(rows, d)
    blas = _openblas()
    several = len(col_tiles) * row_tiles > 1
    if blas is not None and several and threading.active_count() == 1:
        blas.blas_thread_shutdown_()
    threads = max(1, min(_cores() // _workers, len(col_tiles)))
    bands = [col_tiles[b * len(col_tiles) // threads : (b + 1) * len(col_tiles) // threads] for b in range(threads)]
    # the calling thread fills band 0; the pool starts a thread for each other band
    with ThreadPoolExecutor(threads) as pool:
        helpers = [pool.submit(_fill, x, states, ensemble, band) for band in bands[1:]]
        _fill(x, states, ensemble, bands[0])
        for helper in helpers:
            helper.result()
    return x


def sample_ensemble(dims: Dims, ensemble: Ensemble, seed: int) -> np.ndarray:
    """Draw an n x d design with i.i.d. entries of variance 1/n.

    For the scaled ensembles every entry is ``N(0, 1/n)`` or ``+-1/sqrt(n)``,
    so ``E[X^T X] = I_d``.  Deterministic in ``seed``: two calls with equal
    arguments return bit-identical matrices.  The design is
    ``draw_design((seed,), n, d, ensemble)``.
    """
    return draw_design((seed,), dims.n, dims.d, ensemble)


def gaussian_noise(n: int, sigma: float, *key: int) -> np.ndarray:
    """Length-n i.i.d. ``N(0, sigma^2)`` noise drawn from ``rng_from(*key)``."""
    return rng_from(*key).standard_normal(n) * float(sigma)


@dataclass
class RecoveryInstance:
    """An (X, y, truth, noise) bundle with the truth's sparsity budget.

    The truth is a length-d and the noise a length-n float64 array.  The
    truth has at most ``budget`` nonzeros, and ``y`` equals
    ``X theta + xi`` up to roundoff; both are checked on construction.
    """

    x: np.ndarray
    y: np.ndarray
    truth: np.ndarray
    noise: np.ndarray
    budget: int

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.truth = np.ascontiguousarray(self.truth, dtype=np.float64)
        self.noise = np.asarray(self.noise, dtype=np.float64)
        self.budget = int(self.budget)
        nnz = np.count_nonzero(self.truth)
        if nnz > self.budget:
            raise ValueError(f"nnz {nnz} exceeds budget {self.budget}")
        resid = self.y - self.x @ self.truth - self.noise
        tol = RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(self.y), initial=0.0)))
        if not float(np.max(np.abs(resid), initial=0.0)) <= tol:  # NaN fails too
            raise ValueError("observation is not X@truth + noise to roundoff")


def build_instance(x: np.ndarray, truth: np.ndarray, noise: np.ndarray, budget: int) -> RecoveryInstance:
    """Assemble an instance, computing y = X theta + xi."""
    n, d = x.shape
    if len(truth) != d:
        raise ValueError(f"truth length {len(truth)} != d {d}")
    if len(noise) != n:
        raise ValueError(f"noise length {len(noise)} != n {n}")
    return RecoveryInstance(x=x, y=x @ truth + noise, truth=truth, noise=noise, budget=budget)


# ---------------------------------------------------------------------------
# File formats.  Matrix: magic bytes, u32 n, u32 d, row-major f64 little-endian.
# Instances: JSON referencing the matrix file by name and content hash.
# ---------------------------------------------------------------------------


def replace_file(path: str | Path, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks``, in order, to ``path``, replacing any file there.

    The only writer of files in linfrec.  The chunks go to a temp file beside
    ``path``, named per process and per target, so concurrent writers never
    share one; the old file is then unlinked and the temp file renamed into
    place.  On ext4 (``auto_da_alloc``) a file that is truncated or renamed
    over is flushed, which costs tens of milliseconds per write; unlinking
    first avoids that.  If anything fails, the temp file is removed and the
    old file is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        path.unlink(missing_ok=True)
        tmp.rename(path)
    finally:
        tmp.unlink(missing_ok=True)


def _matrix_chunks(x: np.ndarray) -> list:
    """The matrix file of ``x`` as a header and the array itself (no copy when it is C-ordered)."""
    if x.ndim != 2:
        raise ValueError(f"a design must be 2-D, got shape {x.shape}")
    return [MATRIX_MAGIC + struct.pack("<II", *x.shape), np.ascontiguousarray(x, dtype="<f8")]


def save_matrix(x: np.ndarray, path: str | Path) -> None:
    replace_file(path, _matrix_chunks(x))


def save_matrix_addressed(x: np.ndarray, out_dir: str | Path) -> Path:
    """Write ``x`` into ``out_dir`` under a name taken from its sha256; return the path.

    Equal matrices land in one file, so instances can share it by name.  The
    name is hashed from the bytes in memory, and a file that already has it is
    kept untouched: equal names mean equal bytes.
    """
    chunks = _matrix_chunks(x)
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    path = Path(out_dir) / f"matrix-{digest.hexdigest()[:16]}.bin"
    if not path.exists():
        replace_file(path, chunks)
    return path


def load_matrix(path: str | Path) -> np.ndarray:
    """The float64 n x d array stored at ``path`` (a fresh, writable copy)."""
    raw = Path(path).read_bytes()
    if raw[: len(MATRIX_MAGIC)] != MATRIX_MAGIC:
        raise ValueError(f"{path}: bad magic bytes")
    if len(raw) < len(MATRIX_MAGIC) + 8:
        raise ValueError(f"{path}: truncated header")
    n, d = struct.unpack_from("<II", raw, len(MATRIX_MAGIC))
    body = raw[len(MATRIX_MAGIC) + 8 :]
    if len(body) != 8 * n * d:
        raise ValueError(f"{path}: payload is {len(body)} bytes, expected {8 * n * d}")
    x = np.frombuffer(body, dtype="<f8").reshape(n, d).astype(np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: payload has non-finite entries")
    return x


def matrix_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def save_instance(inst: RecoveryInstance, path: str | Path, matrix_file: str | Path) -> None:
    """Write an instance as JSON next to an already-saved matrix file.

    The matrix is referenced by file name plus content hash so that two
    instances can share one matrix byte-for-byte.
    """
    matrix_file = Path(matrix_file)
    doc = {
        "format": INSTANCE_FORMATS[-1],
        "matrix": {"file": matrix_file.name, "sha256": matrix_sha256(matrix_file)},
        "y": inst.y.tolist(),
        "truth": {"values": inst.truth.tolist(), "budget": inst.budget},
        "noise": {"values": inst.noise.tolist()},
    }
    replace_file(path, [json.dumps(doc).encode()])


def json_field(doc, kind, *keys):
    """``doc[keys[0]][keys[1]]...``, checked to be a ``kind`` (never a bool).

    A missing field or one of another type raises a ValueError naming it.
    """
    name = ".".join(str(key) for key in keys)
    value = doc
    for key in keys:
        try:
            value = value[key]
        except (KeyError, IndexError, TypeError):
            raise ValueError(f"missing field {name}") from None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"field {name} has type {type(value).__name__}")
    return value


def _json_floats(doc, length: int, *keys) -> np.ndarray:
    """A JSON list of ``length`` numbers as a float64 array."""
    name = ".".join(keys)
    values = json_field(doc, list, *keys)
    try:
        values = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"field {name} is not a list of numbers") from None
    if values.shape != (length,):
        raise ValueError(f"field {name} has shape {values.shape}, expected ({length},)")
    return values


def load_instance(path: str | Path) -> RecoveryInstance:
    path = Path(path)
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict) or doc.get("format") not in INSTANCE_FORMATS:
        raise ValueError(f"{path}: not a linfrec instance file")
    matrix_file = path.parent / json_field(doc, str, "matrix", "file")
    if matrix_sha256(matrix_file) != json_field(doc, str, "matrix", "sha256"):
        raise ValueError(f"{matrix_file}: content hash mismatch")
    x = load_matrix(matrix_file)
    n, d = x.shape
    return RecoveryInstance(
        x=x,
        truth=_json_floats(doc, d, "truth", "values"),
        budget=json_field(doc, numbers.Integral, "truth", "budget"),
        y=_json_floats(doc, n, "y"),
        noise=_json_floats(doc, n, "noise", "values"),
    )
