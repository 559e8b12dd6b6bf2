import json
import math
import mmap
import os
import struct
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import is_design, mutated_json

from linfrec import core
from linfrec.core import (
    GROUP,
    MATRIX_MAGIC,
    TILE_COLS,
    TILE_ROWS,
    TILE_TAG,
    Dims,
    INSTANCE_FORMATS,
    Ensemble,
    RecoveryInstance,
    build_instance,
    draw_design,
    gaussian_noise,
    load_instance,
    load_matrix,
    matrix_sha256,
    rng_from,
    sample_ensemble,
    save_instance,
    save_matrix,
    save_matrix_addressed,
)


def test_dims_validation():
    Dims(n=1, d=1, k=1)
    with pytest.raises(ValueError):
        Dims(n=1, d=5, k=0)
    with pytest.raises(ValueError):
        Dims(n=1, d=5, k=6)
    with pytest.raises(ValueError):
        Dims(n=0, d=5, k=1)


@pytest.mark.parametrize("ensemble", [Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED])
def test_seed_determinism(ensemble):
    dims = Dims(n=2, d=2, k=1)
    a = sample_ensemble(dims, ensemble, seed=99)
    b = sample_ensemble(dims, ensemble, seed=99)
    assert np.array_equal(a, b)
    c = sample_ensemble(dims, ensemble, seed=100)
    assert not np.array_equal(a, c)


def test_rademacher_entries_exact():
    dims = Dims(n=10_000, d=16, k=1)
    m = sample_ensemble(dims, Ensemble.RADEMACHER_SCALED, seed=3)
    assert set(np.unique(m)) == {-0.01, 0.01}


def test_gaussian_moments():
    # Monte Carlo moment check against the declared law N(0, 1/n).
    dims = Dims(n=1000, d=100, k=1)
    m = sample_ensemble(dims, Ensemble.GAUSSIAN_SCALED, seed=5)
    entries = m.ravel()
    stderr = np.sqrt(1.0 / dims.n) / np.sqrt(entries.size)
    assert abs(entries.mean()) <= 4 * stderr
    assert abs(entries.var() - 1e-3) <= 0.05 * 1e-3


@pytest.mark.parametrize("ensemble", [Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED])
def test_empirical_variance_five_percent(ensemble):
    dims = Dims(n=1000, d=120, k=1)  # n*d >= 1e5
    m = sample_ensemble(dims, ensemble, seed=11)
    assert abs(m.var() - 1.0 / dims.n) <= 0.05 / dims.n


def test_fourth_moment_separates_ensembles():
    # Standardized fourth moment: 3 for Gaussian, 1 for Rademacher.
    dims = Dims(n=1000, d=1000, k=1)  # n*d = 1e6
    g = sample_ensemble(dims, Ensemble.GAUSSIAN_SCALED, seed=21).ravel()
    kurt_g = np.mean(g**4) / np.mean(g**2) ** 2
    assert abs(kurt_g - 3.0) <= 0.2
    r = sample_ensemble(dims, Ensemble.RADEMACHER_SCALED, seed=21).ravel()
    kurt_r = np.mean(r**4) / np.mean(r**2) ** 2
    assert abs(kurt_r - 1.0) <= 1e-12


def tiled_reference(key, rows, d, ensemble, masked=()):
    """The design drawn serially, tile by tile from its own key, without draw_design."""
    want = np.empty((rows, d))
    for i, top in enumerate(range(0, rows, TILE_ROWS)):
        for j, left in enumerate(range(0, d, TILE_COLS)):
            height, width = min(TILE_ROWS, rows - top), min(TILE_COLS, d - left)
            rng = rng_from(*key, i, j, TILE_TAG)
            if ensemble is Ensemble.GAUSSIAN_SCALED:
                tile = rng.standard_normal(height * width)
            else:
                tile = 2.0 * rng.integers(0, 2, size=height * width) - 1.0
            want[top : top + height, left : left + width] = tile.reshape(height, width) / np.sqrt(rows)
    want[:, list(masked)] = 0.0
    return want


# a SeedSequence reads a key part as one 32-bit word, two from 2**32 and three from 2**64
KEY_PARTS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**96))


@settings(max_examples=60, deadline=None)
@given(
    key=st.lists(KEY_PARTS, min_size=1, max_size=3).map(tuple),
    tiles=st.lists(st.tuples(st.integers(0, 2**10), st.integers(0, 2**32 - 1)), min_size=1, max_size=4),
)
def test_tile_states_seed_the_streams_of_rng_from(key, tiles):
    i, j = (np.array(part, dtype=np.int64) for part in zip(*tiles))
    states = core._tile_states(key, i, j)
    assert states.shape == (len(tiles), 4) and states.dtype == np.uint64
    # one generator set to each state in turn, as a fill thread does; the odd
    # count of integers(0, 2) draws leaves half a word in SFC64's uint32 buffer
    bits = np.random.SFC64(0)
    rng = np.random.Generator(bits)
    for state, (a, b) in zip(states, tiles):
        for draw in (lambda g: g.standard_normal(9), lambda g: g.integers(0, 2, size=67)):
            bits.state = {"bit_generator": "SFC64", "state": {"state": state}, "has_uint32": 0, "uinteger": 0}
            assert draw(rng).tobytes() == draw(rng_from(*key, a, b, TILE_TAG)).tobytes()


@pytest.mark.parametrize("key", [(-1,), (3, -1), (2**64, 0, -(2**40))])
def test_a_negative_key_part_is_rejected(key):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        core._tile_states(key, np.array([0]), np.array([0]))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        draw_design(key, 10, 20, Ensemble.GAUSSIAN_SCALED)


def test_seeding_unlike_numpys_is_refused(monkeypatch):
    core._check_seeding.cache_clear()
    monkeypatch.setattr(core, "_seed_states", lambda key, i, j: np.zeros((len(i), 4), dtype=np.uint64))
    try:
        with pytest.raises(RuntimeError, match="seeds SFC64 unlike"):
            draw_design((1,), 10, 20, Ensemble.GAUSSIAN_SCALED)
    finally:
        core._check_seeding.cache_clear()


@pytest.fixture
def bands(monkeypatch):
    """The thread that filled each band of column tiles during the test."""
    threads = []
    fill = core._fill

    def recording(*args):
        threads.append(threading.current_thread())
        fill(*args)

    monkeypatch.setattr(core, "_fill", recording)
    return threads


# d = 37 is not a multiple of TILE_COLS, and TILE_ROWS + 6 rows not of TILE_ROWS
TILED_ROWS, TILED_D = TILE_ROWS + 6, 2 * TILE_COLS + 5


@pytest.mark.parametrize("ensemble", [Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED])
def test_design_is_tiles_filled_row_major_from_their_own_keys(ensemble):
    x = sample_ensemble(Dims(n=TILED_ROWS, d=TILED_D, k=1), ensemble, 12)
    assert x.tobytes() == tiled_reference((12,), TILED_ROWS, TILED_D, ensemble).tobytes()


@pytest.mark.parametrize("ensemble", [Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED])
@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize(
    "masked, tiles",
    [
        ((), 3),
        (range(TILE_COLS), 2),
        ((3, 20, 21), 3),
        (range(2 * TILE_COLS, TILED_D), 2),
        ((0, TILED_D - 1), 3),
    ],
    ids=["none", "whole-tile", "part-tiles", "short-last-tile", "part-first-and-last"],
)
def test_threaded_fill_is_the_serial_tiles(monkeypatch, bands, ensemble, cores, masked, tiles):
    # one band per core, at most one per column tile drawn; the calling
    # thread fills one band and other threads the rest
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the bands as finely as the interpreter allows
    try:
        x = draw_design((7, 3), TILED_ROWS, TILED_D, ensemble, np.asarray(masked, dtype=np.int64))
    finally:
        sys.setswitchinterval(interval)
    assert len(bands) == min(cores, tiles)
    assert bands.count(threading.current_thread()) == 1
    assert x.tobytes() == tiled_reference((7, 3), TILED_ROWS, TILED_D, ensemble, masked).tobytes()


def test_fill_threads_are_shared_among_pool_workers(monkeypatch, bands):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setattr(core, "_workers", 2)
    draw_design((1,), 50, 5 * TILE_COLS, Ensemble.GAUSSIAN_SCALED)
    assert len(bands) == 2


def test_fill_threads_without_an_affinity_mask_count_the_machine(monkeypatch, bands):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    x = draw_design((5,), TILED_ROWS, TILED_D, Ensemble.RADEMACHER_SCALED)
    assert len(bands) == 2
    assert x.tobytes() == tiled_reference((5,), TILED_ROWS, TILED_D, Ensemble.RADEMACHER_SCALED).tobytes()


# several groups of full-width tiles per fill thread, then a 5-column edge tile
GROUPED_D = (2 * GROUP + 3) * TILE_COLS + 5
KEPT_TILE = GROUP + 2


@pytest.mark.parametrize("ensemble", [Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED])
@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize(
    "masked",
    [
        (),
        range(3 * TILE_COLS, 4 * TILE_COLS),
        (GROUP * TILE_COLS - 3, GROUP * TILE_COLS - 1, GROUP * TILE_COLS, GROUP * TILE_COLS + 2),
        [c for c in range(GROUPED_D) if c // TILE_COLS != KEPT_TILE],
    ],
    ids=["none", "gap-in-a-group", "part-tiles-across-a-group-boundary", "all-but-one-tile"],
)
def test_grouped_fill_is_the_serial_tiles(monkeypatch, ensemble, cores, masked):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    x = draw_design((9, 2), TILED_ROWS, GROUPED_D, ensemble, np.asarray(masked, dtype=np.int64))
    assert x.tobytes() == tiled_reference((9, 2), TILED_ROWS, GROUPED_D, ensemble, masked).tobytes()


@pytest.mark.parametrize("ensemble", [Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED])
def test_fill_scratch_is_one_group_buffer_per_thread(ensemble):
    rows, d = 2490, 4000
    threads = max(1, min(core._cores() // core._workers, math.ceil(d / TILE_COLS)))
    group_buffer = GROUP * TILE_ROWS * TILE_COLS * 8
    # slack: per thread one tile-sized temporary (a Rademacher tile's int64
    # draw), plus 256 KiB for generators, tile lists and the thread pool
    slack = threads * TILE_ROWS * TILE_COLS * 8 + 2**18
    tracemalloc.start()
    try:
        x = draw_design((3,), rows, d, ensemble)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the design lives in its own mapping, which tracemalloc does not see
    assert x.nbytes >= core._MAPPED_BYTES
    assert peak <= threads * group_buffer + slack


@pytest.mark.parametrize("ensemble", [Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED])
def test_a_design_of_mapped_size_has_its_own_mapping(ensemble):
    d = 2 * TILE_COLS + 3
    rows = -(-core._MAPPED_BYTES // (8 * d))
    below = draw_design((5,), rows - 1, d, ensemble, [4])
    x = draw_design((5,), rows, d, ensemble, [4])
    assert below.flags.owndata and isinstance(x.base.base.obj, mmap.mmap)
    assert is_design(x, (rows, d))
    assert x.tobytes() == tiled_reference((5,), rows, d, ensemble, [4]).tobytes()


@pytest.mark.parametrize("masked, index", [([-1], -1), ([25], 25), ([3, 20, 4], 20)])
def test_draw_rejects_a_mask_index_outside_the_columns(masked, index):
    with pytest.raises(ValueError, match=rf"mask index {index} is out of range for d=20"):
        draw_design((1,), 10, 20, Ensemble.GAUSSIAN_SCALED, masked)


def test_blas_workers_are_released_before_a_draw_of_several_tiles(monkeypatch):
    calls = []
    blas = SimpleNamespace(blas_thread_shutdown_=lambda: calls.append(1))
    monkeypatch.setattr(core, "_openblas", lambda: blas)
    draw_design((1,), TILE_ROWS, TILE_COLS, Ensemble.GAUSSIAN_SCALED)
    assert len(calls) == 0
    draw_design((1,), TILE_ROWS + 1, TILE_COLS, Ensemble.GAUSSIAN_SCALED)
    draw_design((1,), 3, TILE_COLS + 1, Ensemble.GAUSSIAN_SCALED)
    assert len(calls) == 2


def test_blas_workers_are_kept_while_another_python_thread_runs(monkeypatch):
    # that thread could be inside BLAS, whose workers must then stay
    calls = []
    blas = SimpleNamespace(blas_thread_shutdown_=lambda: calls.append(1))
    monkeypatch.setattr(core, "_openblas", lambda: blas)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        kept = draw_design((3,), TILED_ROWS, TILED_D, Ensemble.GAUSSIAN_SCALED)
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert len(calls) == 0
    assert kept.tobytes() == draw_design((3,), TILED_ROWS, TILED_D, Ensemble.GAUSSIAN_SCALED).tobytes()
    assert len(calls) == 1


@pytest.mark.parametrize("ensemble", [Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED])
def test_draw_without_the_release_has_the_same_bytes(monkeypatch, ensemble):
    released = draw_design((4,), TILED_ROWS, TILED_D, ensemble)
    monkeypatch.setattr(core, "_openblas", lambda: None)
    assert draw_design((4,), TILED_ROWS, TILED_D, ensemble).tobytes() == released.tobytes()


def test_release_keeps_the_blas_thread_count():
    blas = core._openblas()
    if blas is None or not hasattr(blas, "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy is not linked to scipy-openblas")
    threads = blas.scipy_openblas_get_num_threads64_
    a = np.ones((300, 300))
    before = threads()
    _ = a @ a  # starts the BLAS workers, which the draw then releases
    draw_design((2,), TILED_ROWS, TILED_D, Ensemble.GAUSSIAN_SCALED)
    assert threads() == before
    np.testing.assert_array_equal(a @ a, np.full((300, 300), 300.0))
    assert threads() == before


@pytest.mark.parametrize("ensemble", [Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED])
@pytest.mark.parametrize("n_short", [700, TILE_ROWS + 77])
def test_first_rows_of_a_draw_are_the_shorter_draw(ensemble, n_short):
    n_long, d = 2 * TILE_ROWS + 300, 21
    long = sample_ensemble(Dims(n=n_long, d=d, k=1), ensemble, seed=5)
    short = sample_ensemble(Dims(n=n_short, d=d, k=1), ensemble, seed=5)
    # equal before the 1/sqrt(rows) scaling, up to the rounding of undoing it
    np.testing.assert_allclose(long[:n_short] * math.sqrt(n_long), short * math.sqrt(n_short), rtol=1e-15, atol=0)


def test_tile_keys_do_not_alias_the_signal_stream():
    # a SeedSequence ignores trailing zeros, so an untagged tile key
    # (seed, 1, 0) would be rng_from(seed, 1), the harness's signal stream
    seed = 7
    assert rng_from(seed, 1, 0).standard_normal(4).tobytes() == rng_from(seed, 1).standard_normal(4).tobytes()
    n = TILE_ROWS + 4
    x = sample_ensemble(Dims(n=n, d=TILE_COLS, k=1), Ensemble.GAUSSIAN_SCALED, seed)
    alias = rng_from(seed, 1).standard_normal((4, TILE_COLS)) / np.sqrt(n)
    assert not np.any(np.isclose(x[TILE_ROWS:], alias, rtol=1e-12, atol=0))


def test_sample_ensemble_rejects_explicit():
    with pytest.raises(ValueError):
        sample_ensemble(Dims(n=2, d=2, k=1), "explicit", seed=0)


def test_gaussian_noise_is_deterministic():
    noise = gaussian_noise(50, 2.0, 4)
    assert noise.dtype == np.float64 and noise.shape == (50,) and noise.flags.c_contiguous
    assert noise.tobytes() == gaussian_noise(50, 2.0, 4).tobytes()
    assert noise.tobytes() == (rng_from(4).standard_normal(50) * 2.0).tobytes()
    # the key may have several words, as the masked oracle's (master_seed, query) does
    assert gaussian_noise(8, 1.0, 4, 3).tobytes() == rng_from(4, 3).standard_normal(8).tobytes()


def test_build_instance_identity_design():
    x = np.eye(2)
    truth = np.array([1.0, 0.0])
    inst = build_instance(x, truth, np.zeros(2), 1)
    assert np.array_equal(inst.y, [1.0, 0.0])


def test_build_instance_zero_noise_exact(rng):
    x = rng.standard_normal((6, 4))
    truth = np.array([0.0, 1.5, 0.0, -2.0])
    inst = build_instance(x, truth, np.zeros(6), 2)
    assert np.array_equal(inst.y, x @ truth)


def test_build_instance_pure_noise():
    x = np.eye(3)
    truth = np.zeros(3)
    e1 = np.array([1.0, 0.0, 0.0])
    inst = build_instance(x, truth, e1, 1)
    assert np.array_equal(inst.y, e1)


def test_build_instance_shape_mismatch():
    x = np.eye(3)
    with pytest.raises(ValueError):
        build_instance(x, np.zeros(4), np.zeros(3), 1)
    with pytest.raises(ValueError):
        build_instance(x, np.zeros(3), np.zeros(4), 1)


def test_recovery_instance_residual_check(rng):
    x = rng.standard_normal((5, 3))
    truth = np.array([1.0, 0.0, 0.0])
    y_bad = x @ truth + 1e-3
    with pytest.raises(ValueError):
        RecoveryInstance(x=x, y=y_bad, truth=truth, noise=np.zeros(5), budget=1)


def test_recovery_instance_rejects_nan_observation():
    x = np.eye(3)
    truth = np.zeros(3)
    with pytest.raises(ValueError):
        RecoveryInstance(x=x, y=np.array([np.nan, 0.0, 0.0]), truth=truth, noise=np.zeros(3), budget=1)


def test_load_instance_rejects_nan_observation(tmp_path):
    x = np.eye(3)
    inst = build_instance(x, np.zeros(3), np.zeros(3), 1)
    mp = tmp_path / "m.bin"
    save_matrix(x, mp)
    ip = tmp_path / "inst.json"
    save_instance(inst, ip, mp)
    doc = json.loads(ip.read_text())
    doc["y"][0] = float("nan")
    ip.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="observation"):
        load_instance(ip)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_seed_determinism_property(n, d, seed):
    dims = Dims(n=n, d=d, k=1)
    a = sample_ensemble(dims, Ensemble.GAUSSIAN_SCALED, seed)
    b = sample_ensemble(dims, Ensemble.GAUSSIAN_SCALED, seed)
    assert np.array_equal(a, b)


def test_matrix_file_roundtrip(tmp_path, rng):
    m = rng.standard_normal((7, 5))
    p = tmp_path / "m.bin"
    save_matrix(m, p)
    back = load_matrix(p)
    assert np.array_equal(back, m)
    # identical content twice -> identical bytes (content addressable)
    p2 = tmp_path / "m2.bin"
    save_matrix(m, p2)
    assert p.read_bytes() == p2.read_bytes()
    assert matrix_sha256(p) == matrix_sha256(p2)


def test_addressed_save_keeps_an_existing_file(tmp_path, rng):
    m = rng.standard_normal((7, 5))
    first = save_matrix_addressed(m, tmp_path)
    inode = first.stat().st_ino
    again = save_matrix_addressed(m, tmp_path)
    assert again == first
    assert again.stat().st_ino == inode  # not renamed over
    assert sorted(p.name for p in tmp_path.iterdir()) == [first.name]
    assert np.array_equal(load_matrix(again), m)


@pytest.mark.parametrize("ensemble", [Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED])
def test_producers_return_c_ordered_float64_arrays(tmp_path, ensemble):
    x = sample_ensemble(Dims(n=9, d=4, k=1), ensemble, seed=1)
    assert is_design(x, (9, 4))
    save_matrix(x, tmp_path / "m.bin")
    assert is_design(load_matrix(tmp_path / "m.bin"), (9, 4))


def test_writers_take_a_plain_array_bit_for_bit(tmp_path, rng):
    x = rng.standard_normal((7, 5))
    save_matrix(x, tmp_path / "m.bin")
    assert load_matrix(tmp_path / "m.bin").tobytes() == x.tobytes()
    # the file is row-major whatever the memory order of the array
    save_matrix(np.asfortranarray(x), tmp_path / "f.bin")
    assert (tmp_path / "f.bin").read_bytes() == (tmp_path / "m.bin").read_bytes()

    out = tmp_path / "addressed"
    out.mkdir()
    mp = save_matrix_addressed(x, out)
    assert load_matrix(mp).tobytes() == x.tobytes()
    truth = np.array([0.0, 2.0, 0.0, 0.0, -1.0])
    inst = build_instance(x, truth, gaussian_noise(7, 0.1, 3), 2)
    assert inst.x is x
    save_instance(inst, out / "inst.json", mp)
    back = load_instance(out / "inst.json")
    assert back.x.tobytes() == x.tobytes()
    assert back.y.tobytes() == inst.y.tobytes()


def test_save_matrix_rejects_a_non_2d_array_before_writing(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        save_matrix(np.zeros(3), tmp_path / "m.bin")
    with pytest.raises(ValueError, match="2-D"):
        save_matrix_addressed(np.zeros((2, 2, 2)), tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_matrix_file_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTAMATRIX")
    with pytest.raises(ValueError):
        load_matrix(p)


@pytest.mark.parametrize(
    "raw, message",
    [
        (MATRIX_MAGIC + b"\x01\x00", "truncated header"),
        (MATRIX_MAGIC + struct.pack("<II", 1, 2) + np.array([0.0, np.nan]).tobytes(), "non-finite"),
        (MATRIX_MAGIC + struct.pack("<II", 1, 1) + np.array([-np.inf]).tobytes(), "non-finite"),
    ],
)
def test_matrix_file_malformed_or_non_finite(tmp_path, raw, message):
    p = tmp_path / "m.bin"
    p.write_bytes(raw)
    with pytest.raises(ValueError, match=message):
        load_matrix(p)


def _matrix_file_bytes(data) -> bytes:
    """Arbitrary bytes, or a well-formed header over any float64 payload, possibly cut short."""
    n, d = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    payload = data.draw(arrays(np.float64, n * d, elements=st.floats(allow_nan=True, allow_infinity=True)))
    raw = MATRIX_MAGIC + struct.pack("<II", n, d) + payload.astype("<f8").tobytes()
    return data.draw(
        st.one_of(
            st.binary(max_size=40),
            st.binary(max_size=40).map(lambda tail: MATRIX_MAGIC + tail),
            st.integers(0, len(raw)).map(lambda cut: raw[:cut]),
            st.just(raw),
        )
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_matrix_returns_a_finite_array_or_raises_value_error(tmp_path_factory, data):
    p = tmp_path_factory.getbasetemp() / "fuzzed-matrix.bin"
    p.unlink(missing_ok=True)  # writing over a file flushes it on ext4, about 90 ms per example
    p.write_bytes(_matrix_file_bytes(data))
    try:
        x = load_matrix(p)
    except ValueError:
        return
    assert x.dtype == np.float64 and x.ndim == 2
    assert np.all(np.isfinite(x))


def _saved_instance(out_dir):
    """Path of a small saved instance and its JSON document."""
    x = sample_ensemble(Dims(n=6, d=5, k=2), Ensemble.GAUSSIAN_SCALED, seed=4)
    truth = np.array([0.0, 1.5, 0.0, -2.0, 0.0])
    inst = build_instance(x, truth, gaussian_noise(6, 0.1, 5), 2)
    path = out_dir / "inst.json"
    save_instance(inst, path, save_matrix_addressed(x, out_dir))
    return path, json.loads(path.read_text())


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc.pop("y"), "missing field y"),
        (lambda doc: doc["y"].pop(), r"field y has shape \(5,\), expected \(6,\)"),
        (lambda doc: doc["truth"].__setitem__("budget", "2"), "field truth.budget has type str"),
        (lambda doc: doc["noise"].__setitem__("values", None), "field noise.values has type NoneType"),
        (lambda doc: doc["truth"].__setitem__("budget", 1), "nnz 2 exceeds budget 1"),
    ],
    ids=["no-y", "short-y", "str-budget", "null-noise-values", "budget-below-nnz"],
)
def test_load_instance_names_the_malformed_field(tmp_path, mutate, message):
    path, doc = _saved_instance(tmp_path)
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_instance(path)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_instance_returns_an_instance_or_raises_value_error(tmp_path_factory, data):
    out = tmp_path_factory.getbasetemp() / "fuzzed-instance"
    out.mkdir(exist_ok=True)
    path, doc = _saved_instance(out)
    path.unlink()  # writing over a file flushes it on ext4, about 90 ms per example
    path.write_text(json.dumps(mutated_json(data, doc)))
    try:
        inst = load_instance(path)
    except ValueError:
        return
    assert is_design(inst.x, (6, 5))
    assert inst.y.shape == (6,) and inst.truth.shape == (5,) and inst.noise.shape == (6,)


def test_instance_roundtrip_and_hash_check(tmp_path):
    dims = Dims(n=10, d=6, k=2)
    x = sample_ensemble(dims, Ensemble.GAUSSIAN_SCALED, seed=8)
    truth = np.eye(6)[0] * 2.0
    noise = gaussian_noise(10, 0.1, 9)
    inst = build_instance(x, truth, noise, 2)
    mp = tmp_path / "m.bin"
    save_matrix(x, mp)
    ip = tmp_path / "inst.json"
    save_instance(inst, ip, mp)
    back = load_instance(ip)
    assert np.array_equal(back.y, inst.y)
    assert np.array_equal(back.truth, truth)
    assert np.array_equal(back.noise, noise)
    # corrupt the matrix: hash check must fire
    mp.write_bytes(mp.read_bytes()[:-1] + b"\x00")
    with pytest.raises(ValueError):
        load_instance(ip)
    assert json.loads(ip.read_text())["format"] == INSTANCE_FORMATS[-1] == "linfrec-instance-v2"


def test_v1_instance_loads_and_its_tags_are_ignored(tmp_path):
    x = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    mp = tmp_path / "m.bin"
    save_matrix(x, mp)
    v1 = {
        "format": "linfrec-instance-v1",
        "model": "oblivious",
        "matrix": {"file": "m.bin", "sha256": matrix_sha256(mp)},
        "y": [1.5, -1.75, 0.5],
        "truth": {"values": [1.0, -1.0], "budget": 2},
        "noise": {"values": [0.5, 0.25, 0.5], "kind": "isotropic_gaussian", "sigma": 0.5},
    }
    (tmp_path / "v1.json").write_text(json.dumps(v1))
    back = load_instance(tmp_path / "v1.json")
    want = build_instance(x, np.array([1.0, -1.0]), np.array([0.5, 0.25, 0.5]), 2)
    save_instance(want, tmp_path / "v2.json", mp)
    for inst in (back, load_instance(tmp_path / "v2.json")):
        assert inst.x.tobytes() == x.tobytes()
        assert inst.y.tobytes() == want.y.tobytes()
        assert inst.truth.tobytes() == want.truth.tobytes() and inst.budget == 2
        assert inst.noise.tobytes() == want.noise.tobytes()
    # v2 is v1 without the three tags
    v2 = json.loads((tmp_path / "v2.json").read_text())
    assert set(v1) - set(v2) == {"model"} and set(v1["noise"]) - set(v2["noise"]) == {"kind", "sigma"}
