import json
import math
import mmap
import os
import re
import struct
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
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
    INSTANCE_FORMAT,
    Ensemble,
    RecoveryInstance,
    build_instance,
    draw_tiles,
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
    """The whole design drawn serially, tile by tile from its own key, without draw_tiles."""
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


def assert_packed_reference(block, cols, key, rows, d, ensemble, masked=()):
    """``(block, cols)`` is the reference design's every tile with an unmasked column, packed; it is zero elsewhere."""
    want = tiled_reference(key, rows, d, ensemble, masked)
    held = np.unique(np.setdiff1d(np.arange(d), list(masked)) // TILE_COLS)
    assert np.array_equal(cols, np.flatnonzero(np.isin(np.arange(d) // TILE_COLS, held)))
    assert is_design(block, (rows, len(cols)))
    assert block.tobytes() == want[:, cols].tobytes()
    assert not np.any(np.delete(want, cols, axis=1))


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
    message = re.escape(f"key part must be a nonnegative integer, got {min(key)}")
    with pytest.raises(ValueError, match=message):
        core._tile_states(key, np.array([0]), np.array([0]))
    with pytest.raises(ValueError, match=message):
        draw_tiles(key, 10, 20, Ensemble.GAUSSIAN_SCALED)
    with pytest.raises(ValueError, match=message):
        rng_from(*key)


@pytest.mark.parametrize(
    "key", [(2.7,), (3, 2.0), (5, np.float64(1.5)), (4, True)], ids=["2.7", "2.0", "np-1.5", "True"]
)
def test_a_key_part_that_is_not_an_integer_is_rejected(key):
    # int() would read 2.7 as 2, so gaussian_noise(4, 1.0, 2.7) drew key (2,)'s noise
    message = re.escape(f"key part must be a nonnegative integer, got {key[-1]!r}")
    for draw in (
        lambda: rng_from(*key),
        lambda: gaussian_noise(4, 1.0, *key),
        lambda: core._tile_states(key, np.array([0]), np.array([0])),
        lambda: draw_tiles(key, 10, 20, Ensemble.GAUSSIAN_SCALED),
    ):
        with pytest.raises(ValueError, match=message):
            draw()


def test_an_integer_key_part_of_any_type_keeps_its_stream():
    # the key-part check returns int(part): numpy integers draw what Python ints draw
    want = rng_from(7, 2**40, 3).standard_normal(5).tobytes()
    assert rng_from(np.int64(7), np.uint64(2**40), np.int32(3)).standard_normal(5).tobytes() == want
    assert draw_tiles((np.uint32(7), 3), 10, 20, Ensemble.GAUSSIAN_SCALED)[0].tobytes() == (
        draw_tiles((7, 3), 10, 20, Ensemble.GAUSSIAN_SCALED)[0].tobytes()
    )


def test_seeding_unlike_numpys_is_refused(monkeypatch):
    core._check_seeding.cache_clear()
    monkeypatch.setattr(core, "_seed_states", lambda key, i, j: np.zeros((len(i), 4), dtype=np.uint64))
    try:
        with pytest.raises(RuntimeError, match="seeds SFC64 unlike"):
            draw_tiles((1,), 10, 20, Ensemble.GAUSSIAN_SCALED)
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
        block, cols = draw_tiles((7, 3), TILED_ROWS, TILED_D, ensemble, np.asarray(masked, dtype=np.int64))
    finally:
        sys.setswitchinterval(interval)
    assert len(bands) == min(cores, tiles)
    assert bands.count(threading.current_thread()) == 1
    assert_packed_reference(block, cols, (7, 3), TILED_ROWS, TILED_D, ensemble, masked)


def test_fill_threads_are_shared_among_pool_workers(monkeypatch, bands):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setattr(core, "_workers", 2)
    draw_tiles((1,), 50, 5 * TILE_COLS, Ensemble.GAUSSIAN_SCALED)
    assert len(bands) == 2


def test_fill_threads_without_an_affinity_mask_count_the_machine(monkeypatch, bands):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    block, cols = draw_tiles((5,), TILED_ROWS, TILED_D, Ensemble.RADEMACHER_SCALED)
    assert len(bands) == 2
    assert_packed_reference(block, cols, (5,), TILED_ROWS, TILED_D, Ensemble.RADEMACHER_SCALED)


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
    block, cols = draw_tiles((9, 2), TILED_ROWS, GROUPED_D, ensemble, np.asarray(masked, dtype=np.int64))
    assert_packed_reference(block, cols, (9, 2), TILED_ROWS, GROUPED_D, ensemble, masked)


@st.composite
def fill_cases(draw):
    """A design shape and a mask: a span of masked tiles, a few scattered ones and a few columns."""
    rows = draw(st.integers(1, TILE_ROWS + 40))
    d = draw(st.integers(1, (2 * GROUP + 3) * TILE_COLS + TILE_COLS - 1))
    tiles = math.ceil(d / TILE_COLS)
    span = sorted(draw(st.tuples(st.integers(0, tiles), st.integers(0, tiles))))
    whole = set(range(*span)) | draw(st.sets(st.integers(0, tiles - 1), max_size=4))
    masked = {c for t in whole for c in range(t * TILE_COLS, min(d, (t + 1) * TILE_COLS))}
    masked |= draw(st.sets(st.integers(0, d - 1), max_size=6))
    return rows, d, sorted(masked)


@settings(max_examples=150, deadline=None)
@given(
    case=fill_cases(),
    cores=st.integers(1, 3),
    ensemble=st.sampled_from([Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED]),
)
def test_every_run_of_tiles_is_filled_as_the_serial_tiles(case, cores, ensemble):
    # runs end at a masked tile, after GROUP tiles, before a narrow last tile and at a band's end
    rows, d, masked = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        block, cols = draw_tiles((6, 1), rows, d, ensemble, np.asarray(masked, dtype=np.int64))
    assert_packed_reference(block, cols, (6, 1), rows, d, ensemble, masked)


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
        x, _ = draw_tiles((3,), rows, d, ensemble)
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
    below, _ = draw_tiles((5,), rows - 1, d, ensemble, [4])
    x, _ = draw_tiles((5,), rows, d, ensemble, [4])
    assert below.flags.owndata and isinstance(x.base.base.obj, mmap.mmap)
    assert is_design(x, (rows, d))
    assert x.tobytes() == tiled_reference((5,), rows, d, ensemble, [4]).tobytes()


def _pages(x):
    """The mapping a design of mapped size lives in."""
    return x.base.base.obj


@pytest.fixture
def empty_slot():
    """No spare mapping before or after the test."""
    core._swap_spare(None)
    yield
    core._swap_spare(None)


@pytest.mark.parametrize("ensemble", [Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED])
def test_the_next_draw_of_a_freed_designs_size_takes_its_mapping(empty_slot, ensemble):
    x, _ = draw_tiles((1,), TILED_ROWS, TILED_D, ensemble)
    pages = _pages(x)
    x[...] = np.nan  # no byte of the freed design may show in the next one
    del x
    assert core._spare is pages
    y, _ = draw_tiles((2,), TILED_ROWS, TILED_D, ensemble, [4])
    assert _pages(y) is pages and core._spare is None
    assert y.tobytes() == tiled_reference((2,), TILED_ROWS, TILED_D, ensemble, [4]).tobytes()


def test_a_held_design_is_never_handed_out_again(empty_slot):
    ensemble = Ensemble.GAUSSIAN_SCALED
    first, _ = draw_tiles((1,), TILED_ROWS, TILED_D, ensemble)
    del first
    held, _ = draw_tiles((2,), TILED_ROWS, TILED_D, ensemble)  # takes the spare
    view = held[:, 3:]  # a view holds the design as well
    pages = _pages(held)
    del held
    assert core._spare is None
    again, _ = draw_tiles((3,), TILED_ROWS, TILED_D, ensemble)
    assert _pages(again) is not pages
    assert view.tobytes() == tiled_reference((2,), TILED_ROWS, TILED_D, ensemble)[:, 3:].tobytes()
    assert again.tobytes() == tiled_reference((3,), TILED_ROWS, TILED_D, ensemble).tobytes()


def test_freeing_a_design_unmaps_the_spare_it_displaces(empty_slot):
    x, _ = draw_tiles((1,), TILED_ROWS, TILED_D, Ensemble.GAUSSIAN_SCALED)
    y, _ = draw_tiles((2,), TILED_ROWS, TILED_D, Ensemble.GAUSSIAN_SCALED)
    first, second = weakref.ref(_pages(x)), weakref.ref(_pages(y))
    del x
    assert core._spare is first()
    del y
    assert core._spare is second() and first() is None


def test_a_draw_of_another_size_unmaps_the_spare_first(monkeypatch, empty_slot):
    # so a spare and a new design never hold memory at once
    x, _ = draw_tiles((1,), TILED_ROWS, TILED_D, Ensemble.GAUSSIAN_SCALED)
    spare = weakref.ref(_pages(x))
    del x
    assert core._spare is spare()
    spare_at_map = []
    mapping = mmap.mmap

    def recording(*args, **kwargs):
        spare_at_map.append(spare())
        return mapping(*args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", recording)
    y, _ = draw_tiles((2,), TILED_ROWS + 1, TILED_D, Ensemble.GAUSSIAN_SCALED)
    assert spare_at_map == [None] and core._spare is None
    assert y.tobytes() == tiled_reference((2,), TILED_ROWS + 1, TILED_D, Ensemble.GAUSSIAN_SCALED).tobytes()


def test_a_pool_worker_drops_the_spare_it_inherits(monkeypatch, empty_slot):
    monkeypatch.setattr(core, "_workers", core._workers)  # restored after the test
    x, _ = draw_tiles((1,), TILED_ROWS, TILED_D, Ensemble.GAUSSIAN_SCALED)
    spare = weakref.ref(_pages(x))
    del x
    assert core._spare is spare()
    core._share_cores(2)
    assert core._spare is None and spare() is None


def test_threads_drawing_at_once_each_get_their_own_design(empty_slot):
    # two threads draw and free designs of two sizes, so each takes and
    # leaves spares while the other draws; every block must be its reference
    sizes = [TILED_ROWS, TILED_ROWS + 1]
    plan = [(t, r, sizes[(t + r // 2) % 2]) for t in range(2) for r in range(8)]
    want = {(t, r): tiled_reference((t, r), rows, TILED_D, Ensemble.GAUSSIAN_SCALED).tobytes() for t, r, rows in plan}
    start = threading.Barrier(2)

    def drawer(t):
        start.wait()
        wrong = []
        for _, r, rows in [step for step in plan if step[0] == t]:
            x, _ = draw_tiles((t, r), rows, TILED_D, Ensemble.GAUSSIAN_SCALED)
            if x.tobytes() != want[t, r]:
                wrong.append(r)
            x[...] = np.nan
            del x
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            assert list(pool.map(drawer, range(2))) == [[], []]
    finally:
        sys.setswitchinterval(interval)


# shapes above and below _MAPPED_BYTES; masking a whole tile narrows the block to another byte size
SLOT_SHAPES = [(40, TILED_D), (520, 2 * TILE_COLS + 1), (TILED_ROWS, TILED_D), (TILED_ROWS, 3 * TILE_COLS)]


@st.composite
def slot_steps(draw):
    """Draws in turn: a shape, a mask (a whole tile and a few columns), and what becomes of the design."""
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        rows, d = draw(st.sampled_from(SLOT_SHAPES))
        whole = draw(st.sets(st.integers(0, math.ceil(d / TILE_COLS) - 1), max_size=1))
        masked = {c for t in whole for c in range(t * TILE_COLS, min(d, (t + 1) * TILE_COLS))}
        masked |= draw(st.sets(st.integers(0, d - 1), max_size=3))
        steps.append((rows, d, sorted(masked), draw(st.sampled_from(["hold", "free", "free-oldest-held"]))))
    return steps


@settings(max_examples=40, deadline=None)
@given(steps=slot_steps(), ensemble=st.sampled_from([Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED]))
def test_any_sequence_of_draws_holds_and_frees_gets_every_design(steps, ensemble):
    core._swap_spare(None)
    held = []
    for key, (rows, d, masked, fate) in enumerate(steps):
        if fate == "free-oldest-held" and held:
            oldest = held.pop(0)[0]
            oldest[...] = np.nan
            del oldest
        block, cols = draw_tiles((key,), rows, d, ensemble, np.asarray(masked, dtype=np.int64))
        assert_packed_reference(block, cols, (key,), rows, d, ensemble, masked)
        if fate == "hold":
            held.append((block, cols, key, rows, d, masked))
        else:
            block[...] = np.nan
        del block
    for block, cols, key, rows, d, masked in held:
        assert_packed_reference(block, cols, (key,), rows, d, ensemble, masked)
    core._swap_spare(None)


@pytest.mark.parametrize("masked, index", [([-1], -1), ([25], 25), ([3, 20, 4], 20)])
def test_draw_rejects_a_mask_index_outside_the_columns(masked, index):
    with pytest.raises(ValueError, match=rf"mask index {index} is out of range for d=20"):
        draw_tiles((1,), 10, 20, Ensemble.GAUSSIAN_SCALED, masked)


def _column_3_selector():
    mask = np.zeros(20, dtype=bool)
    mask[3] = True
    return mask


@pytest.mark.parametrize(
    "masked, shown",
    [
        (_column_3_selector(), "bool of shape (20,)"),
        (np.ones(5, dtype=bool), "bool of shape (5,)"),
        (np.array([3.0]), "float64 of shape (1,)"),
        (np.array([[1, 2]]), "int64 of shape (1, 2)"),
        (np.array(["a"]), "<U1 of shape (1,)"),
        ([None], "object of shape (1,)"),
        (3, "int64 of shape ()"),
        (np.int64(3), "int64 of shape ()"),
        (np.empty((0, 2), dtype=np.int64), "int64 of shape (0, 2)"),
    ],
    ids=["bool-selector", "bool-short", "float", "2-D", "str", "none", "int", "np-int64", "2-D-empty"],
)
def test_draw_rejects_a_mask_that_is_not_an_integer_array(masked, shown):
    # a bool selector would zero column 3 while the oracle logs it as indices 0 and 1;
    # the shape and dtype are checked before the range, which a str or None mask cannot be compared in
    with pytest.raises(ValueError, match=re.escape(f"mask must be a 1-D integer array, got {shown}")):
        draw_tiles((1,), 10, 20, Ensemble.GAUSSIAN_SCALED, masked)


@pytest.mark.parametrize("masked", [None, [], np.asarray([]), np.empty(0, dtype=np.int64)], ids=repr)
def test_an_empty_mask_draws_every_column(masked):
    # np.asarray([]) is float64, and an empty mask of any dtype masks nothing
    x, cols = draw_tiles((1,), 10, 20, Ensemble.GAUSSIAN_SCALED, masked)
    assert np.array_equal(cols, np.arange(20))
    assert x.tobytes() == draw_tiles((1,), 10, 20, Ensemble.GAUSSIAN_SCALED)[0].tobytes()


def test_blas_workers_are_released_before_a_draw_of_several_tiles(monkeypatch):
    calls = []
    blas = SimpleNamespace(blas_thread_shutdown_=lambda: calls.append(1))
    monkeypatch.setattr(core, "_openblas", lambda: blas)
    draw_tiles((1,), TILE_ROWS, TILE_COLS, Ensemble.GAUSSIAN_SCALED)
    assert len(calls) == 0
    draw_tiles((1,), TILE_ROWS + 1, TILE_COLS, Ensemble.GAUSSIAN_SCALED)
    draw_tiles((1,), 3, TILE_COLS + 1, Ensemble.GAUSSIAN_SCALED)
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
        kept, _ = draw_tiles((3,), TILED_ROWS, TILED_D, Ensemble.GAUSSIAN_SCALED)
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert len(calls) == 0
    assert kept.tobytes() == draw_tiles((3,), TILED_ROWS, TILED_D, Ensemble.GAUSSIAN_SCALED)[0].tobytes()
    assert len(calls) == 1


@pytest.mark.parametrize("ensemble", [Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED])
def test_draw_without_the_release_has_the_same_bytes(monkeypatch, ensemble):
    released, _ = draw_tiles((4,), TILED_ROWS, TILED_D, ensemble)
    monkeypatch.setattr(core, "_openblas", lambda: None)
    assert draw_tiles((4,), TILED_ROWS, TILED_D, ensemble)[0].tobytes() == released.tobytes()


def test_release_keeps_the_blas_thread_count():
    blas = core._openblas()
    if blas is None or not hasattr(blas, "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy is not linked to scipy-openblas")
    threads = blas.scipy_openblas_get_num_threads64_
    a = np.ones((300, 300))
    before = threads()
    _ = a @ a  # starts the BLAS workers, which the draw then releases
    draw_tiles((2,), TILED_ROWS, TILED_D, Ensemble.GAUSSIAN_SCALED)
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
    with pytest.raises(ValueError, match="field y has non-finite entries"):
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
        (lambda doc: doc.__setitem__("format", "linfrec-instance-v1"), "not a linfrec instance file"),
    ],
    ids=["no-y", "short-y", "str-budget", "null-noise-values", "budget-below-nnz", "v1-format"],
)
def test_load_instance_names_the_malformed_field(tmp_path, mutate, message):
    path, doc = _saved_instance(tmp_path)
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_instance(path)


def test_load_instance_names_a_file_that_is_not_json(tmp_path):
    path, _ = _saved_instance(tmp_path)
    path.write_text("{")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not JSON: Expecting property name"):
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
    assert json.loads(ip.read_text())["format"] == INSTANCE_FORMAT == "linfrec-instance-v2"
