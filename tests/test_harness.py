import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from linfrec import core, harness
from linfrec.core import (
    Dims,
    Ensemble,
    SparseVector,
    build_instance,
    gaussian_noise,
    load_instance,
    load_matrix,
    sample_ensemble,
    save_instance,
    save_matrix,
    save_matrix_addressed,
)
from linfrec.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentKind,
    TrialRecord,
    derive_seed,
    read_csv,
    recompute_pass,
    run_experiment,
    summarize,
    write_csv,
)


def tiny_config(kind, **overrides):
    base = dict(
        kind=kind,
        grid=[{"n": 240, "d": 40, "k": 3}],
        trials=3,
        master_seed=99,
        noise={"kind": "gaussian", "sigma": 0.05},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(ExperimentKind.OBLIVIOUS_RECOVERY, grid=[])
    with pytest.raises(ValueError):
        tiny_config(ExperimentKind.OBLIVIOUS_RECOVERY, trials=0)


def test_derive_seed_is_stable_and_keyed():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert derive_seed(1, 2, 3) != derive_seed(2, 2, 3)


def test_noiseless_trivial_run_passes():
    cfg = tiny_config(
        ExperimentKind.OBLIVIOUS_RECOVERY,
        trials=1,
        noise={"kind": "zero"},
        grid=[{"n": 300, "d": 10, "k": 2}],
    )
    records, summary = run_experiment(cfg)
    assert records[0].passed
    assert records[0].error <= 1e-10
    assert summary["grids"][0]["pass_rate"] == 1.0


def test_rerun_same_seed_identical_csv(tmp_path):
    cfg = tiny_config(ExperimentKind.OBLIVIOUS_RECOVERY)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    records1, _ = run_experiment(cfg)
    write_csv(records1, p1)
    records2, _ = run_experiment(cfg)
    write_csv(records2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_roundtrip(tmp_path):
    cfg = tiny_config(ExperimentKind.THRESHOLD_STATS, grid=[{"n": 300, "d": 60, "k": 4}])
    records, _ = run_experiment(cfg)
    path = tmp_path / "r.csv"
    write_csv(records, path)
    back = read_csv(path)
    assert len(back) == len(records)
    for a, b in zip(back, records):
        assert (a.experiment, a.grid_index, a.trial, a.seed) == (
            b.experiment,
            b.grid_index,
            b.trial,
            b.seed,
        )
        assert a.passed == b.passed
        assert a.error == pytest.approx(b.error)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == CSV_COLUMNS


def _writer_case(writer, tmp_path):
    """(write, read, module looked up for replace_file) for one of the file writers."""
    if writer == "write_csv":
        records, _ = run_experiment(tiny_config(ExperimentKind.THRESHOLD_STATS, grid=[{"n": 300, "d": 60, "k": 4}]))
        return (lambda p: write_csv(records, p)), (lambda p: len(read_csv(p)) == len(records)), harness
    x = sample_ensemble(Dims(n=6, d=5, k=2), Ensemble.GAUSSIAN_SCALED, seed=4)
    if writer == "save_matrix":
        return (lambda p: save_matrix(x, p)), (lambda p: np.array_equal(load_matrix(p), x)), core
    inst = build_instance(x, SparseVector.zeros(5, 2), gaussian_noise(6, 0.1, 5))
    matrix = save_matrix_addressed(x, tmp_path)
    return (
        (lambda p: save_instance(inst, p, matrix)),
        (lambda p: np.array_equal(load_instance(p).y, inst.y)),
        core,
    )


@pytest.mark.parametrize("writer", ["write_csv", "save_matrix", "save_instance"])
def test_writer_replaces_existing_file(tmp_path, monkeypatch, writer):
    write, read, module = _writer_case(writer, tmp_path)
    path = tmp_path / "out"
    path.write_text("stale contents that are longer than nothing\n" * 200)
    write(path)
    fresh = tmp_path / "fresh"
    write(fresh)
    assert path.read_bytes() == fresh.read_bytes()
    assert read(path)
    assert list(tmp_path.glob("*.tmp")) == []

    # a write that raises partway keeps the old file and leaves no temp file
    old = path.read_bytes()
    real = core.replace_file

    def first_chunk_then_fail(target, chunks):
        def broken():
            yield next(iter(chunks))
            raise OSError("disk full")

        real(target, broken())

    monkeypatch.setattr(module, "replace_file", first_chunk_then_fail)
    with pytest.raises(OSError, match="disk full"):
        write(path)
    assert path.read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(ValueError):
        read_csv(path)


# one small run of every kind, and of both metric_equivalence modes
TINY_RUNS = [
    (ExperimentKind.OBLIVIOUS_RECOVERY, {"n": 240, "d": 40, "k": 3}, {}),
    (ExperimentKind.ADAPTIVE_RECOVERY, {"n": 200, "d": 40, "k": 4}, {}),
    (ExperimentKind.SEPARATION, {"n": 60, "d": 300, "k": 16}, {}),
    (ExperimentKind.LINF_RIP_SWEEP, {"n": 300, "d": 30, "k": 4}, {"epsilon": 0.6}),
    (ExperimentKind.METRIC_EQUIVALENCE, {"n": 200, "d": 400, "k": 5}, {}),
    (ExperimentKind.THRESHOLD_STATS, {"n": 300, "d": 60, "k": 4}, {}),
    (ExperimentKind.PARTIAL_ADAPTIVE, {"n": 900, "d": 100, "k": 4}, {"rounds": 2}),
    (ExperimentKind.METRIC_EQUIVALENCE, {"n": 200, "d": 100, "k": 5}, {"mode": "impossibility"}),
]


@pytest.mark.parametrize("kind,grid,algorithm", TINY_RUNS)
def test_pass_flags_recomputable(kind, grid, algorithm):
    cfg = tiny_config(kind, grid=[grid], algorithm=algorithm, trials=2, noise={"kind": "gaussian", "sigma": 0.1})
    records, _ = run_experiment(cfg)
    for rec in records:
        assert rec.passed == recompute_pass(rec)


class RecordingDict(dict):
    """A dict that records every key it is asked for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = set()

    def get(self, key, default=None):
        self.asked.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.asked.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.asked.add(key)
        return super().__contains__(key)


@pytest.mark.parametrize("kind,grid,algorithm", TINY_RUNS)
def test_trials_read_exactly_their_declared_algorithm_keys(kind, grid, algorithm):
    cfg = tiny_config(kind, grid=[grid], algorithm=algorithm, trials=1, noise={"kind": "gaussian", "sigma": 0.1})
    cfg.algorithm = RecordingDict(cfg.algorithm)
    rec = harness._run_one(cfg, 0, 0)
    assert "failed" not in rec.extra
    # a key read but not declared would be rejected from a config; one declared but unread is a dead knob
    assert cfg.algorithm.asked == harness._KINDS[kind][2]


def test_adaptive_pass_flag_recomputable_within_bound_slack():
    # the adaptive kind accepts its bound up to roundoff slack; a record the trial
    # wrote as passed on that slack must recompute as passed from the row
    rec = TrialRecord(
        experiment=ExperimentKind.ADAPTIVE_RECOVERY.value,
        grid_index=0, n=200, d=40, k=4, trial=0, seed=0,
        error=1.0 + 5e-13, error_l2=None, metric_sigma=None, bound=1.0, passed=True,
    )
    assert recompute_pass(rec) == rec.passed


def test_partial_adaptive_budget_honesty():
    cfg = tiny_config(
        ExperimentKind.PARTIAL_ADAPTIVE,
        grid=[{"n": 903, "d": 100, "k": 4}],
        trials=2,
        noise={"kind": "gaussian", "sigma": 0.1},
        algorithm={"rounds": 2},
    )
    records, _ = run_experiment(cfg)
    for rec in records:
        assert rec.extra["rows_consumed"] == 903.0


def test_failures_recorded_not_fatal():
    # a zero threshold floods the masked-query support past its cap; the
    # resulting error is recorded per trial rather than aborting the run
    cfg = tiny_config(
        ExperimentKind.PARTIAL_ADAPTIVE,
        grid=[{"n": 900, "d": 400, "k": 4}],
        trials=2,
        noise={"kind": "gaussian", "sigma": 0.1},
        algorithm={"rounds": 2, "r_inf": 0.0},
    )
    records, _ = run_experiment(cfg)
    assert len(records) == 2
    for rec in records:
        assert rec.extra["failure"] == "SupportBlowupError"
        assert rec.passed is False and rec.error is None


def test_unexpected_errors_propagate(monkeypatch):
    # only domain failures are recorded per trial; a bug stops the run
    def broken(dims, cfg, seed):
        raise KeyError("not a domain failure")

    kind = ExperimentKind.OBLIVIOUS_RECOVERY
    monkeypatch.setitem(harness._KINDS, kind, (broken, *harness._KINDS[kind][1:]))
    monkeypatch.delenv("LINFREC_THREADS", raising=False)
    with pytest.raises(KeyError):
        run_experiment(tiny_config(kind, trials=1))


@pytest.mark.parametrize("threads", ["abc", "0", "-1"])
def test_threads_must_be_a_positive_integer(threads, tmp_path, monkeypatch):
    monkeypatch.setenv("LINFREC_THREADS", threads)
    cfg = tiny_config(ExperimentKind.OBLIVIOUS_RECOVERY, trials=1, output=str(tmp_path / "out.csv"))
    with pytest.raises(ValueError, match=f"LINFREC_THREADS must be a positive integer, got '{threads}'"):
        run_experiment(cfg)
    assert list(tmp_path.iterdir()) == []


def test_trial_clock_starts_before_the_seed_is_derived(monkeypatch):
    # a stall anywhere in _run_one counts in its wall time; only the trial
    # seed (master_seed, grid_index, trial) is slow, not the trial body's keys
    def slow_seed(*key):
        if key == (99, 0, 0):
            time.sleep(0.02)
        return derive_seed(*key)

    monkeypatch.setattr(harness, "derive_seed", slow_seed)
    monkeypatch.delenv("LINFREC_THREADS", raising=False)
    records, _ = run_experiment(tiny_config(ExperimentKind.LINF_RIP_SWEEP, trials=1, algorithm={"epsilon": 0.6}))
    assert records[0].wall_time_s >= 0.02


def test_separation_summary_records_both_regressions():
    cfg = ExperimentConfig(
        kind=ExperimentKind.SEPARATION,
        grid=[{"n": k * k // 16, "d": 300, "k": k} for k in (16, 32, 64)],
        trials=5,
        master_seed=5,
    )
    records, summary = run_experiment(cfg)
    ms = summary["masking_scaling"]
    assert ms["k"] == [16, 32, 64]
    assert ms["slope_vs_log_sqrt_k"] == pytest.approx(2.0 * ms["slope_vs_log_k"])


def test_parallel_execution_matches_serial(tmp_path, monkeypatch):
    cfg = tiny_config(ExperimentKind.OBLIVIOUS_RECOVERY, trials=4)
    serial, _ = run_experiment(cfg)
    monkeypatch.setenv("LINFREC_THREADS", "2")
    parallel, _ = run_experiment(cfg)
    p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
    write_csv(serial, p1)
    write_csv(parallel, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_pool_forked_after_threaded_draws_writes_the_serial_csv(tmp_path):
    # The parent draws on fill threads and leaves BLAS workers running, then
    # forks the pool.  A thread or lock carried over by fork would hang a
    # worker; the timeout turns that into a failure.
    doc = {
        "kind": "oblivious_recovery",
        "grid": [{"n": 240, "d": 40, "k": 3}],
        "trials": 4,
        "master_seed": 99,
        "noise": {"kind": "gaussian", "sigma": 0.05},
    }
    serial, _ = run_experiment(ExperimentConfig.from_json(json.dumps(doc)))
    write_csv(serial, tmp_path / "serial.csv")
    doc["output"] = str(tmp_path / "pool.csv")
    code = (
        "import json, os, sys, numpy as np\n"
        "from linfrec.core import Ensemble, draw_design\n"
        "from linfrec.harness import ExperimentConfig, run_experiment\n"
        "draw_design((1,), 3000, 400, Ensemble.GAUSSIAN_SCALED)\n"
        "np.ones((400, 400)) @ np.ones((400, 400))\n"
        "os.environ['LINFREC_THREADS'] = '2'\n"
        "run_experiment(ExperimentConfig.from_json(sys.argv[1]))\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code, json.dumps(doc)], env=env, timeout=120, check=True)
    assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_summary_medians_match_recount():
    cfg = tiny_config(ExperimentKind.OBLIVIOUS_RECOVERY, trials=5)
    records, summary = run_experiment(cfg)
    manual = float(np.median([r.error for r in records]))
    assert summary["grids"][0]["median_error"] == pytest.approx(manual)
    assert summary["grids"][0]["passes"] == sum(r.passed for r in records)


@pytest.mark.parametrize("threads,points,trials,workers", [("2", 1, 1, 1), ("8", 2, 1, 2), ("2", 1, 3, 2)])
def test_pool_has_no_more_workers_than_trials(threads, points, trials, workers, monkeypatch):
    made = []

    class InlinePool:
        """Records the pool it is asked for and maps in this process."""

        def __init__(self, max_workers, initializer, initargs):
            made.append((max_workers, initializer, initargs))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setenv("LINFREC_THREADS", threads)
    grid = [{"n": 240, "d": 40, "k": 3}] * points
    records, _ = run_experiment(tiny_config(ExperimentKind.OBLIVIOUS_RECOVERY, grid=grid, trials=trials))
    # one worker still runs in a pool, not in this process
    assert made == [(workers, core._share_cores, (workers,))]
    assert len(records) == points * trials
