import csv
import math

import numpy as np
import pytest

from linfrec import harness
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


def test_config_json_roundtrip():
    cfg = tiny_config(ExperimentKind.OBLIVIOUS_RECOVERY)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back.kind is cfg.kind
    assert back.grid == cfg.grid
    assert back.master_seed == cfg.master_seed


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


def test_write_csv_replaces_existing_file(tmp_path):
    records, _ = run_experiment(tiny_config(ExperimentKind.THRESHOLD_STATS, grid=[{"n": 300, "d": 60, "k": 4}]))
    path = tmp_path / "r.csv"
    path.write_text("stale contents that are longer than nothing\n" * 200)
    write_csv(records, path)
    fresh = tmp_path / "fresh.csv"
    write_csv(records, fresh)
    assert path.read_bytes() == fresh.read_bytes()
    assert len(read_csv(path)) == len(records)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "r.csv"]


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(ValueError):
        read_csv(path)


@pytest.mark.parametrize(
    "kind,grid,algorithm",
    [
        (ExperimentKind.OBLIVIOUS_RECOVERY, {"n": 240, "d": 40, "k": 3}, {}),
        (ExperimentKind.ADAPTIVE_RECOVERY, {"n": 200, "d": 40, "k": 4}, {}),
        (ExperimentKind.SEPARATION, {"n": 60, "d": 300, "k": 16}, {}),
        (ExperimentKind.LINF_RIP_SWEEP, {"n": 300, "d": 30, "k": 4}, {"epsilon": 0.6}),
        (ExperimentKind.METRIC_EQUIVALENCE, {"n": 200, "d": 400, "k": 5}, {}),
        (ExperimentKind.THRESHOLD_STATS, {"n": 300, "d": 60, "k": 4}, {}),
        (
            ExperimentKind.PARTIAL_ADAPTIVE,
            {"n": 900, "d": 100, "k": 4},
            {"rounds": 2},
        ),
    ],
)
def test_pass_flags_recomputable(kind, grid, algorithm):
    cfg = tiny_config(kind, grid=[grid], algorithm=algorithm, trials=2, noise={"kind": "gaussian", "sigma": 0.1})
    records, _ = run_experiment(cfg)
    for rec in records:
        assert rec.passed == recompute_pass(rec)


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
    monkeypatch.setitem(harness._KINDS, kind, (broken, harness._KINDS[kind][1]))
    monkeypatch.delenv("LINFREC_THREADS", raising=False)
    with pytest.raises(KeyError):
        run_experiment(tiny_config(kind, trials=1))


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


def test_summary_medians_match_recount():
    cfg = tiny_config(ExperimentKind.OBLIVIOUS_RECOVERY, trials=5)
    records, summary = run_experiment(cfg)
    manual = float(np.median([r.error for r in records]))
    assert summary["grids"][0]["median_error"] == pytest.approx(manual)
    assert summary["grids"][0]["passes"] == sum(r.passed for r in records)
