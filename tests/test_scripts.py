"""Smoke tests of scripts/: each script is loaded by path and runs one cheap path."""

import importlib.util
import json
from pathlib import Path

from linfrec.harness import ExperimentConfig, ExperimentKind

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certify_curve_measures_one_point():
    point = load_script("certify_curve").measure(64, 1)
    assert point["d"] == 64
    witness = point["witness"]
    assert len(witness) == 20 and witness == sorted(set(witness))
    assert all(type(i) is int and 0 <= i < 64 for i in witness)
    assert point["verdict"] in ("holds", "fails")
    json.dumps(point)


def test_calibrate_constants_runs_the_metric_chain(capsys):
    load_script("calibrate_constants").calibrate_metric_chain(2, 1)
    out = capsys.readouterr().out
    assert "chain upper A needed: p95=" in out
    assert "chain lower a needed: p05=" in out


def test_reference_experiments_build_valid_configs():
    cfgs = load_script("run_reference_experiments").configs(2, 7)
    assert [c.kind for c in cfgs] == [
        ExperimentKind.OBLIVIOUS_RECOVERY,
        ExperimentKind.ADAPTIVE_RECOVERY,
        ExperimentKind.SEPARATION,
        ExperimentKind.PARTIAL_ADAPTIVE,
    ]
    for cfg in cfgs:
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.trials == 2


def test_iht_cost_times_each_iteration_count():
    cost = load_script("iht_cost")
    for shape in cost.SHAPES:
        result = cost.measure(shape, 90, 30, 3, counts=(1, 2), repeats=2)
        assert result["rows"] == 30 and result["gain"] in (1.0, 3.0)
        assert [p["iterations"] for p in result["points"]] == [1, 2]
        assert all(p["median_s"] > 0 and p["support"] <= 3 for p in result["points"])
        json.dumps(result)
