import csv
import hashlib
import json
import re

import numpy as np
import pytest

from linfrec.cli import main
from linfrec.core import Dims, Ensemble, gaussian_noise, load_instance, sample_ensemble, save_matrix
from linfrec.harness import CSV_COLUMNS, derive_seed, read_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_loadable_instance(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "gen", "--n", "30", "--d", "12", "--k", "3", "--seed", "5",
        "--sigma", "0.1", "--out-dir", str(tmp_path),
    )
    assert code == 0
    paths = json.loads(out)
    inst = load_instance(paths["instance"])
    assert inst.x.shape == (30, 12)
    assert np.count_nonzero(inst.truth) == 3
    assert np.all(np.abs(inst.truth[np.flatnonzero(inst.truth)]) == 1.0)


def test_gen_noise_has_its_own_stream(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "gen", "--n", "30", "--d", "12", "--k", "3", "--seed", "5",
        "--sigma", "0.1", "--out-dir", str(tmp_path),
    )
    assert code == 0
    noise = load_instance(json.loads(out)["instance"]).noise
    assert np.array_equal(noise, gaussian_noise(30, 0.1, derive_seed(5, 2)))
    # not the design of `gen --seed 7`, rescaled
    other = sample_ensemble(Dims(n=30, d=12, k=3), Ensemble.GAUSSIAN_SCALED, 7).ravel()[:30]
    assert not np.allclose(noise, 0.1 * np.sqrt(30) * other)


def test_certify_outputs_json_certificate(tmp_path, capsys):
    x = sample_ensemble(Dims(n=400, d=20, k=4), Ensemble.GAUSSIAN_SCALED, 3)
    mp = tmp_path / "m.bin"
    save_matrix(x, mp)
    code, out, _ = run_cli(
        capsys, "certify", str(mp), "--kind", "linf-rip", "--eps", "0.9", "--s", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "linf_rip"
    assert doc["exact"] is True
    assert doc["verdict"] in ("holds", "fails")

    code, out, _ = run_cli(capsys, "certify", str(mp), "--kind", "pi", "--alpha", "0.9")
    assert code == 0
    assert json.loads(out)["kind"] == "pairwise_incoherence"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kind", "l2-rip", "--eps", "0.5", "--s", "0"], "subset size must be at least 1"),
        (["--kind", "linf-rip", "--eps", "0.5", "--s", "-1"], "subset size must be at least 1"),
        (["--kind", "l2-rip", "--eps", "0.5", "--s", "2", "--mode", "sampled", "--trials", "0"],
         "trials must be at least 1, got 0"),
        (["--kind", "linf-rip", "--eps", "0.5", "--s", "2", "--mode", "sampled", "--trials", "-3"],
         "trials must be at least 1, got -3"),
        (["--kind", "l2-rip", "--eps", "nan", "--s", "2"], "epsilon must be a finite number, got nan"),
        (["--kind", "linf-rip", "--eps", "inf", "--s", "2"], "epsilon must be a finite number, got inf"),
        (["--kind", "pi", "--alpha", "nan"], "alpha must be a finite number, got nan"),
    ],
    ids=["l2-s0", "linf-s-1", "l2-trials0", "linf-trials-3", "l2-nan-eps", "linf-inf-eps", "pi-nan-alpha"],
)
def test_certify_rejects_values_it_cannot_certify(tmp_path, capsys, flags, message):
    mp = tmp_path / "m.bin"
    save_matrix(np.eye(5), mp)
    code, out, err = run_cli(capsys, "certify", str(mp), *flags)
    assert (code, out) == (1, "")
    assert err == f"linfrec: error: {message}\n"


def test_certify_missing_file_is_runtime_error(capsys):
    code, _, err = run_cli(capsys, "certify", "nope.bin", "--kind", "pi", "--alpha", "0.5")
    assert code == 1
    assert "error" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["certify"])  # missing required arguments
    assert exc_info.value.code == 2


@pytest.mark.parametrize(
    "flags, missing",
    [
        (["--kind", "pi"], "--alpha"),
        (["--kind", "linf-rip", "--s", "3"], "--eps"),
        (["--kind", "l2-rip", "--eps", "0.5"], "--s"),
    ],
)
def test_certify_missing_flag_is_usage_error(capsys, flags, missing):
    with pytest.raises(SystemExit) as exc_info:
        main(["certify", "m.bin", *flags])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert err.splitlines()[-1].endswith(f"requires {missing}")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "30", "--d", "12", "--k", "3"],
        ["adversarial", "--n", "40", "--d", "80", "--k", "6"],
        ["certify", "m.bin", "--kind", "pi", "--alpha", "0.5"],
    ],
    ids=["gen", "adversarial", "certify"],
)
def test_negative_seed_is_a_usage_error_naming_it(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main([*argv, "--seed", "-1"])
    assert exc_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("argument --seed: must be a nonnegative integer, got -1")


def test_sweep_is_an_unknown_command():
    with pytest.raises(SystemExit) as exc_info:
        main(["sweep", "cfg.json"])
    assert exc_info.value.code == 2


def test_run_unknown_config_key_is_reported(tmp_path, capsys):
    cfg = {"kind": "oblivious_recovery", "grid": [{"n": 240, "d": 30, "k": 3}], "trails": 1, "master_seed": 7}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "run", str(cfg_path))
    assert code == 1
    assert err.startswith("linfrec: error: unknown config keys: trails")


VALID = {"kind": "oblivious_recovery", "grid": [{"n": 240, "d": 30, "k": 3}], "trials": 1, "master_seed": 7}


@pytest.mark.parametrize(
    "cfg, message",
    [
        (
            {"kind": "oblivious_recovery", "grid": [{"n": 240, "d": 30, "k": 3}], "master_seed": 7},
            "missing config keys: trials",
        ),
        (
            {
                "kind": "oblivious_recovery",
                "grid": [{"n": 240, "d": 30, "k": 3}, {"n": 240, "d": 30}],
                "trials": 1,
                "master_seed": 7,
            },
            "grid point 1 lacks k",
        ),
        ([{"kind": "oblivious_recovery"}], "config is not an object"),
        (dict(VALID, grid=[5]), "grid point 0 is not an object"),
        (dict(VALID, grid=[{"n": 240, "d": 30, "K": 3}]), "unknown grid point 0 keys: K"),
        (dict(VALID, grid=[{"n": 240.0, "d": 30, "k": 3}]), "field grid.0.n has type float"),
        (dict(VALID, grid=[{"n": 240, "d": True, "k": 3}]), "field grid.0.d has type bool"),
        (dict(VALID, trials="2"), "field trials has type str"),
        (dict(VALID, master_seed=None), "field master_seed has type NoneType"),
        (dict(VALID, noise={"kind": "gaussian", "sigm": 0.01}), "unknown noise keys: sigm"),
        (dict(VALID, noise={"kind": "laplace", "sigma": 0.01}), "unknown noise kind 'laplace'"),
        (dict(VALID, noise={"sigma": "0.01"}), "field noise.sigma has type str"),
        (dict(VALID, noise=[]), "noise is not an object"),
        (dict(VALID, output=5), "field output has type int"),
        (dict(VALID, signal={"kind": "pm_uniform", "magnitude": 1.0}), "unknown config keys: signal"),
        (
            dict(VALID, kind="partial_adaptive", algorithm={"round": 2}),
            "unknown algorithm keys for partial_adaptive: round",
        ),
        (
            dict(VALID, kind="metric_equivalence", algorithm={"mode": "impossibilty"}),
            "algorithm.mode must be 'equivalence' or 'impossibility', got 'impossibilty'",
        ),
        (
            dict(VALID, kind="adaptive_recovery", algorithm={"certify": "yes"}),
            "algorithm.certify must be true or false, got 'yes'",
        ),
        (
            dict(VALID, kind="adaptive_recovery", algorithm={"certify": 1}),
            "algorithm.certify must be true or false, got 1",
        ),
        (
            dict(VALID, kind="partial_adaptive", algorithm={"rounds": 0}),
            "algorithm.rounds must be a positive integer, got 0",
        ),
        (
            dict(VALID, kind="partial_adaptive", algorithm={"rounds": 2.0}),
            "algorithm.rounds must be a positive integer, got 2.0",
        ),
        (
            dict(VALID, kind="partial_adaptive", algorithm={"rounds": True}),
            "algorithm.rounds must be a positive integer, got True",
        ),
        (
            dict(VALID, kind="linf_rip_sweep", algorithm={"epsilon": float("nan")}),
            "algorithm.epsilon must be a finite number, got nan",
        ),
        (
            dict(VALID, kind="linf_rip_sweep", algorithm={"epsilon": "0.25"}),
            "algorithm.epsilon must be a finite number, got '0.25'",
        ),
        (
            dict(VALID, kind="partial_adaptive", algorithm={"r_inf": float("inf")}),
            "algorithm.r_inf must be a finite number, got inf",
        ),
        (
            dict(VALID, algorithm={"error_constant": None}),
            "algorithm.error_constant must be a finite number, got None",
        ),
        (dict(VALID, noise={"sigma": float("nan")}), "noise.sigma must be a finite nonnegative number, got nan"),
        (dict(VALID, noise={"sigma": float("inf")}), "noise.sigma must be a finite nonnegative number, got inf"),
        (dict(VALID, noise={"sigma": -1}), "noise.sigma must be a finite nonnegative number, got -1"),
        # integers beyond the float range
        pytest.param(
            dict(VALID, noise={"sigma": 10**400}),
            f"noise.sigma must be a finite nonnegative number, got {10**400}",
            id="huge-noise-sigma",
        ),
        pytest.param(
            dict(VALID, kind="linf_rip_sweep", algorithm={"epsilon": 10**400}),
            f"algorithm.epsilon must be a finite number, got {10**400}",
            id="huge-epsilon",
        ),
        pytest.param(
            dict(VALID, kind="partial_adaptive", algorithm={"r_inf": -(10**400)}),
            f"algorithm.r_inf must be a finite number, got {-(10**400)}",
            id="huge-r_inf",
        ),
        pytest.param(
            dict(VALID, algorithm={"error_constant": 10**400}),
            f"algorithm.error_constant must be a finite number, got {10**400}",
            id="huge-error_constant",
        ),
        # its oracle draws Gaussian noise whatever noise.kind says
        pytest.param(
            dict(VALID, kind="partial_adaptive", noise={"kind": "zero"}),
            "noise.kind 'zero' is not supported by partial_adaptive; set noise.sigma instead",
            id="partial-adaptive-zero-noise",
        ),
        pytest.param(
            dict(VALID, master_seed=-1), "master_seed must be a nonnegative integer, got -1", id="negative-seed"
        ),
        pytest.param(
            dict(VALID, master_seed=-(2**70)),
            f"master_seed must be a nonnegative integer, got {-(2**70)}",
            id="huge-negative-seed",
        ),
    ],
)
def test_run_malformed_config_is_reported(tmp_path, capsys, cfg, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "run", str(cfg_path))
    assert code == 1
    assert err == f"linfrec: error: {message}\n"


def test_run_reduction_at_zero_sigma_is_reported(tmp_path, capsys):
    # sigma 0 sets the reduction's target resolution r = sigma / 100 to zero
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(VALID, kind="reduction_recovery", noise={"sigma": 0.0})))
    code, _, err = run_cli(capsys, "run", str(cfg_path))
    assert code == 1
    assert err.startswith("linfrec: error: R and r must be positive and finite, got R=")
    assert err.endswith(", r=0.0\n")


@pytest.mark.parametrize(
    "kind, key",
    [
        ("oblivious_recovery", "c"),
        ("adaptive_recovery", "base_magnitude"),
        ("adaptive_recovery", "r"),
        ("separation", "problem_constant"),
        ("metric_equivalence", "ratio_low"),
        ("metric_equivalence", "ratio_high"),
        ("partial_adaptive", "snr_multiple"),
        ("partial_adaptive", "r2"),
        ("threshold_stats", "fp_cap_factor"),
        ("threshold_stats", "fn_cap"),
    ],
)
def test_run_rejects_a_constant_set_as_an_algorithm_key(tmp_path, capsys, kind, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(VALID, kind=kind, algorithm={key: 1.0})))
    code, _, err = run_cli(capsys, "run", str(cfg_path))
    assert code == 1
    assert err == f"linfrec: error: unknown algorithm keys for {kind}: {key}\n"


def test_run_twice_identical_files(tmp_path, capsys):
    cfg = {
        "kind": "oblivious_recovery",
        "grid": [{"n": 240, "d": 30, "k": 3}],
        "trials": 2,
        "master_seed": 7,
        "noise": {"kind": "gaussian", "sigma": 0.05},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(capsys, "run", str(cfg_path), "--out", str(out1))[0] == 0
    assert run_cli(capsys, "run", str(cfg_path), "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_out_replaces_config_output(tmp_path, capsys, monkeypatch):
    cfg = {
        "kind": "oblivious_recovery",
        "grid": [{"n": 240, "d": 30, "k": 3}],
        "trials": 1,
        "master_seed": 7,
        "output": "from-config.csv",
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "run", "cfg.json", "--out", "x.csv")[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "x.csv"]


def test_adversarial_writes_shared_pair(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "adversarial", "--n", "40", "--d", "80", "--k", "6", "--seed", "2",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    paths = json.loads(out)
    inst1 = load_instance(paths["member1"])
    inst2 = load_instance(paths["member2"])
    assert np.allclose(inst1.y, inst2.y, atol=1e-9)
    assert json.loads(open(paths["member1"]).read())["matrix"]["sha256"] == json.loads(
        open(paths["member2"]).read()
    )["matrix"]["sha256"]


# sha256 of every file `gen` and `adversarial` write at fixed seeds, so a change
# to the instance format or to a stream behind it has to declare itself.
# Produced with numpy 2.4.6 linked against scipy-openblas 0.3.31 on x86_64
# under Python 3.11; another BLAS or CPU kernel may round y differently.
INSTANCE_FILES = {
    "gen": (
        ["gen", "--n", "30", "--d", "12", "--k", "3", "--seed", "5", "--sigma", "0.1"],
        {
            "instance-5.json": "7db958e695c76c8e7366722ab34aab89ee6b69a3e6ef82a6ece3a1fbcd0aba64",
            "matrix-15828bf882b60960.bin": "15828bf882b609600ff545f68e67b63bf27f75c7ce0bed6e970f6f6174f847fd",
        },
    ),
    "gen-zero-noise": (
        ["gen", "--n", "30", "--d", "12", "--k", "3", "--seed", "6", "--noise", "zero"],
        {
            "instance-6.json": "b44e0c0c155c8abc4a3a0afd7d23c565b08758b5cf8809a2f69b1bd979390b4b",
            "matrix-6b9820556ff30a5d.bin": "6b9820556ff30a5dec3445c699f68e5eea3d62b31974223a6dbe4d2a2c74b650",
        },
    ),
    "adversarial": (
        ["adversarial", "--n", "40", "--d", "80", "--k", "6", "--seed", "2"],
        {
            "matrix-37af4de4baa1682d.bin": "37af4de4baa1682d0cd92b1affeaa1198d74bb9f6ac7cc6afadc54856dc7f901",
            "pair-2-member1.json": "fe6b519491629b5e4d3323323994425daea229b6ddf5d099073f44621a30ef49",
            "pair-2-member2.json": "3c7b9b9ff867ecee36cb565b0baf97345b2fccc1bf03c2d2d864ba6714e524e1",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(INSTANCE_FILES))
def test_written_instance_files_are_pinned(name, tmp_path, capsys):
    argv, digests = INSTANCE_FILES[name]
    assert run_cli(capsys, *argv, "--out-dir", str(tmp_path))[0] == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == digests


def test_report_matches_recount_oracle(tmp_path, capsys):
    cfg = {
        "kind": "threshold_stats",
        "grid": [{"n": 300, "d": 60, "k": 4}],
        "trials": 5,
        "master_seed": 11,
        "noise": {"kind": "gaussian", "sigma": 0.1},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    csv_path = tmp_path / "res.csv"
    run_cli(capsys, "run", str(cfg_path), "--out", str(csv_path))
    code, out, _ = run_cli(capsys, "report", str(csv_path))
    assert code == 0

    # independent recount straight off the CSV
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    passes = sum(1 for r in rows if r["passed"] == "1")
    line = [ln for ln in out.splitlines() if ln.startswith("threshold_stats")][0]
    cols = line.split()
    assert int(cols[5]) == len(rows)
    assert int(cols[6]) == passes
    assert float(cols[7]) == pytest.approx(passes / len(rows))


HEADER = ",".join(CSV_COLUMNS)
ROW = "oblivious_recovery,0,240,40,3,0,5,0.1,0.2,,1.0,1,r=0.5"

# name -> (file text or bytes, line the error names, message)
MALFORMED_CSVS = {
    "empty": ("", 1, "header does not match schema linfrec-trials-v1"),
    "foreign_header": ("foo,bar\n1,2\n", 1, "header does not match schema linfrec-trials-v1"),
    "short_row": (f"{HEADER}\n{ROW}\n1,2,3,4,5\n", 3, "expected 13 fields, found 5"),
    "long_row": (f"{HEADER}\n{ROW},x\n", 2, "expected 13 fields, found 14"),
    "int_column": (
        f"{HEADER}\n{ROW.replace(',0,240,', ',zero,240,')}\n",
        2,
        "grid_index: invalid literal for int() with base 10: 'zero'",
    ),
    "float_column": (
        f"{HEADER}\n{ROW.replace(',0.1,', ',tiny,')}\n", 2, "error: could not convert string to float: 'tiny'"
    ),
    "passed_flag": (f"{HEADER}\n{ROW.replace(',1,r=', ',yes,r=')}\n", 2, "passed: expected 0 or 1, got 'yes'"),
    "extra_pair": (f"{HEADER}\n{ROW};junk\n", 2, "extra: expected key=value, got 'junk'"),
    "extra_key": (f"{HEADER}\n{ROW};=1\n", 2, "extra: expected key=value, got '=1'"),
    "oversized_field": (f"{HEADER}\n{ROW};x={'1' * 200_000}\n", 2, "field larger than field limit (131072)"),
    "experiment": (f"{HEADER}\n{ROW.replace('oblivious_recovery', 'foo')}\n", 2, "'foo' is not a valid ExperimentKind"),
    "utf8": (
        f"{HEADER}\n".encode() + b"\xff\xfe,1\n",
        2,
        f"'utf-8' codec can't decode byte 0xff in position {len(HEADER) + 1}: invalid start byte",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CSVS))
def test_report_rejects_malformed_csv_naming_its_line(name, tmp_path, capsys):
    text, line, message = MALFORMED_CSVS[name]
    path = tmp_path / "bad.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {message}")):
        read_csv(path)
    assert run_cli(capsys, "report", str(path)) == (1, "", f"linfrec: error: {path}:{line}: {message}\n")


def test_report_reads_the_row_the_malformed_cases_alter(tmp_path, capsys):
    path = tmp_path / "good.csv"
    path.write_text(f"{HEADER}\n{ROW}\n")
    code, out, err = run_cli(capsys, "report", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split()[:6] == ["oblivious_recovery", "0", "240", "40", "3", "1"]


def _report_rows(capsys, *paths):
    code, out, err = run_cli(capsys, "report", *map(str, paths))
    assert (code, err) == (0, "")
    return [line.split()[:6] for line in out.splitlines()[1:]]


def test_report_keeps_grids_of_different_files_apart(tmp_path, capsys):
    paths = []
    for n in (240, 300):
        cfg = {"kind": "oblivious_recovery", "grid": [{"n": n, "d": 30, "k": 3}], "trials": 2, "master_seed": 1}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        paths.append(tmp_path / f"n{n}.csv")
        assert run_cli(capsys, "run", str(tmp_path / "cfg.json"), "--out", str(paths[-1]))[0] == 0
    # one grid index, one master seed: the trials share their seeds
    assert [r.seed for r in read_csv(paths[0])] == [r.seed for r in read_csv(paths[1])]
    assert _report_rows(capsys, *paths) == [
        ["oblivious_recovery", "0", "240", "30", "3", "2"],
        ["oblivious_recovery", "0", "300", "30", "3", "2"],
    ]


def test_report_rejects_a_trial_given_twice(tmp_path, capsys):
    path = tmp_path / "res.csv"
    path.write_text(f"{HEADER}\n{ROW}\n")
    assert _report_rows(capsys, path) == [["oblivious_recovery", "0", "240", "40", "3", "1"]]
    code, out, err = run_cli(capsys, "report", str(path), str(path))
    assert (code, out) == (1, "")
    assert err == f"linfrec: error: {path} repeats a trial of {path}: oblivious_recovery n=240 d=40 k=3 seed=5\n"


def test_report_lists_pooled_scaling_points_in_increasing_k(tmp_path, capsys):
    # grid index 0 of the second file sits between the first file's two points
    paths = []
    for name, grid in (("sweep", [(16, 16), (64, 32)]), ("single", [(100, 40)])):
        cfg = {
            "kind": "separation",
            "grid": [{"n": n, "d": 300, "k": k} for n, k in grid],
            "trials": 2,
            "master_seed": 3,
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        paths.append(tmp_path / f"{name}.csv")
        assert run_cli(capsys, "run", str(tmp_path / "cfg.json"), "--out", str(paths[-1]))[0] == 0
    code, out, err = run_cli(capsys, "report", *map(str, paths))
    assert (code, err) == (0, "")
    scaling = [line for line in out.splitlines() if line.startswith("  scaling:")]
    assert len(scaling) == 1
    assert scaling[0].startswith("  scaling: k=[16, 32, 40] n=[16, 64, 100] medians=")
