"""Golden digests of harness CSVs: one small config per experiment kind.

A refactor that claims to keep behaviour must keep these bytes.  A change
that alters a random stream or an estimator's arithmetic must update the
digest it moves and say so in CHANGES.md.

The digests were produced with numpy 2.4.6 linked against scipy-openblas
0.3.31 (OpenBLAS, DYNAMIC_ARCH) on x86_64 under Python 3.11.  Floats reach
the CSV through repr, so another BLAS or CPU kernel may round differently and
move them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from linfrec.harness import ExperimentConfig, ExperimentKind, read_csv, run_experiment, write_csv

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"

SMALL = {
    "oblivious": dict(kind="oblivious_recovery", grid=[{"n": 240, "d": 40, "k": 3}]),
    "oblivious_truncating": dict(kind="oblivious_recovery", grid=[{"n": 241, "d": 40, "k": 3}]),
    "oblivious_rademacher": dict(
        kind="oblivious_recovery", grid=[{"n": 240, "d": 40, "k": 3}], ensemble="rademacher_scaled"
    ),
    "adaptive": dict(kind="adaptive_recovery", grid=[{"n": 200, "d": 40, "k": 4}]),
    "adaptive_certify": dict(
        kind="adaptive_recovery", grid=[{"n": 200, "d": 40, "k": 4}], algorithm={"certify": True}
    ),
    "reduction": dict(kind="reduction_recovery", grid=[{"n": 240, "d": 40, "k": 3}]),
    "separation": dict(kind="separation", grid=[{"n": 30, "d": 100, "k": 8}]),
    "linf_rip_sweep": dict(kind="linf_rip_sweep", grid=[{"n": 300, "d": 30, "k": 4}], algorithm={"epsilon": 0.6}),
    "metric_equivalence": dict(kind="metric_equivalence", grid=[{"n": 200, "d": 100, "k": 5}]),
    "metric_impossibility": dict(
        kind="metric_equivalence", grid=[{"n": 200, "d": 100, "k": 5}], algorithm={"mode": "impossibility"}
    ),
    "partial_adaptive": dict(kind="partial_adaptive", grid=[{"n": 900, "d": 100, "k": 4}], algorithm={"rounds": 2}),
    "partial_adaptive_rademacher": dict(
        kind="partial_adaptive",
        grid=[{"n": 900, "d": 100, "k": 4}],
        algorithm={"rounds": 2},
        ensemble="rademacher_scaled",
    ),
    "partial_adaptive_failing": dict(
        kind="partial_adaptive", grid=[{"n": 900, "d": 400, "k": 4}], algorithm={"rounds": 2, "r_inf": 0.0}
    ),
    "threshold_stats": dict(kind="threshold_stats", grid=[{"n": 300, "d": 60, "k": 4}]),
}

GOLDEN = {
    "oblivious": "a86e6f8f4d4802d6f79873dab3c08bd7da339cbd2214a6f8f1ef45a983f75956",
    "oblivious_truncating": "e11b29f94766ee57a4efacf1c31654be8338daefb5ba7764d8167a12318fc6c5",
    "oblivious_rademacher": "a2ac66a77b2abcbcfdd72b3c02444cdbf433c910d5f1668213336e0a964c8472",
    "adaptive": "c1c5a25835ce7eecf5aa8cd627a1f1a1e06f39f13071da4bd2b4825cf98aa6ec",
    "adaptive_certify": "acc71ac2463f51d89001eaa089ec722730c37d0d8969b2f6f3fa22cd2e8d3cf3",
    "reduction": "be4c05a939f55fed894fadb7d49f6cbd8fd2881eac9cbb01f214b922f9616d74",
    "separation": "2b2ea8461e74a2a452411348ea41dc00471b4371946b23616af2896ebf5acdfe",
    "linf_rip_sweep": "415bc3b37851d2db9d0120db9bda8de72ba3fca00cf5ec2377a72718e83308ef",
    "metric_equivalence": "5851323b3bfe3809e5bc61f0eabc7f8bf7889605169dda33fde4b800134d3921",
    "metric_impossibility": "672116fa9a25d1b7cbba9aa3c3955cde01c5e7f7bf74b919b093506361ef8c55",
    "partial_adaptive": "cbdb12b466cf69fbb934484eefcd153540768b427a68693766dd06792b52a880",
    "partial_adaptive_rademacher": "57d58abc86a61bbd3cd208620ae847bd1a681289a4f57a3ecb4b87975e1e9004",
    "partial_adaptive_failing": "b2b7b858e64b1e8f53b290322214adc1f22b7b129377225f45aefd9c18cce3e7",
    "threshold_stats": "59b2667927656835061aa848617999d4784b3ce8a86567733902f06485cc9dea",
    "scripts/configs/masking_sweep.json": "e0f3022b82f0e0622d0aaf45825a0950c130b6f1d9322ef30b450c5d7f9df41f",
    "scripts/configs/oblivious.json": "b7434b8cda8495049999c564daea510f852782c1ec61de30259beeda24e03456",
    "scripts/configs/separation.json": "f56ceae3bbed6ac49e421d7086512b3b219662a23670cd0461ff5bf3ce221c84",
}


def _config(name: str) -> ExperimentConfig:
    if name.startswith("scripts/configs/"):
        doc = json.loads((CONFIG_DIR / Path(name).name).read_text())
        doc.update(trials=2, output=None)
        return ExperimentConfig(**doc)
    doc = dict(trials=2, master_seed=99, noise={"kind": "gaussian", "sigma": 0.1})
    doc.update(SMALL[name])
    return ExperimentConfig(**doc)


def test_golden_covers_every_kind_and_config():
    kinds = {_config(name).kind.value for name in SMALL}
    assert kinds == {k.value for k in ExperimentKind}
    assert {p.name for p in CONFIG_DIR.glob("*.json")} == {
        Path(name).name for name in GOLDEN if name.startswith("scripts/")
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_digest_is_pinned(name, tmp_path):
    records, _ = run_experiment(_config(name))
    path = tmp_path / "out.csv"
    write_csv(records, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_csv_rewritten_from_its_records_keeps_its_bytes(name, tmp_path):
    # covers empty float columns, both pass flags and a failure name in extra
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_csv(run_experiment(_config(name))[0], first)
    write_csv(read_csv(first), second)
    assert second.read_bytes() == first.read_bytes()
