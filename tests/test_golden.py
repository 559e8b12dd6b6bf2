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

from linfrec.harness import ExperimentConfig, ExperimentKind, run_experiment, write_csv

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
    "oblivious": "21d108923645f485b3bf6b8c200d3025ec2838bedfae963acd9bcfd1b5b38fe4",
    "oblivious_truncating": "d70e9ae9746c794fe70b6e501856c2fa495ff75edac967c9fc71fc11b85099d2",
    "oblivious_rademacher": "3e08e44cdb25ee4edac719510f6a3c8d55cecb955b4bdb6991cd7a16c516a938",
    "adaptive": "8dbb32c411997f2f56e2eb75120ab7406485f9456816814caabae27e7df9a06b",
    "adaptive_certify": "3aae0de6eb8153d6860f65f869bf3ec2b5a1cd89cfdfc6378227a77573151e03",
    "reduction": "e377f8a34739d8a267ab773ccb154bc7905ba3bed2c9734020c5274adb7daa10",
    "separation": "13e29d88ff0be59670638c0904ec9c69a8ff92e9b916e10083841ddd2f858653",
    "linf_rip_sweep": "d22330a1f088d3a359d6d083dcef24e6edd0e1d9af7963ba55bfbf46d5fbb196",
    "metric_equivalence": "c5296fec455d57cb92f0fb74d2910ea1b14a86e3d893a6c256d3a0c97482c060",
    "metric_impossibility": "d5b39f0d2c0d5546199bfe05a1ff4408ae797fe4afa5c06d68ba980d6d80452b",
    "partial_adaptive": "c90c23e10be2322c5e7efa3ecc3a2440ca4b840aea630856011eb435155faf0a",
    "partial_adaptive_rademacher": "36ac06338a987657786cb2655923560d8c58b57127378be95079d6cebb9adba3",
    "partial_adaptive_failing": "b2b7b858e64b1e8f53b290322214adc1f22b7b129377225f45aefd9c18cce3e7",
    "threshold_stats": "3b1e97bae763b1b1d02dc86fa9e5e37cefa72fbc88ef67f502807f0530bfa691",
    "scripts/configs/masking_sweep.json": "6cc6e880792da0a5842af16af72f137d1af65527543afcc7292d3a3b3187ecd0",
    "scripts/configs/oblivious.json": "d20f2b7d8a4ea3967d111a3422318ad8afe2afe1f127207144500fa7d22cd92a",
    "scripts/configs/separation.json": "c718018ada7c88cfa7c1d7a33a3be094f618b805ab1da1721d5b092328eb0433",
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
