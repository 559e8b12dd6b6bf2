#!/usr/bin/env python3
"""Run the headline experiments at reduced trial counts and print a report.

This is a quick tour of the harness: oblivious recovery, adaptive recovery
under masking noise, the oblivious/adaptive separation, and the masked-query
pipeline.  The acceptance suite (tests/test_acceptance.py) runs the full-size
versions with 100 trials; this script defaults to 20 so it finishes in about
a minute.  Results land in ./results/*.csv, and ``linfrec report`` prints
their table.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from linfrec import cli
from linfrec.harness import ExperimentConfig, ExperimentKind, run_experiment


def configs(trials: int, seed: int) -> list[ExperimentConfig]:
    d, k = 4000, 10
    n_obl = 3 * math.ceil(10 * k * math.log(d))
    da, ka = 800, 8
    dp, kp = 2000, 16
    return [
        ExperimentConfig(
            kind=ExperimentKind.OBLIVIOUS_RECOVERY,
            grid=[{"n": n_obl, "d": d, "k": k}],
            trials=trials,
            master_seed=seed,
            noise={"kind": "gaussian", "sigma": 0.05},
        ),
        ExperimentConfig(
            kind=ExperimentKind.ADAPTIVE_RECOVERY,
            grid=[{"n": math.ceil(4 * ka * ka * math.log(da / ka)), "d": da, "k": ka}],
            trials=trials,
            master_seed=seed + 1,
        ),
        ExperimentConfig(
            kind=ExperimentKind.SEPARATION,
            grid=[{"n": kk * kk // 16, "d": d, "k": kk} for kk in (16, 32, 40, 64)],
            trials=trials,
            master_seed=seed + 2,
        ),
        ExperimentConfig(
            kind=ExperimentKind.PARTIAL_ADAPTIVE,
            grid=[{"n": math.ceil(60 * kp * math.log(kp) * math.log(dp)), "d": dp, "k": kp}],
            trials=max(trials // 2, 2),
            master_seed=seed + 3,
            noise={"kind": "gaussian", "sigma": 1.0},
        ),
    ]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(exist_ok=True)
    paths = []
    for cfg in configs(args.trials, args.seed):
        cfg.output = str(out / f"{cfg.kind.value}.csv")
        run_experiment(cfg)
        paths.append(cfg.output)
    sys.exit(cli.main(["report", *paths]))


if __name__ == "__main__":
    main()
