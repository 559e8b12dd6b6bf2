#!/usr/bin/env python3
"""Time of ``recovery.iht`` against its iteration count, at two acceptance shapes.

The shapes are the IHT calls of two acceptance criteria:

- ``masked_oracle_warm``: criterion 10's Phase I block, the first n // 3 =
  6744 rows a 20232 x 2000 masked oracle returns, k = 16, gain 1;
- ``oblivious_warm``: criterion 03's warm start, the first third (830 rows)
  of a 2490 x 4000 Gaussian design, k = 10, gain 3.

Each is drawn once; then ``iht`` runs t = 1, 2, 4, 8 and 16 iterations
(R / r = 2^t), and each point is the median of 7 in-process calls.  The
result is merged into the JSON file under ``--label``, next to results
recorded earlier, so one file can hold the columns of two checkouts.  Run
from the repository root:

    PYTHONPATH=src python3 scripts/iht_cost.py --label change

The linfrec that ``PYTHONPATH`` selects is the one measured; its checkout's
git SHA and a digest of its sources are recorded with the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from certify_curve import measured_code  # noqa: E402

COUNTS = (1, 2, 4, 8, 16)
REPEATS = 7  # calls per point; the point is their median
SEED = 0
SHAPES = {  # name: (n, d, k) of the whole design the block is taken from
    "masked_oracle_warm": (20232, 2000, 16),
    "oblivious_warm": (2490, 4000, 10),
}


def instance(shape: str, n: int, d: int, k: int, seed: int):
    """The (x, y, gain) that ``shape``'s estimator hands to ``iht`` at (n, d, k)."""
    import numpy as np

    from linfrec.core import Dims, Ensemble, gaussian_noise, rng_from, sample_ensemble
    from linfrec.harness import make_signal
    from linfrec.padaptive import MaskedOracle

    if shape == "masked_oracle_warm":  # as the partial_adaptive trial builds it, at sigma = 1
        truth = make_signal(d, k, rng_from(seed, 1), "pm_uniform_above", 100.0 * math.sqrt(math.log(d)))
        oracle = MaskedOracle(Dims(n=n, d=d, k=k), truth, 1.0, seed)
        x, _, y = oracle.masked_observe(n // 3, np.empty(0, dtype=np.int64))
        return x, y, 1.0
    if shape == "oblivious_warm":  # as the oblivious_recovery trial builds it, at sigma = 0.05
        x = sample_ensemble(Dims(n=n, d=d, k=k), Ensemble.GAUSSIAN_SCALED, seed)
        y = x @ make_signal(d, k, rng_from(seed, 1)) + gaussian_noise(n, 0.05, seed, 2)
        third = n // 3
        return x[:third], y[:third], 3.0
    raise ValueError(f"unknown shape {shape!r}")


def measure(shape: str, n: int, d: int, k: int, counts=COUNTS, repeats: int = REPEATS) -> dict:
    """Median wall time of ``repeats`` calls of ``iht`` at each iteration count."""
    import numpy as np

    from linfrec.recovery import iht

    x, y, gain = instance(shape, n, d, k, SEED)
    points = []
    for t in counts:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            rep = iht(x, y, k, 2.0**t, 1.0, gain=gain)
            times.append(time.perf_counter() - t0)
        points.append(
            {
                "iterations": rep.iterations,
                "median_s": statistics.median(times),
                "support": int(np.count_nonzero(rep.estimate)),
            }
        )
    return {"shape": shape, "rows": x.shape[0], "d": d, "k": k, "gain": gain, "points": points}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this column in the output file")
    ap.add_argument("--out", default="BENCH_iht_cost.json")
    args = ap.parse_args()

    import numpy

    shapes = []
    for name, (n, d, k) in SHAPES.items():
        result = measure(name, n, d, k)
        for p in result["points"]:
            print(f"{name:20s} iterations={p['iterations']:2d}  median {1e3 * p['median_s']:8.2f} ms")
        shapes.append(result)

    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[args.label] = {
        **measured_code(),
        "seed": SEED,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "shapes": shapes,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
