#!/usr/bin/env python3
"""Time and peak memory of the exact sup-norm RIP certificate against d.

Each dimension runs in a fresh interpreter, so its peak resident set
(``ru_maxrss``) belongs to that one certificate: draw X (1000 x d, Gaussian),
then ``certify_linf_rip(X, 0.25, 20, mode="exact")``.  The curve is merged into
the JSON file under ``--label``, next to curves recorded earlier, so one file
can hold the curves of two checkouts.  Run from the repository root:

    PYTHONPATH=src python3 scripts/certify_curve.py --label triangle

The linfrec that ``PYTHONPATH`` selects is the one measured; its checkout's
git SHA and a digest of its sources are recorded with the curve.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path


N, S, EPS = 1000, 20, 0.25  # rows, subset size and threshold of every point
SEED = 0  # the design seed of every point


def measure(d: int, seed: int = SEED) -> dict:
    from linfrec.core import Dims, Ensemble, sample_ensemble
    from linfrec.ripcert import certify_linf_rip

    t0 = time.perf_counter()
    x = sample_ensemble(Dims(n=N, d=d, k=S), Ensemble.GAUSSIAN_SCALED, seed)
    t1 = time.perf_counter()
    cert = certify_linf_rip(x, EPS, S, mode="exact")
    t2 = time.perf_counter()
    return {
        "d": d,
        "sample_s": t1 - t0,
        "certify_s": t2 - t1,
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "design_mb": 8.0 * N * d / 2**20,
        "achieved": cert.achieved,
        "witness": cert.witness.tolist(),
        "verdict": cert.verdict.value,
    }


def measured_code() -> dict:
    """Git SHA of the measured linfrec's checkout (None outside git) and a digest of its sources."""
    import linfrec

    pkg = Path(linfrec.__file__).parent
    digest = hashlib.sha256()
    for f in sorted(pkg.glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    try:
        out = subprocess.run(["git", "-C", str(pkg), "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
        sha = out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this curve in the output file")
    ap.add_argument("--dims", type=int, nargs="+", default=[4000, 8000, 16000, 32000])
    ap.add_argument("--out", default="BENCH_certify_curve.json")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)  # one dimension, in this process
    args = ap.parse_args()

    if args.child is not None:
        print(json.dumps(measure(args.child)))
        return 0

    points = []
    for d in args.dims:
        cmd = [sys.executable, __file__, "--label", args.label, "--child", str(d)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        point = json.loads(out.stdout.strip().splitlines()[-1])
        print(json.dumps(point))
        points.append(point)

    import numpy

    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[args.label] = {
        **measured_code(),
        "n": N,
        "s": S,
        "eps": EPS,
        "seed": SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "points": points,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
