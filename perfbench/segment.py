"""One measured segment of a benchmark run, in a fresh interpreter.

Imports linfrec, builds the workload's config, finishes one untimed warm-up
trial and prints ``ready`` (the parent times set-up up to that line).  Then
it calls ``run_experiment`` in batches until ``--seconds`` have passed,
checks every batch's output, and prints one JSON line with the batch data.

Tracing (``--trace harness|full``) is installed after the warm-up and
removed before the result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from linfrec import harness
from tracing import FULL, HARNESS, Tracer, layer_metrics
from workloads import WORKLOADS, batch_seed


def make_config(w, master_seed: int, trials: int, output: Path) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        kind=w.kind,
        grid=[dict(w.point)],
        trials=trials,
        master_seed=master_seed,
        noise=dict(w.noise),
        algorithm=dict(w.algorithm),
        output=str(output),
    )


def philox_normals_per_s(n: int, d: int) -> float:
    """Normals per second of a bare Philox standard_normal fill of n x d."""
    times = []
    for rep in range(3):
        gen = np.random.Generator(np.random.Philox(rep))
        start = time.perf_counter()
        gen.standard_normal((n, d))
        times.append(time.perf_counter() - start)
    return n * d / statistics.median(times)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--segment", required=True, help="label that keys this segment's batch seeds")
    ap.add_argument("--repeat", default=None, help="segment label whose first batch this one repeats")
    ap.add_argument("--trace", choices=["none", "harness", "full"], default="none")
    ap.add_argument("--out", required=True, help="directory for the CSVs")
    args = ap.parse_args()

    w = WORKLOADS[args.workload]
    csv_path = Path(args.out) / f"{args.segment}.csv"
    harness.run_experiment(make_config(w, batch_seed(w.name, args.seed, f"warmup-{args.segment}", 0), 1, csv_path))
    print("ready", flush=True)

    tracer = None
    if args.trace != "none":
        tracer = Tracer()
        tracer.install(FULL if args.trace == "full" else HARNESS)
    batches = []
    deadline = time.perf_counter() + args.seconds
    try:
        while not batches or time.perf_counter() < deadline:
            b = len(batches)
            key = args.repeat if b == 0 and args.repeat else args.segment
            cfg = make_config(w, batch_seed(w.name, args.seed, key, b), w.batch, csv_path)
            if tracer is not None:
                tracer.batch = b
            start = time.perf_counter()
            records, _ = harness.run_experiment(cfg)
            wall = time.perf_counter() - start
            batches.append(
                {
                    "wall_s": wall,
                    "trials": len(records),
                    "expected_trials": w.batch,
                    "times": [r.wall_time_s for r in records],
                    "failed": sum(1 for r in records if "failed" in r.extra),
                    "failures": sorted({str(r.extra.get("failure")) for r in records if "failed" in r.extra}),
                    "pass_mismatch": sum(1 for r in records if r.passed != harness.recompute_pass(r)),
                    "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
                }
            )
    finally:
        if tracer is not None:
            tracer.restore()

    result = {"batches": batches, "threads": os.environ.get(harness.THREADS_ENV)}
    if tracer is not None:
        result["restored"] = tracer.restored()
        drawn = tracer.counts["core.sample_ensemble.normals"]
        ceiling = philox_normals_per_s(w.point["n"], w.point["d"]) if drawn else 0.0
        workers = int(os.environ.get(harness.THREADS_ENV, "1"))
        times = [t for b in batches for t in b["times"]]
        result["layers"] = layer_metrics(tracer, times, workers, ceiling)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(self_kb, children_kb) / 1024.0
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
