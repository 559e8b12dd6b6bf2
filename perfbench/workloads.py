"""The benchmark's workloads: acceptance configurations of linfrec.

Each workload is one experiment kind at one dimension point, run through
``linfrec.harness.run_experiment`` in batches of ``batch`` trials.  Batch
master seeds are hashed from the benchmark seed, so they never coincide with
the acceptance gate's master seeds (2003, 2004, 2010, ...).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    point: dict  # {"n", "d", "k"}
    batch: int  # trials per run_experiment call
    threads: int  # LINFREC_THREADS for the timed calls
    noise: dict = field(default_factory=lambda: {"kind": "gaussian", "sigma": 1.0})
    algorithm: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 03, serial: bound by the design draw in core.sample_ensemble.
        Workload(
            "oblivious", "oblivious_recovery", {"n": 2490, "d": 4000, "k": 10},
            batch=4, threads=1, noise={"kind": "gaussian", "sigma": 0.05},
        ),
        # Criterion 10, serial: bound by the oracle's draws in masked_observe.
        Workload(
            "masked_oracle", "partial_adaptive", {"n": 20232, "d": 2000, "k": 16},
            batch=1, threads=1, noise={"kind": "gaussian", "sigma": 1.0},
        ),
        # Exact sup-norm certifier: three d x d arrays and a Python row scan.
        Workload(
            "certify", "linf_rip_sweep", {"n": 1000, "d": 4000, "k": 20},
            batch=2, threads=1, algorithm={"epsilon": 0.25},
        ),
        # Criterion 04 through the harness process pool with two workers.
        Workload(
            "reduction_pool2", "reduction_recovery", {"n": 2490, "d": 4000, "k": 10},
            batch=8, threads=2, noise={"kind": "gaussian", "sigma": 0.05},
        ),
    )
}


def batch_seed(workload: str, seed: int, segment: str, batch: int) -> int:
    """Master seed of one run_experiment call, as a 63-bit integer."""
    digest = hashlib.sha256(f"{workload}:{seed}:{segment}:{batch}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1
