"""Self-check of the benchmark's own code.

Run from the root of a linfrec checkout:

    python3 perfbench/selfcheck.py

Checks that self-time arithmetic is right on a hand-built span tree, that
the tracer wraps every import site and restores the original functions after
a traced run of each workload's experiment kind (at small dimensions), that
a traced trial's layer self times add up to its wall time, and that every
metric name the benchmark emits is declared in BENCHMARK.json and matches
``[A-Za-z0-9_.-]+``.  Prints ``selfcheck ok`` and exits 0, or lists the
failures and exits 1.
"""

from __future__ import annotations

import json
import logging
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import linfrec  # noqa: E402
from linfrec import harness, padaptive, recovery  # noqa: E402
from run import NAME, end_to_end, per_layer  # noqa: E402
from tracing import FULL, Tracer, closure_error, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Large enough that a trial takes tens of milliseconds, so the wrappers' own
# cost stays well inside the closure tolerance.
SMALL = {
    "oblivious_recovery": ({"n": 1200, "d": 800, "k": 4}, {"kind": "gaussian", "sigma": 0.05}, {}),
    "partial_adaptive": ({"n": 6000, "d": 400, "k": 4}, {"kind": "gaussian", "sigma": 1.0}, {}),
    "linf_rip_sweep": ({"n": 400, "d": 600, "k": 4}, {"kind": "gaussian", "sigma": 1.0}, {"epsilon": 0.25}),
    "reduction_recovery": ({"n": 1200, "d": 800, "k": 4}, {"kind": "gaussian", "sigma": 0.05}, {}),
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def check_span_arithmetic() -> None:
    # a[0,10] holds b[1,4] (which holds c[2,3]) and d[5,9].
    spans = [
        ("a", 0.0, 10.0, -1, 1),
        ("b", 1.0, 4.0, 0, 1),
        ("c", 2.0, 3.0, 1, 1),
        ("d", 5.0, 9.0, 0, 1),
    ]
    expect(self_times(spans) == [3.0, 2.0, 1.0, 4.0], f"self times {self_times(spans)} != [3, 2, 1, 4]")
    tr = Tracer()
    tr.spans = spans
    tr.trial_wall = {1: 10.0}
    expect(closure_error(tr) == 0.0, "self times of a closed tree do not add up to its root")
    tr.trial_wall = {1: 8.0}
    expect(abs(closure_error(tr) - 0.25) < 1e-12, "closure error of a 2 s gap on 8 s is not 0.25")


def import_sites() -> dict:
    """A sample of traced callables, read where other modules find them."""
    return {
        "recovery.iht": recovery.iht,
        "padaptive.iht": padaptive.iht,
        "linfrec.iht": linfrec.iht,
        "harness.run_experiment": harness.run_experiment,
        "MaskedOracle.masked_observe": padaptive.MaskedOracle.__dict__["masked_observe"],
    }


def check_traced_runs(out: Path) -> set[str]:
    originals = import_sites()
    names: set[str] = set()
    for kind, (point, noise, algorithm) in SMALL.items():
        cfg = harness.ExperimentConfig(
            kind=kind, grid=[point], trials=2, master_seed=5, noise=noise, algorithm=algorithm,
            output=str(out / f"{kind}.csv"),
        )
        untraced = out / f"{kind}.csv"
        harness.run_experiment(cfg)
        untraced_bytes = untraced.read_bytes()
        tr = Tracer()
        tr.install(FULL)
        expect(padaptive.iht is recovery.iht is not originals["recovery.iht"], "iht not wrapped at every import site")
        try:
            records, _ = harness.run_experiment(cfg)
        finally:
            tr.restore()
        expect(tr.restored(), f"{kind}: tracer did not restore the originals")
        expect(untraced.read_bytes() == untraced_bytes, f"{kind}: tracing changed the CSV")
        expect(len(tr.trial_wall) == 2, f"{kind}: {len(tr.trial_wall)} traced trials, expected 2")
        expect(closure_error(tr) < 0.02, f"{kind}: closure error {closure_error(tr):.3f}")
        layers = layer_metrics(tr, [r.wall_time_s for r in records], 1, 1.0)
        expect(all(v >= 0.0 for v in layers.values()), f"{kind}: negative layer metric")
        names |= set(layers)
    now = import_sites()
    expect(all(now[k] is v for k, v in originals.items()), "an original function was not put back")
    return names


def check_names(layer_names: set[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_layers = {m["name"] for m in spec["per_layer"]}
    declared_e2e = {m["name"] for m in spec["end_to_end"]}
    fake = {
        "label": "s0", "setup_s": 0.5, "peak_rss_mb": 1.0, "layers": {},
        "batches": [{"trials": 11, "wall_s": 1.0, "failed": 0, "times": [0.1] * 11}],
    }
    layer_names = layer_names | set(per_layer([dict(fake, level="full"), dict(fake, level="none")])[0])
    e2e_names = set(end_to_end([dict(fake, level="none")])[0])
    expect(layer_names == declared_layers, f"per-layer names differ: {sorted(layer_names ^ declared_layers)}")
    expect(e2e_names == declared_e2e, f"end-to-end names differ: {sorted(e2e_names ^ declared_e2e)}")
    every = [m["name"] for key in ("end_to_end", "per_layer", "workloads") for m in spec[key]]
    bad = [n for n in every if not NAME.fullmatch(n)]
    expect(not bad, f"names outside [A-Za-z0-9_.-]+: {bad}")
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "workloads differ from BENCHMARK.json")


def main() -> int:
    logging.getLogger("linfrec").setLevel(logging.ERROR)  # row-split truncation warnings
    check_span_arithmetic()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        names = check_traced_runs(Path(tmp))
    check_names(names)
    if failures:
        print("selfcheck failed:\n" + "\n".join(failures))
        return 1
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
