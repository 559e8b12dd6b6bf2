"""Benchmark of linfrec's seeded Monte Carlo trials.

Run from the root of a linfrec checkout:

    python3 perfbench/run.py --workload oblivious --seed 1 --seconds 20 --trace 0

Workloads are defined in ``perfbench/workloads.py``; metric names and units
in ``BENCHMARK.json``.  With ``--trace 0`` the run is split into three
segments, each a fresh interpreter that imports linfrec, finishes one
warm-up trial (set-up) and then times ``run_experiment`` calls for a third
of ``--seconds``; the end-to-end metrics pool the three.  With ``--trace 1``
an untraced segment is followed by a traced one that records spans at the
layer boundaries and prints the per-layer metrics.  A pooled workload gets
two traced segments: the pool traced from the parent (harness layer) and the
same configuration run serially (every layer below it).

Every batch is checked before any number is reported: each record's
``passed`` must equal ``harness.recompute_pass``, and the last segment
repeats the first one's first batch, whose CSV must be byte-identical.  A
failed check prints the reason to stderr and a result with no metrics, and
exits with 1.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

THREADS_ENV = "LINFREC_THREADS"  # read by linfrec.harness.run_experiment
RUN_BUDGET_S = 170.0
CLOSURE_TOLERANCE = 0.02  # relative gap between a trial's summed self times and its wall time
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class CheckFailed(Exception):
    pass


def plan(w, trace: bool, seconds: float) -> list[tuple]:
    """Segments as (label, seconds, trace level, LINFREC_THREADS, repeated label)."""
    if not trace:
        third = seconds / 3
        return [
            ("s0", third, "none", w.threads, None),
            ("s1", third, "none", w.threads, None),
            ("s2", third, "none", w.threads, "s0"),
        ]
    if w.threads == 1:
        return [("s0", seconds / 2, "none", 1, None), ("t0", seconds / 2, "full", 1, "s0")]
    third = seconds / 3
    return [
        ("s0", third, "none", w.threads, None),
        ("t0", third, "harness", w.threads, "s0"),
        ("t1", third, "full", 1, "s0"),
    ]


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_segment(root: Path, out: Path, args, seg: tuple, stop_at: float) -> dict:
    label, seconds, level, threads, repeat = seg
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env[THREADS_ENV] = str(threads)
    cmd = [
        sys.executable, str(HERE / "segment.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
        "--segment", label, "--trace", level, "--out", str(out),
    ] + (["--repeat", repeat] if repeat else [])
    log = out / f"{label}.log"
    with open(log, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=root, text=True, start_new_session=True
        )
        # The segment and its pool workers share a process group; stop them
        # all if the run budget runs out.
        killer = threading.Timer(max(stop_at - time.monotonic(), 1.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate()
        finally:
            killer.cancel()
            if proc.poll() is None:
                _kill_group(proc.pid)
                proc.wait()
    if proc.returncode == -signal.SIGKILL:
        raise CheckFailed(f"segment {label} did not finish within the run budget")
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        tail = log.read_text()[-2000:]
        raise CheckFailed(f"segment {label} exited with {proc.returncode}:\n{tail}")
    result = json.loads(lines[-1])
    result.update(label=label, level=level, repeat=repeat, setup_s=setup_s)
    return result


def check(segments: list[dict]) -> list[str]:
    """Output checks; returns the problems found."""
    problems = []
    first = {s["label"]: s["batches"][0]["csv_sha256"] for s in segments}
    for s in segments:
        for i, b in enumerate(s["batches"]):
            if b["trials"] != b["expected_trials"]:
                problems.append(f"{s['label']} batch {i}: {b['trials']} records for {b['expected_trials']} trials")
            if b["pass_mismatch"]:
                problems.append(f"{s['label']} batch {i}: {b['pass_mismatch']} records disagree with recompute_pass")
        if s["repeat"] and s["batches"][0]["csv_sha256"] != first[s["repeat"]]:
            problems.append(f"{s['label']}: CSV of a repeated batch differs from {s['repeat']}'s")
        if "restored" in s and not s["restored"]:
            problems.append(f"{s['label']}: tracer left a wrapped function in place")
        if s["level"] == "full" and s["layers"]["trace.closure_error"] > CLOSURE_TOLERANCE:
            problems.append(
                f"{s['label']}: layer self times miss trial wall time by {s['layers']['trace.closure_error']:.1%}"
            )
    return problems


def throughput(segments: list[dict]) -> float:
    """Median over run_experiment calls of trials completed per second of the call."""
    return statistics.median(b["trials"] / b["wall_s"] for s in segments for b in s["batches"])


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples above it (the minimum when
    there are fewer samples), its rank in %, and the samples above it."""
    ordered = sorted(times)
    i = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def end_to_end(segments: list[dict]) -> tuple[dict, list[str]]:
    times = [t for s in segments for b in s["batches"] for t in b["times"]]
    failed = sum(b["failed"] for s in segments for b in s["batches"])
    tail_s, rank, beyond = tail(times)
    metrics = {
        "trials_per_s": throughput(segments),
        "trial_s_p50": statistics.median(times),
        "trial_s_tail": tail_s,
        "setup_s": statistics.median(s["setup_s"] for s in segments),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in segments),
        "ok_share": 1.0 - failed / len(times),
    }
    notes = [
        f"trial_s_tail is the p{rank:.1f} of {len(times)} trials ({beyond} beyond it)",
        f"failed_share {failed / len(times)!r} ({failed} of {len(times)} trials)",
        "setup_s per segment " + " ".join(f"{s['setup_s']:.4f}" for s in segments),
    ]
    return metrics, notes


def per_layer(segments: list[dict]) -> tuple[dict, list[str]]:
    by_level = {s["level"]: s for s in segments}
    full = by_level["full"]
    traced = by_level.get("harness", full)
    metrics = dict(full["layers"])
    if traced is not full:  # pooled: the harness layer is traced on the pool itself
        metrics.update({k: v for k, v in traced["layers"].items() if k.startswith("harness.")})
    metrics["trace.trials_per_s"] = throughput([traced])
    metrics["trace.overhead_ratio"] = throughput([by_level["none"]]) / metrics["trace.trials_per_s"]
    notes = [
        "counts computed from call arguments, not measured: the normals behind core.sample_ensemble.normals_per_s (n*d per call), "
        "padaptive.masked_observe.normals and .unmasked_share (rows*d per call), ripcert.gram_bytes (3*8*d^2)",
        f"serial layers traced in segment {full['label']}, harness layer in segment {traced['label']}",
    ]
    return metrics, notes


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "linfrec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, segments: list[dict]) -> dict:
    import numpy as np

    sha = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        sha = git.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "nproc": len(os.sched_getaffinity(0)),
        THREADS_ENV: {s["label"]: s["threads"] for s in segments},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def declared(root: Path, trace: bool) -> dict:
    """Metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "linfrec" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("run from the root of a linfrec checkout: src/linfrec or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    units = declared(root, bool(args.trace))
    w = WORKLOADS[args.workload]
    stop_at = time.monotonic() + RUN_BUDGET_S
    out = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    segments: list[dict] = []
    try:
        for seg in plan(w, bool(args.trace), args.seconds):
            segments.append(run_segment(root, out, args, seg, stop_at))
        problems = check(segments)
        if problems:
            raise CheckFailed("\n".join(problems))
    except CheckFailed as exc:
        print(f"output check failed:\n{exc}", file=sys.stderr)
        attempted = sum(b["trials"] for s in segments for b in s["batches"])
        failed = sum(b["failed"] for s in segments for b in s["batches"])
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    metrics, notes = (per_layer if args.trace else end_to_end)(segments)
    if set(metrics) != set(units) or not all(NAME.fullmatch(k) for k in metrics):
        print(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 2
    batches = [b for s in segments for b in s["batches"]]
    failures = sorted({f for b in batches for f in b["failures"]})
    print("env " + json.dumps(environment(root, segments)))
    print(f"csv_sha256 {segments[0]['batches'][0]['csv_sha256']} (first batch; changes only with a declared stream change)")
    for note in notes + ([f"failures: {', '.join(failures)}"] if failures else []):
        print(note)
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": len([t for b in batches for t in b["times"]]),
                "failed": sum(b["failed"] for b in batches),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
