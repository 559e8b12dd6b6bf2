"""Seeded Monte Carlo experiment runner with deterministic CSV output.

A config names an experiment kind, a dimension grid, a noise spec, and the
algorithm knobs its kind reads.  Each (grid point, trial) pair gets a seed
derived by hashing ``(master_seed, grid_index, trial)``, so results are
independent of execution order and reruns are byte-identical.  Wall-clock
times are kept on the in-memory records only; they never reach the CSV, which
must be reproducible.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import core, frozen
from .adversarial import ConstructionFailure, build_indistinguishable_pair, build_metric_impossibility_pair
from .core import (
    Dims,
    Ensemble,
    check,
    gaussian_noise,
    json_field,
    replace_file,
    rng_from,
    sample_ensemble,
)
from .linops import SolverFailure
from .metrics import compute_metrics
from .padaptive import (
    SNR_CONSTANT,
    MaskedOracle,
    SupportBlowupError,
    _check_rounds,
    adaptive_support_recover,
    default_r_inf,
    threshold_stats,
)
from .recovery import iht, oblivious_recover, osr_reduction
from .ripcert import BudgetExceeded, certify_linf_rip

__all__ = [
    "CSV_COLUMNS",
    "CSV_SCHEMA",
    "ExperimentConfig",
    "ExperimentKind",
    "TrialRecord",
    "disjoint_subsets",
    "make_noise",
    "make_signal",
    "read_csv",
    "recompute_pass",
    "run_experiment",
    "summarize",
    "write_csv",
]

CSV_SCHEMA = "linfrec-trials-v1"
THREADS_ENV = "LINFREC_THREADS"

# Roundoff slack when checking the adaptive bound r + 2 ||X^T xi||_inf.
BOUND_SLACK = 1e-12

# Base magnitude of the masking pairs behind the adaptive and separation kinds.
MASKING_BASE = 1.0

# Expected ways for a trial to fail; they are recorded, anything else is a bug.
DOMAIN_FAILURES = (SolverFailure, ConstructionFailure, SupportBlowupError, BudgetExceeded)


class ExperimentKind(str, enum.Enum):
    OBLIVIOUS_RECOVERY = "oblivious_recovery"
    ADAPTIVE_RECOVERY = "adaptive_recovery"
    REDUCTION_RECOVERY = "reduction_recovery"
    SEPARATION = "separation"
    LINF_RIP_SWEEP = "linf_rip_sweep"
    METRIC_EQUIVALENCE = "metric_equivalence"
    PARTIAL_ADAPTIVE = "partial_adaptive"
    THRESHOLD_STATS = "threshold_stats"


@dataclass
class ExperimentConfig:
    kind: ExperimentKind
    grid: list[dict]  # each {"n": int, "d": int, "k": int}
    trials: int
    master_seed: int
    ensemble: Ensemble = Ensemble.GAUSSIAN_SCALED
    noise: dict = field(default_factory=lambda: {"kind": "gaussian", "sigma": 1.0})
    algorithm: dict = field(default_factory=dict)  # keys each kind reads: _KINDS
    output: str | None = None

    def __post_init__(self):
        self.kind = ExperimentKind(self.kind)
        self.ensemble = Ensemble(self.ensemble)
        if not isinstance(self.grid, list) or not self.grid:
            raise ValueError("dimension grid must be a nonempty list")
        doc = vars(self)
        for i, point in enumerate(self.grid):
            _check_keys(point, ("n", "d", "k"), f"grid point {i}")
            missing = [key for key in ("n", "d", "k") if key not in point]
            if missing:
                raise ValueError(f"grid point {i} lacks {', '.join(missing)}")
            for key in ("n", "d", "k"):
                json_field(doc, numbers.Integral, "grid", i, key)
            try:
                Dims(**point)
            except ValueError as exc:  # here, not in a pool worker's trial
                raise ValueError(f"grid point {i}: {exc}") from None
        check(json_field(doc, numbers.Integral, "trials"), "trials", "a positive integer")
        check(json_field(doc, numbers.Integral, "master_seed"), "master_seed", "a nonnegative integer")
        _check_keys(self.noise, ("kind", "sigma"), "noise")
        if self.noise.get("kind", "gaussian") not in ("gaussian", "zero"):
            raise ValueError(f"unknown noise kind {self.noise['kind']!r}")
        if self.kind is ExperimentKind.PARTIAL_ADAPTIVE and self.noise.get("kind") == "zero":
            # its oracle draws Gaussian noise at noise.sigma whatever the kind
            raise ValueError("noise.kind 'zero' is not supported by partial_adaptive; set noise.sigma instead")
        if "sigma" in self.noise:
            check(json_field(doc, numbers.Real, "noise", "sigma"), "noise.sigma", "a finite nonnegative number")
        if self.output is not None:
            json_field(doc, str, "output")
        _check_keys(self.algorithm, _KINDS[self.kind][2], "algorithm", f" for {self.kind.value}")
        for key, value in self.algorithm.items():
            wanted = _ALGORITHM_VALUES[key]
            if isinstance(wanted, str):
                check(value, f"algorithm.{key}", wanted)
            elif not wanted[0](value):
                raise ValueError(f"algorithm.{key} must be {wanted[1]}, got {value!r}")
        if self.kind is ExperimentKind.PARTIAL_ADAPTIVE:
            for i, point in enumerate(self.grid):
                try:
                    _check_rounds(point["n"], _rounds(self, point["k"]))
                except ValueError as exc:  # here, not in a pool worker's trial
                    raise ValueError(f"grid point {i}: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        doc = json.loads(text)
        _check_keys(doc, [f.name for f in fields(cls)], "config")
        required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
        missing = [name for name in required if name not in doc]
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        return cls(**doc)


# algorithm key -> the scalar rule's phrase for its value, or a value set's
# (test of its value, what the test accepts)
_ALGORITHM_VALUES = {
    "certify": (lambda value: isinstance(value, bool), "true or false"),
    "epsilon": "a finite number",
    "error_constant": "a finite number",
    "mode": (lambda value: value in ("equivalence", "impossibility"), "'equivalence' or 'impossibility'"),
    "r_inf": "a finite number",
    "rounds": "a positive integer",
}


def _check_keys(doc, allowed, what: str, scope: str = "") -> None:
    """Reject a ``doc`` that is not a JSON object or holds a key outside ``allowed``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} is not an object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} keys{scope}: {', '.join(unknown)}")


@dataclass
class TrialRecord:
    experiment: str
    grid_index: int
    n: int
    d: int
    k: int
    trial: int
    seed: int
    error: float | None
    error_l2: float | None
    metric_sigma: float | None
    bound: float | None
    passed: bool
    extra: dict = field(default_factory=dict)
    wall_time_s: float = 0.0  # in-memory diagnostic; excluded from the CSV

    def __post_init__(self):
        ExperimentKind(self.experiment)  # an unknown experiment is a ValueError


# The CSV holds every field but the wall time, in field order.
CSV_COLUMNS = [f.name for f in fields(TrialRecord) if f.name != "wall_time_s"]


def derive_seed(master_seed: int, *key: int) -> int:
    """Stable 64-bit seed from (master_seed, *key)."""
    words = np.random.SeedSequence((int(master_seed),) + tuple(int(v) for v in key)).generate_state(2, np.uint64)
    return int(words[0])


def make_signal(
    d: int, k: int, rng: np.random.Generator, kind: str = "pm_uniform", magnitude: float = 1.0
) -> np.ndarray:
    """A k-sparse signal on a uniform random support with uniform random signs."""
    magnitude = check(magnitude, "magnitude", "a finite number")
    support = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
    signs = rng.integers(2, size=k) * 2.0 - 1.0
    if kind == "pm_uniform":
        vals = signs * rng.uniform(0.5, 1.5, size=k) * magnitude
    elif kind == "pm_uniform_above":  # magnitudes in [magnitude, 2*magnitude]
        vals = signs * rng.uniform(1.0, 2.0, size=k) * magnitude
    elif kind == "constant":
        vals = signs * magnitude
    else:
        raise ValueError(f"unknown signal kind {kind!r}")
    theta = np.zeros(d)
    theta[support] = vals
    return theta


def make_noise(n: int, spec: dict, seed: int) -> np.ndarray:
    """Length-n noise of a config's noise spec: zeros for kind "zero", else Gaussian of its sigma."""
    if spec.get("kind", "gaussian") == "zero":
        return np.zeros(n)
    return gaussian_noise(n, spec.get("sigma", 1.0), seed)


def disjoint_subsets(d: int, size_a: int, size_b: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two disjoint uniform random sorted int64 index arrays of the given sizes."""
    pick = rng.choice(d, size=size_a + size_b, replace=False)
    return np.sort(pick[:size_a]), np.sort(pick[size_a:])


def _gram_noise(x: np.ndarray, noise: np.ndarray) -> float:
    """||X^T xi||_inf."""
    return float(np.max(np.abs(x.T @ noise), initial=0.0))


def _errors(estimate: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """Sup-norm and l2 distance of an estimate from the truth."""
    delta = estimate - truth
    return float(np.max(np.abs(delta), initial=0.0)), float(np.linalg.norm(delta))


def _oblivious_instance(dims: Dims, cfg: ExperimentConfig, seed: int):
    """An oblivious-model ``(x, y, truth)`` and its noise level ||X^T xi||_inf."""
    x = sample_ensemble(dims, cfg.ensemble, derive_seed(seed, 0))
    truth = make_signal(dims.d, dims.k, rng_from(seed, 1))
    noise = make_noise(dims.n, cfg.noise, derive_seed(seed, 2))
    return x, x @ truth + noise, truth, _gram_noise(x, noise)


def _masking_pair(dims: Dims, cfg: ExperimentConfig, seed: int):
    """A design and an indistinguishable pair on disjoint supports of size k/2."""
    x = sample_ensemble(dims, cfg.ensemble, derive_seed(seed, 0))
    half = max(dims.k // 2, 1)
    s, t = disjoint_subsets(dims.d, half, half, rng_from(seed, 1))
    return x, build_indistinguishable_pair(x, s, t, MASKING_BASE)


# ---------------------------------------------------------------------------
# Trial bodies return (error, error_l2, metric_sigma, bound, extra); each
# kind's pass rule reads only the error, bound and extra columns, so the CSV
# alone decides it.  _KINDS pairs the two.  Estimators never see the truth;
# the trial body scores their estimate with _errors.
# ---------------------------------------------------------------------------


def _trial_oblivious(dims: Dims, cfg: ExperimentConfig, seed: int):
    x, y, truth, msig = _oblivious_instance(dims, cfg, seed)
    r = max(msig * math.sqrt(math.log(dims.n)), 1e-12)
    R = float(np.linalg.norm(truth))
    rep = oblivious_recover(x, y, dims.k, R, r)
    const = float(cfg.algorithm.get("error_constant", frozen.OBLIVIOUS_ERROR_CONSTANT))
    return *_errors(rep.estimate, truth), msig, const * r, {"r": r}


def _trial_adaptive(dims: Dims, cfg: ExperimentConfig, seed: int):
    x, pair = _masking_pair(dims, cfg, seed)
    truth, xi = pair.theta1, pair.xi1
    msig = _gram_noise(x, xi)
    r = MASKING_BASE / 100.0
    cert = None
    if cfg.algorithm.get("certify", False):
        cert = certify_linf_rip(x, 0.25, 2 * dims.k, mode="exact")
    rep = iht(x, pair.shared_y, dims.k, MASKING_BASE, r)
    extra = {"r": r, "v_linf": float(np.max(np.abs(pair.theta2 - pair.theta1)))}
    if cert is not None:
        extra["cert_value"] = cert.achieved
        extra["certified"] = 1.0 if cert.holds else 0.0
    return *_errors(rep.estimate, truth), msig, r + 2.0 * msig, extra


def _trial_reduction(dims: Dims, cfg: ExperimentConfig, seed: int):
    x, y, truth, msig = _oblivious_instance(dims, cfg, seed)
    r = float(cfg.noise.get("sigma", 1.0)) / 100.0
    R = float(np.linalg.norm(truth))
    rep = osr_reduction(x, y, dims.k, R, r)
    const = float(cfg.algorithm.get("error_constant", frozen.REDUCTION_ERROR_CONSTANT))
    bound = const * msig * math.sqrt(math.log(dims.n) * math.log(R / r)) if R > r else const * msig
    return *_errors(rep.estimate, truth), msig, bound, {"r": r}


def _trial_separation(dims: Dims, cfg: ExperimentConfig, seed: int):
    x, pair = _masking_pair(dims, cfg, seed)

    y1 = x @ pair.theta1 + pair.xi1
    y2 = x @ pair.theta2  # member 2 is noiseless
    ytol = 1e-9 * (1.0 + float(np.max(np.abs(pair.shared_y), initial=0.0)))
    a_ok = float(np.max(np.abs(y1 - y2), initial=0.0)) <= ytol

    m1 = _gram_noise(x, pair.xi1)
    sep = float(np.max(np.abs(pair.theta1 - pair.theta2)))

    R = max(float(np.linalg.norm(pair.theta1)), float(np.linalg.norm(pair.theta2)))
    r = max(m1 * math.sqrt(math.log(dims.n)), 1e-12)
    rep = oblivious_recover(x, pair.shared_y, dims.k, R, r)
    e1 = _errors(rep.estimate, pair.theta1)[0]
    e2 = _errors(rep.estimate, pair.theta2)[0]
    tol = 1e-12
    # does the estimate miss the problem's guarantee, error <= 2 ||X^T xi||_inf, on either member?
    c_ok = (e1 > 2.0 * m1 + tol) or (e2 > tol)

    extra = {
        "a_ok": 1.0 if a_ok else 0.0,
        "c_ok": 1.0 if c_ok else 0.0,
        "v_linf": sep,
        "err_member1": e1,
        "err_member2": e2,
        "gram_noise1": m1,
    }
    return sep, None, m1, 2.0 * m1, extra


def _trial_linf_rip_sweep(dims: Dims, cfg: ExperimentConfig, seed: int):
    x = sample_ensemble(dims, cfg.ensemble, derive_seed(seed, 0))
    eps = float(cfg.algorithm.get("epsilon", 0.25))
    cert = certify_linf_rip(x, eps, dims.k, mode="exact")
    return cert.achieved, None, None, eps, {"s": float(dims.k)}


def _trial_metric_equivalence(dims: Dims, cfg: ExperimentConfig, seed: int):
    mode = cfg.algorithm.get("mode", "equivalence")
    x = sample_ensemble(dims, cfg.ensemble, derive_seed(seed, 0))
    rng = rng_from(seed, 1)
    if mode == "impossibility":
        i = int(rng.integers(dims.d))
        pair = build_metric_impossibility_pair(x, i)
        rest = np.setdiff1d(np.arange(dims.d), [i])
        s = np.sort(rng.choice(rest, size=dims.k, replace=False))
        mr = compute_metrics(x, pair.xi1, s)
        scaled_l2 = mr.m_l2 * math.sqrt(dims.n) * math.sqrt(math.log(dims.k) / dims.n)
        candidates = [mr.m_linf, scaled_l2] + ([mr.m_ols] if mr.m_ols is not None else [])
        forced = float(np.max(np.abs(pair.theta1 - pair.theta2)))
        extra = {"m_linf": mr.m_linf, "m_l2_scaled": scaled_l2, "m_ols": mr.m_ols or 0.0}
        return max(candidates), None, mr.m_gram, forced / 3.0, extra

    noise = make_noise(dims.n, cfg.noise, derive_seed(seed, 2))
    s = np.sort(rng.choice(dims.d, size=dims.k, replace=False))
    mr = compute_metrics(x, noise, s)
    # the ols/support ratio must lie in [1/6, 6]
    extra = {"bound_low": 1.0 / 6.0, "m_ols": mr.m_ols or 0.0, "m_gram_support": mr.m_gram_support}
    return mr.ols_over_support, None, mr.m_gram, 6.0, extra


def _rounds(cfg: ExperimentConfig, k: int) -> int:
    """A partial_adaptive trial's adaptive rounds: ``algorithm.rounds``, else max(1, ceil(2 ln k))."""
    return int(cfg.algorithm.get("rounds", max(1, math.ceil(2.0 * math.log(k)))))


def _trial_partial_adaptive(dims: Dims, cfg: ExperimentConfig, seed: int):
    sigma = float(cfg.noise.get("sigma", 1.0))
    min_signal = 100.0 * sigma * math.sqrt(math.log(dims.d))
    truth = make_signal(dims.d, dims.k, rng_from(seed, 1), "pm_uniform_above", min_signal)
    oracle = MaskedOracle(dims, truth, sigma, derive_seed(seed, 0), ensemble=cfg.ensemble)
    n_rounds = _rounds(cfg, dims.k)
    R = float(np.linalg.norm(truth))
    r_inf = float(cfg.algorithm.get("r_inf", default_r_inf(sigma, dims.d)))
    rep = adaptive_support_recover(oracle, n_rounds, R, sigma, r_inf)
    const = float(cfg.algorithm.get("error_constant", frozen.PARTIAL_ADAPTIVE_ERROR_CONSTANT))
    bound = const * sigma * math.sqrt(math.log(dims.d))
    extra = {
        "exact_support": 1.0 if np.array_equal(rep.estimate != 0, truth != 0) else 0.0,
        "rows_consumed": float(rep.diagnostics["rows_consumed"]),
        "realized_sigma": max(q.noise_corr for q in oracle.query_log),
    }
    return *_errors(rep.estimate, truth), None, bound, extra


def _trial_threshold_stats(dims: Dims, cfg: ExperimentConfig, seed: int):
    x = sample_ensemble(dims, cfg.ensemble, derive_seed(seed, 0))
    noise = make_noise(dims.n, cfg.noise, derive_seed(seed, 2))
    msig = _gram_noise(x, noise)
    truth = make_signal(dims.d, dims.k, rng_from(seed, 1), "pm_uniform_above", SNR_CONSTANT * msig)
    y = x @ truth + noise
    stats = threshold_stats(x, y, truth, 0.5 * SNR_CONSTANT * msig)
    # at most 2k false positives, at most 95% of the signal mass missed
    extra = {"fn_ratio": stats.fn_energy_ratio, "fn_cap": 0.95, "fp": float(len(stats.s_fp))}
    return float(len(stats.s_fp)), None, msig, 2.0 * dims.k, extra


def _within(error: float, bound: float, extra: dict) -> bool:
    return error <= bound


def _within_slack(error: float, bound: float, extra: dict) -> bool:
    return error <= bound + BOUND_SLACK


def _reaches(error: float, bound: float, extra: dict) -> bool:
    return error >= bound


def _metric_pass(error: float, bound: float, extra: dict) -> bool:
    if "bound_low" in extra:  # equivalence: the ols/support ratio lies in [low, high]
        return extra["bound_low"] <= error <= bound
    return error < bound  # impossibility: the worst metric stays below forced/3


def _exact_support_within(error: float, bound: float, extra: dict) -> bool:
    return extra["exact_support"] >= 1.0 and error <= bound


def _threshold_pass(error: float, bound: float, extra: dict) -> bool:
    return error <= bound and extra["fn_ratio"] <= extra["fn_cap"]


# kind -> (trial body, pass rule over (error, bound, extra), cfg.algorithm keys
# the trial body reads); a config setting any other algorithm key is rejected
_KINDS = {
    ExperimentKind.OBLIVIOUS_RECOVERY: (_trial_oblivious, _within, {"error_constant"}),
    ExperimentKind.ADAPTIVE_RECOVERY: (_trial_adaptive, _within_slack, {"certify"}),
    ExperimentKind.REDUCTION_RECOVERY: (_trial_reduction, _within, {"error_constant"}),
    ExperimentKind.SEPARATION: (_trial_separation, _reaches, set()),
    ExperimentKind.LINF_RIP_SWEEP: (_trial_linf_rip_sweep, _within, {"epsilon"}),
    ExperimentKind.METRIC_EQUIVALENCE: (_trial_metric_equivalence, _metric_pass, {"mode"}),
    ExperimentKind.PARTIAL_ADAPTIVE: (
        _trial_partial_adaptive, _exact_support_within, {"rounds", "r_inf", "error_constant"}
    ),
    ExperimentKind.THRESHOLD_STATS: (_trial_threshold_stats, _threshold_pass, set()),
}


def _run_one(cfg: ExperimentConfig, grid_index: int, trial: int) -> TrialRecord:
    start = time.perf_counter()
    point = cfg.grid[grid_index]
    dims = Dims(n=int(point["n"]), d=int(point["d"]), k=int(point["k"]))
    seed = derive_seed(cfg.master_seed, grid_index, trial)
    try:
        error, error_l2, msig, bound, extra = _KINDS[cfg.kind][0](dims, cfg, seed)
    except DOMAIN_FAILURES as exc:  # recorded, not fatal
        error = error_l2 = msig = bound = None
        extra = {"failed": 1.0, "failure": type(exc).__name__}
    rec = TrialRecord(
        experiment=cfg.kind.value,
        grid_index=grid_index,
        n=dims.n,
        d=dims.d,
        k=dims.k,
        trial=trial,
        seed=seed,
        error=error,
        error_l2=error_l2,
        metric_sigma=msig,
        bound=bound,
        passed=False,
        extra=extra,
    )
    rec.passed = recompute_pass(rec)
    rec.wall_time_s = time.perf_counter() - start
    return rec


def run_experiment(cfg: ExperimentConfig) -> tuple[list[TrialRecord], dict]:
    """One record per (grid point, trial); deterministic in the master seed."""
    tasks = [(gi, t) for gi in range(len(cfg.grid)) for t in range(cfg.trials)]
    threads = os.environ.get(THREADS_ENV, "1")
    workers = int(threads) if threads.strip().isdecimal() else 0
    if workers < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {threads!r}")
    if workers > 1:
        # no more workers than trials; each fills designs on its share of the cores
        workers = min(workers, len(tasks))
        with ProcessPoolExecutor(
            max_workers=workers, initializer=core._share_cores, initargs=(workers,)
        ) as pool:
            records = list(pool.map(_run_one, [cfg] * len(tasks), *zip(*tasks)))
    else:
        records = [_run_one(cfg, gi, t) for gi, t in tasks]
    records.sort(key=lambda r: (r.grid_index, r.trial))
    summary = summarize(records)
    if cfg.output:
        write_csv(records, cfg.output)
    return records, summary


def _median(vals: list[float]) -> float | None:
    vals = [v for v in vals if v is not None]
    return float(np.median(vals)) if vals else None


def summarize(records: list[TrialRecord]) -> dict:
    """Deterministic fold over records sorted by (grid point, trial); a grid point is
    its (grid_index, n, d, k), so CSVs of different grids are not folded together."""
    by_grid: dict[tuple[int, int, int, int], list[TrialRecord]] = {}
    for rec in sorted(records, key=lambda r: (r.grid_index, r.trial)):
        by_grid.setdefault((rec.grid_index, rec.n, rec.d, rec.k), []).append(rec)
    grids = []
    for point in sorted(by_grid):
        recs = by_grid[point]
        grids.append(
            {
                "grid_index": recs[0].grid_index,
                "n": recs[0].n,
                "d": recs[0].d,
                "k": recs[0].k,
                "trials": len(recs),
                "passes": sum(1 for r in recs if r.passed),
                "pass_rate": sum(1 for r in recs if r.passed) / len(recs),
                "median_error": _median([r.error for r in recs]),
                "median_bound": _median([r.bound for r in recs]),
            }
        )
    summary = {"experiment": records[0].experiment if records else None, "grids": grids}

    # For masking/separation sweeps over several k, record the scaling
    # regressions of the median separation both against log k and log sqrt(k),
    # over points in increasing k, each with its n (records may pool grids).
    if records and records[0].experiment == ExperimentKind.SEPARATION.value and len(grids) >= 2:
        points = []
        for g, point in zip(grids, sorted(by_grid)):
            vals = [r.extra.get("v_linf") for r in by_grid[point] if "v_linf" in r.extra]
            if vals:
                points.append((g["k"], g["n"], float(np.median(vals))))
        ks, ns, meds = ([p[i] for p in sorted(points)] for i in range(3))
        if len(ks) >= 2 and all(m > 0 for m in meds):
            slope_k = float(np.polyfit(np.log(ks), np.log(meds), 1)[0])
            summary["masking_scaling"] = {
                "k": ks,
                "n": ns,
                "median_v_linf": meds,
                "slope_vs_log_k": slope_k,
                "slope_vs_log_sqrt_k": 2.0 * slope_k,
            }
    return summary


def recompute_pass(rec: TrialRecord) -> bool:
    """Re-derive the pass flag from the record's own columns."""
    if rec.error is None or rec.bound is None:
        return False
    return bool(_KINDS[ExperimentKind(rec.experiment)][1](rec.error, rec.bound, rec.extra))


# ---------------------------------------------------------------------------
# CSV round-trip.  Floats are rendered with repr (shortest exact form), so a
# rerun with the same seed produces identical bytes.
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, dict):
        return ";".join(f"{key}={_fmt(v[key])}" for key in sorted(v))
    return str(v)


def _parse_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


def _parse_extra(text: str) -> dict:
    out = {}
    if not text:
        return out
    for part in text.split(";"):
        key, eq, val = part.partition("=")
        if not (key and eq):
            raise ValueError(f"expected key=value, got {part!r}")
        try:
            out[key] = float(val)
        except ValueError:
            out[key] = val
    return out


# type TrialRecord declares for a column -> parser of its cells
_PARSERS = {
    str: str,
    int: int,
    float | None: lambda text: float(text) if text else None,
    bool: _parse_flag,
    dict: _parse_extra,
}
_COLUMN_PARSERS = [(name, _PARSERS[hint]) for name, hint in get_type_hints(TrialRecord).items() if name in CSV_COLUMNS]


def write_csv(records: list[TrialRecord], path: str | Path) -> None:
    """Write ``records`` to ``path`` through :func:`core.replace_file`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in sorted(records, key=lambda r: (r.grid_index, r.trial)):
        writer.writerow([_fmt(getattr(rec, name)) for name in CSV_COLUMNS])
    replace_file(path, [buf.getvalue().encode()])


def _parse_row(row: list[str]) -> TrialRecord:
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, found {len(row)}")
    cells = {}
    for (name, parse), text in zip(_COLUMN_PARSERS, row):
        try:
            cells[name] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return TrialRecord(**cells)


def read_csv(path: str | Path) -> list[TrialRecord]:
    """The records of a CSV that :func:`write_csv` wrote; a malformed line is a ValueError naming it."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode()  # whole, so a decoding error's offset is into the file
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        if next(reader, None) != CSV_COLUMNS:
            raise ValueError(f"header does not match schema {CSV_SCHEMA}")
        return [_parse_row(row) for row in reader]
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}:{max(reader.line_num, 1)}: {exc}") from None
