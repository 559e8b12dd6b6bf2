"""Seeded Monte Carlo experiment runner with deterministic CSV output.

A config names an experiment kind, a dimension grid, noise/signal specs, and
algorithm knobs.  Each (grid point, trial) pair gets a seed derived by hashing
``(master_seed, grid_index, trial)``, so results are independent of execution
order and reruns are byte-identical.  Wall-clock times are kept on the
in-memory records only; they never reach the CSV, which must be reproducible.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import frozen
from .adversarial import ConstructionFailure, build_indistinguishable_pair, build_metric_impossibility_pair
from .core import (
    Dims,
    Ensemble,
    MeasurementMatrix,
    ModelTag,
    NoiseVector,
    SparseVector,
    build_instance,
    rng_from,
    sample_ensemble,
)
from .linops import IndexSet, SolverFailure
from .metrics import compute_metrics
from .padaptive import (
    MaskedOracle,
    SupportBlowupError,
    SupportEstimatorParams,
    adaptive_support_recover,
    default_r_inf,
    threshold_stats,
)
from .recovery import (
    DEFAULT_THRESHOLD_C,
    IhtParams,
    ObliviousParams,
    ReductionParams,
    iht,
    oblivious_recover,
    osr_reduction,
)
from .ripcert import BudgetExceeded, certify_linf_rip

__all__ = [
    "CSV_COLUMNS",
    "CSV_SCHEMA",
    "ExperimentConfig",
    "ExperimentKind",
    "TrialRecord",
    "disjoint_subsets",
    "make_signal",
    "read_csv",
    "recompute_pass",
    "run_experiment",
    "summarize",
    "write_csv",
]

CSV_SCHEMA = "linfrec-trials-v1"
CSV_COLUMNS = [
    "experiment",
    "grid_index",
    "n",
    "d",
    "k",
    "trial",
    "seed",
    "error",
    "error_l2",
    "metric_sigma",
    "bound",
    "passed",
    "extra",
]

THREADS_ENV = "LINFREC_THREADS"

# Roundoff slack when checking the adaptive bound r + 2 ||X^T xi||_inf.
BOUND_SLACK = 1e-12

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
    signal: dict = field(default_factory=lambda: {"kind": "pm_uniform", "magnitude": 1.0})
    algorithm: dict = field(default_factory=dict)
    output: str | None = None

    def __post_init__(self):
        self.kind = ExperimentKind(self.kind)
        self.ensemble = Ensemble(self.ensemble)
        if not self.grid:
            raise ValueError("dimension grid must be nonempty")
        if self.trials < 1:
            raise ValueError("need at least one trial")

    def to_json(self) -> str:
        doc = asdict(self)
        doc["kind"] = self.kind.value
        doc["ensemble"] = self.ensemble.value
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**json.loads(text))


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


def derive_seed(master_seed: int, *key: int) -> int:
    """Stable 64-bit seed from (master_seed, *key)."""
    words = np.random.SeedSequence((int(master_seed),) + tuple(int(v) for v in key)).generate_state(2, np.uint64)
    return int(words[0])


def make_signal(d: int, k: int, rng: np.random.Generator, spec: dict, magnitude: float | None = None) -> SparseVector:
    """A k-sparse signal on a uniform random support with uniform random signs."""
    kind = spec.get("kind", "pm_uniform")
    mag = float(magnitude if magnitude is not None else spec.get("magnitude", 1.0))
    support = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
    signs = rng.integers(2, size=k) * 2.0 - 1.0
    if kind == "pm_uniform":
        vals = signs * rng.uniform(0.5, 1.5, size=k) * mag
    elif kind == "pm_uniform_above":  # magnitudes in [mag, 2*mag]
        vals = signs * rng.uniform(1.0, 2.0, size=k) * mag
    elif kind == "constant":
        vals = signs * mag
    else:
        raise ValueError(f"unknown signal kind {kind!r}")
    theta = np.zeros(d)
    theta[support] = vals
    return SparseVector.from_dense(theta, budget=k)


def _make_noise(n: int, spec: dict, seed: int) -> NoiseVector:
    kind = spec.get("kind", "gaussian")
    if kind == "zero":
        return NoiseVector.zero(n)
    if kind == "gaussian":
        return NoiseVector.gaussian(n, float(spec.get("sigma", 1.0)), seed)
    raise ValueError(f"unknown noise kind {kind!r}")


def disjoint_subsets(d: int, size_a: int, size_b: int, rng: np.random.Generator) -> tuple[IndexSet, IndexSet]:
    """Two disjoint uniform random index sets of the given sizes."""
    pick = rng.choice(d, size=size_a + size_b, replace=False)
    return (
        IndexSet(np.sort(pick[:size_a]).astype(np.int64)),
        IndexSet(np.sort(pick[size_a:]).astype(np.int64)),
    )


def _gram_noise(x: MeasurementMatrix, noise: NoiseVector) -> float:
    """||X^T xi||_inf."""
    return float(np.max(np.abs(x.data.T @ noise.values), initial=0.0))


def _errors(estimate: SparseVector, truth: SparseVector) -> tuple[float, float]:
    """Sup-norm and l2 distance of an estimate from the truth."""
    delta = estimate.values - truth.values
    return float(np.max(np.abs(delta), initial=0.0)), float(np.linalg.norm(delta))


def _oblivious_instance(dims: Dims, cfg: ExperimentConfig, seed: int):
    """An oblivious-model instance and its noise level ||X^T xi||_inf."""
    x = sample_ensemble(dims, cfg.ensemble, derive_seed(seed, 0))
    truth = make_signal(dims.d, dims.k, rng_from(seed, 1), cfg.signal)
    noise = _make_noise(dims.n, cfg.noise, derive_seed(seed, 2))
    return build_instance(x, truth, noise, ModelTag.OBLIVIOUS), _gram_noise(x, noise)


def _masking_pair(dims: Dims, cfg: ExperimentConfig, seed: int):
    """A design and an indistinguishable pair on disjoint supports of size k/2."""
    x = sample_ensemble(dims, cfg.ensemble, derive_seed(seed, 0))
    half = max(dims.k // 2, 1)
    s, t = disjoint_subsets(dims.d, half, half, rng_from(seed, 1))
    base = float(cfg.algorithm.get("base_magnitude", 1.0))
    return x, base, build_indistinguishable_pair(x, s, t, base)


# ---------------------------------------------------------------------------
# Trial bodies return (error, error_l2, metric_sigma, bound, extra); each
# kind's pass rule reads only the error, bound and extra columns, so the CSV
# alone decides it.  _KINDS pairs the two.  Estimators never see the truth;
# the trial body scores their estimate with _errors.
# ---------------------------------------------------------------------------


def _trial_oblivious(dims: Dims, cfg: ExperimentConfig, seed: int):
    inst, msig = _oblivious_instance(dims, cfg, seed)
    r = max(msig * math.sqrt(math.log(dims.n)), 1e-12)
    R = float(np.linalg.norm(inst.truth.values))
    c = float(cfg.algorithm.get("c", DEFAULT_THRESHOLD_C))
    rep = oblivious_recover(inst.x, inst.y, ObliviousParams(k=dims.k, R=R, r=r, c=c))
    const = float(cfg.algorithm.get("error_constant", frozen.OBLIVIOUS_ERROR_CONSTANT))
    return *_errors(rep.estimate, inst.truth), msig, const * r, {"r": r}


def _trial_adaptive(dims: Dims, cfg: ExperimentConfig, seed: int):
    x, base, pair = _masking_pair(dims, cfg, seed)
    truth, xi = pair.theta1, pair.xi1
    msig = _gram_noise(x, xi)
    r = float(cfg.algorithm.get("r", base / 100.0))
    params = IhtParams(k=dims.k, R=base, r=r)
    cert = None
    if cfg.algorithm.get("certify", False):
        cert = certify_linf_rip(x, 0.25, 2 * dims.k, mode="exact")
    rep = iht(x, pair.shared_y, params)
    extra = {"r": r, "v_linf": float(np.max(np.abs(pair.theta2.values - pair.theta1.values)))}
    if cert is not None:
        extra["cert_value"] = cert.achieved
        extra["certified"] = 1.0 if cert.holds else 0.0
    return *_errors(rep.estimate, truth), msig, r + 2.0 * msig, extra


def _trial_reduction(dims: Dims, cfg: ExperimentConfig, seed: int):
    inst, msig = _oblivious_instance(dims, cfg, seed)
    r = float(cfg.noise.get("sigma", 1.0)) / 100.0
    R = float(np.linalg.norm(inst.truth.values))
    params = ReductionParams(k=dims.k, R=R, r=r)
    rep = osr_reduction(inst.x, inst.y, params)
    const = float(cfg.algorithm.get("error_constant", frozen.REDUCTION_ERROR_CONSTANT))
    bound = const * msig * math.sqrt(math.log(dims.n) * math.log(R / r)) if R > r else const * msig
    return *_errors(rep.estimate, inst.truth), msig, bound, {"r": r}


def _trial_separation(dims: Dims, cfg: ExperimentConfig, seed: int):
    x, _, pair = _masking_pair(dims, cfg, seed)

    y1 = x.data @ pair.theta1.values + pair.xi1.values
    y2 = x.data @ pair.theta2.values + pair.xi2.values
    ytol = 1e-9 * (1.0 + float(np.max(np.abs(pair.shared_y), initial=0.0)))
    a_ok = float(np.max(np.abs(y1 - y2), initial=0.0)) <= ytol

    m1 = _gram_noise(x, pair.xi1)
    m2 = _gram_noise(x, pair.xi2)
    sep = float(np.max(np.abs(pair.theta1.values - pair.theta2.values)))

    R = max(float(np.linalg.norm(pair.theta1.values)), float(np.linalg.norm(pair.theta2.values)))
    r = max(max(m1, m2) * math.sqrt(math.log(dims.n)), 1e-12)
    rep = oblivious_recover(x, pair.shared_y, ObliviousParams(k=dims.k, R=R, r=r))
    e1 = _errors(rep.estimate, pair.theta1)[0]
    e2 = _errors(rep.estimate, pair.theta2)[0]
    guarantee_c = float(cfg.algorithm.get("problem_constant", 2.0))
    tol = 1e-12
    c_ok = (e1 > guarantee_c * m1 + tol) or (e2 > guarantee_c * m2 + tol)

    extra = {
        "a_ok": 1.0 if a_ok else 0.0,
        "c_ok": 1.0 if c_ok else 0.0,
        "v_linf": sep,
        "err_member1": e1,
        "err_member2": e2,
        "gram_noise1": m1,
    }
    return sep, None, m1, 2.0 * max(m1, m2), extra


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
        s = IndexSet(np.sort(rng.choice(rest, size=dims.k, replace=False)).astype(np.int64))
        mr = compute_metrics(x, pair.xi1, s)
        scaled_l2 = mr.m_l2 * math.sqrt(dims.n) * math.sqrt(math.log(dims.k) / dims.n)
        candidates = [mr.m_linf, scaled_l2] + ([mr.m_ols] if mr.m_ols is not None else [])
        forced = float(np.max(np.abs(pair.theta1.values - pair.theta2.values)))
        extra = {"m_linf": mr.m_linf, "m_l2_scaled": scaled_l2, "m_ols": mr.m_ols or 0.0}
        return max(candidates), None, mr.m_gram, forced / 3.0, extra

    noise = _make_noise(dims.n, cfg.noise, derive_seed(seed, 2))
    s = IndexSet(np.sort(rng.choice(dims.d, size=dims.k, replace=False)).astype(np.int64))
    mr = compute_metrics(x, noise, s)
    low = float(cfg.algorithm.get("ratio_low", 1.0 / 6.0))
    high = float(cfg.algorithm.get("ratio_high", 6.0))
    extra = {"bound_low": low, "m_ols": mr.m_ols or 0.0, "m_gram_support": mr.m_gram_support}
    return mr.ratios.get("ols_over_support"), None, mr.m_gram, high, extra


def _trial_partial_adaptive(dims: Dims, cfg: ExperimentConfig, seed: int):
    sigma = float(cfg.noise.get("sigma", 1.0))
    snr_mult = float(cfg.algorithm.get("snr_multiple", 100.0))
    min_signal = snr_mult * sigma * math.sqrt(math.log(dims.d))
    truth = make_signal(dims.d, dims.k, rng_from(seed, 1), {"kind": "pm_uniform_above"}, magnitude=min_signal)
    oracle = MaskedOracle(dims, truth, sigma, derive_seed(seed, 0), ensemble=cfg.ensemble)
    n_rounds = int(cfg.algorithm.get("rounds", math.ceil(2.0 * math.log(dims.k))))
    params = SupportEstimatorParams(
        k=dims.k,
        n_total=dims.n,
        N=n_rounds,
        R=float(np.linalg.norm(truth.values)),
        r2=float(cfg.algorithm.get("r2", sigma)),
        r_inf=float(cfg.algorithm.get("r_inf", default_r_inf(sigma, dims.d))),
    )
    rep = adaptive_support_recover(oracle, params)
    const = float(cfg.algorithm.get("error_constant", frozen.PARTIAL_ADAPTIVE_ERROR_CONSTANT))
    bound = const * sigma * math.sqrt(math.log(dims.d))
    extra = {
        "exact_support": 1.0 if np.array_equal(rep.estimate.support, truth.support) else 0.0,
        "rows_consumed": float(rep.diagnostics["rows_consumed"]),
        "realized_sigma": max(q.noise_corr for q in oracle.query_log),
    }
    return *_errors(rep.estimate, truth), None, bound, extra


def _trial_threshold_stats(dims: Dims, cfg: ExperimentConfig, seed: int):
    x = sample_ensemble(dims, cfg.ensemble, derive_seed(seed, 0))
    noise = _make_noise(dims.n, cfg.noise, derive_seed(seed, 2))
    msig = _gram_noise(x, noise)
    snr_mult = float(cfg.algorithm.get("snr_multiple", 80.0))
    truth = make_signal(
        dims.d, dims.k, rng_from(seed, 1), {"kind": "pm_uniform_above"}, magnitude=snr_mult * msig
    )
    y = x.data @ truth.values + noise.values
    stats = threshold_stats(x, y, truth, 0.5 * snr_mult * msig)
    fp_cap = float(cfg.algorithm.get("fp_cap_factor", 2.0)) * dims.k
    fn_cap = float(cfg.algorithm.get("fn_cap", 0.95))
    extra = {"fn_ratio": stats.fn_energy_ratio, "fn_cap": fn_cap, "fp": float(len(stats.s_fp))}
    return float(len(stats.s_fp)), None, msig, fp_cap, extra


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


# kind -> (trial body, pass rule over (error, bound, extra))
_KINDS = {
    ExperimentKind.OBLIVIOUS_RECOVERY: (_trial_oblivious, _within),
    ExperimentKind.ADAPTIVE_RECOVERY: (_trial_adaptive, _within_slack),
    ExperimentKind.REDUCTION_RECOVERY: (_trial_reduction, _within),
    ExperimentKind.SEPARATION: (_trial_separation, _reaches),
    ExperimentKind.LINF_RIP_SWEEP: (_trial_linf_rip_sweep, _within),
    ExperimentKind.METRIC_EQUIVALENCE: (_trial_metric_equivalence, _metric_pass),
    ExperimentKind.PARTIAL_ADAPTIVE: (_trial_partial_adaptive, _exact_support_within),
    ExperimentKind.THRESHOLD_STATS: (_trial_threshold_stats, _threshold_pass),
}


def _run_one(cfg: ExperimentConfig, grid_index: int, trial: int) -> TrialRecord:
    point = cfg.grid[grid_index]
    dims = Dims(n=int(point["n"]), d=int(point["d"]), k=int(point["k"]))
    seed = derive_seed(cfg.master_seed, grid_index, trial)
    start = time.perf_counter()
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
    workers = int(os.environ.get(THREADS_ENV, "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    """Deterministic fold over records sorted by (grid point, trial)."""
    by_grid: dict[int, list[TrialRecord]] = {}
    for rec in sorted(records, key=lambda r: (r.grid_index, r.trial)):
        by_grid.setdefault(rec.grid_index, []).append(rec)
    grids = []
    for gi in sorted(by_grid):
        recs = by_grid[gi]
        grids.append(
            {
                "grid_index": gi,
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
    # regressions of the median separation both against log k and log sqrt(k).
    if records and records[0].experiment == ExperimentKind.SEPARATION.value and len(grids) >= 2:
        ks, meds = [], []
        for g, gi in zip(grids, sorted(by_grid)):
            vals = [r.extra.get("v_linf") for r in by_grid[gi] if "v_linf" in r.extra]
            if vals:
                ks.append(g["k"])
                meds.append(float(np.median(vals)))
        if len(ks) >= 2 and all(m > 0 for m in meds):
            slope_k = float(np.polyfit(np.log(ks), np.log(meds), 1)[0])
            summary["masking_scaling"] = {
                "k": ks,
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
    return str(v)


def _fmt_extra(extra: dict) -> str:
    parts = []
    for key in sorted(extra):
        parts.append(f"{key}={_fmt(extra[key])}")
    return ";".join(parts)


def _parse_extra(text: str) -> dict:
    out = {}
    if not text:
        return out
    for part in text.split(";"):
        key, _, val = part.partition("=")
        try:
            out[key] = float(val)
        except ValueError:
            out[key] = val
    return out


def write_csv(records: list[TrialRecord], path: str | Path) -> None:
    """Write ``records`` to ``path``, replacing any file already there.

    A per-process temp file is renamed to ``path`` after the old file is
    unlinked: ext4 (``auto_da_alloc``) flushes a file that is truncated or
    renamed over, which costs tens of milliseconds per write.
    """
    path = Path(path)
    tmp = path.with_name(f"{os.getpid()}.csv.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for rec in sorted(records, key=lambda r: (r.grid_index, r.trial)):
                writer.writerow(
                    [
                        rec.experiment,
                        rec.grid_index,
                        rec.n,
                        rec.d,
                        rec.k,
                        rec.trial,
                        rec.seed,
                        _fmt(rec.error),
                        _fmt(rec.error_l2),
                        _fmt(rec.metric_sigma),
                        _fmt(rec.bound),
                        _fmt(rec.passed),
                        _fmt_extra(rec.extra),
                    ]
                )
        path.unlink(missing_ok=True)
        tmp.rename(path)
    finally:
        tmp.unlink(missing_ok=True)


def read_csv(path: str | Path) -> list[TrialRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: header does not match schema {CSV_SCHEMA}")
        for row in reader:
            vals = dict(zip(CSV_COLUMNS, row))
            records.append(
                TrialRecord(
                    experiment=vals["experiment"],
                    grid_index=int(vals["grid_index"]),
                    n=int(vals["n"]),
                    d=int(vals["d"]),
                    k=int(vals["k"]),
                    trial=int(vals["trial"]),
                    seed=int(vals["seed"]),
                    error=float(vals["error"]) if vals["error"] else None,
                    error_l2=float(vals["error_l2"]) if vals["error_l2"] else None,
                    metric_sigma=float(vals["metric_sigma"]) if vals["metric_sigma"] else None,
                    bound=float(vals["bound"]) if vals["bound"] else None,
                    passed=vals["passed"] == "1",
                    extra=_parse_extra(vals["extra"]),
                )
            )
    return records
