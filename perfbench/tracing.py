"""Layer tracing for linfrec without touching its source.

A :class:`Tracer` replaces selected functions of ``linfrec`` wherever a
``linfrec`` module holds a reference to them (the defining module and every
module that imported the name), records one span per call, and puts the
originals back on :meth:`Tracer.restore`.  Spans stay in memory; the layer
metrics are folded from them once, after the traced calls.

Spans are only recorded in the process that installed the tracer.  A pooled
run therefore traces the harness alone (``HARNESS``), and the layers below it
come from a serial run of the same configuration (``FULL``).
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from collections import defaultdict

TRIAL = "harness._run_one"  # one call per trial; its span is "harness.trial"

HARNESS = ("harness.run_experiment", "harness.write_csv")

FULL = HARNESS + (
    TRIAL,
    "core.sample_ensemble",
    "padaptive.MaskedOracle.masked_observe",
    "padaptive.adaptive_support_recover",
    "recovery.iht",
    "recovery.oblivious_recover",
    "recovery.osr_reduction",
    "linops.restricted_ols",
    "linops.hard_threshold_values",
    "ripcert.certify_linf_rip",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _observe_sample_ensemble(tr, args, kwargs, out):
    dims = _arg(args, kwargs, 0, "dims")
    tr.counts["core.sample_ensemble.normals"] += dims.n * dims.d


def _observe_masked_observe(tr, args, kwargs, out):
    oracle, rows, mask = args[0], _arg(args, kwargs, 1, "rows"), _arg(args, kwargs, 2, "mask")
    d = oracle.dims.d
    tr.counts["padaptive.masked_observe.normals"] += rows * d
    tr.counts["padaptive.masked_observe.unmasked"] += rows * (d - len(mask))


def _observe_iht(tr, args, kwargs, out):
    tr.counts["recovery.iht.iterations"] += out.iterations


def _observe_osr_reduction(tr, args, kwargs, out):
    diag = out.diagnostics
    stop = diag.get("stop_round")
    tr.counts["recovery.osr_reduction.rounds_attempted"] += diag.get("rounds", 0) if stop is None else stop + 1
    tr.counts["recovery.osr_reduction.rounds_validated"] += out.iterations


def _before_restricted_ols(tr, args, kwargs, parent):
    # oblivious_recover calls restricted_ols exactly when its Phase 2 set L is
    # nonempty, with L as the index set; counting here also covers calls in
    # which the solver then fails.
    if parent == "recovery.oblivious_recover":
        tr.counts["recovery.correction_support"] += len(_arg(args, kwargs, 1, "s"))


def _observe_adaptive_support_recover(tr, args, kwargs, out):
    tr.counts["padaptive.rows_consumed"] += out.diagnostics["rows_consumed"]


def _observe_certify_linf_rip(tr, args, kwargs, out):
    x = _arg(args, kwargs, 0, "x")
    d = getattr(x, "data", x).shape[1]
    tr.counts["ripcert.gram_bytes"] = max(tr.counts["ripcert.gram_bytes"], 3 * 8 * d * d)


def _observe_write_csv(tr, args, kwargs, out):
    tr.counts["harness.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _observe_trial(tr, args, kwargs, out):
    tr.trial_wall[tr.trial_key(args)] = out.wall_time_s


OBSERVERS = {
    "core.sample_ensemble": _observe_sample_ensemble,
    "padaptive.MaskedOracle.masked_observe": _observe_masked_observe,
    "recovery.iht": _observe_iht,
    "recovery.osr_reduction": _observe_osr_reduction,
    "padaptive.adaptive_support_recover": _observe_adaptive_support_recover,
    "ripcert.certify_linf_rip": _observe_certify_linf_rip,
    "harness.write_csv": _observe_write_csv,
    TRIAL: _observe_trial,
}

# Called before the wrapped function, with the name of the enclosing span.
BEFORE = {"linops.restricted_ols": _before_restricted_ols}

# tracemalloc slows every allocation, so it is on only inside this call
# (whose traced time it inflates).
PEAK_MEMORY = "ripcert.certify_linf_rip"


def _linfrec_modules():
    return [m for k, m in list(sys.modules.items()) if m is not None and (k == "linfrec" or k.startswith("linfrec."))]


class Tracer:
    """Spans ``(name, start, end, parent index, trial key)`` plus counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self.errors: defaultdict = defaultdict(int)  # (name, exception type) -> count
        self.peak_bytes = 0  # tracemalloc peak inside PEAK_MEMORY calls
        self.trial_wall: dict = {}
        self.batch = 0  # set by the caller before each run_experiment call
        self._stack: list = []
        self._trial = None
        self._patches: list = []  # (owner, attribute, original)

    def trial_key(self, args) -> tuple:
        return (self.batch, int(args[1]), int(args[2]))  # _run_one(cfg, grid_index, trial)

    def install(self, names) -> None:
        for name in names:
            module, _, attr = name.partition(".")
            mod = sys.modules[f"linfrec.{module}"]
            if "." in attr:  # a method: patch the class that defines it
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                sites = [(cls, meth)]
            else:
                original = getattr(mod, attr)
                sites = [(m, k) for m in _linfrec_modules() for k, v in list(vars(m).items()) if v is original]
            wrapper = self._wrap(name, original)
            for owner, key in sites:
                setattr(owner, key, wrapper)
                self._patches.append((owner, key, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)

    def restored(self) -> bool:
        """True when every patched attribute holds its original object again."""
        return bool(self._patches) and all(vars(owner)[key] is original for owner, key, original in self._patches)

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        before = BEFORE.get(name)
        span_name = "harness.trial" if name == TRIAL else name
        peak = name == PEAK_MEMORY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == TRIAL:
                self._trial = self.trial_key(args)
            parent = self._stack[-1] if self._stack else -1
            if before is not None:
                before(self, args, kwargs, self.spans[parent][0] if parent >= 0 else None)
            idx = len(self.spans)
            self.spans.append((span_name, 0.0, 0.0, parent, self._trial))  # completed in finally
            self._stack.append(idx)
            if peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = time.perf_counter()
                if peak:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self._stack.pop()
                self.spans[idx] = (span_name, start, end, parent, self._trial)
                if name == TRIAL:
                    self._trial = None
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def closure_error(tr: Tracer) -> float:
    """Largest relative gap, over traced trials, between the summed self
    times of a trial's spans (layers plus the harness remainder) and the
    trial's own ``wall_time_s``."""
    total: defaultdict = defaultdict(float)
    for (name, _, _, _, trial), own in zip(tr.spans, self_times(tr.spans)):
        if trial is not None:
            total[trial] += own
    gaps = [abs(total[key] - wall) / wall for key, wall in tr.trial_wall.items()]
    return max(gaps, default=0.0)


def layer_metrics(tr: Tracer, trial_times: list[float], workers: int, rng_ceiling: float) -> dict:
    """Per-layer metrics of one traced segment, per trial where a rate is not asked for.

    ``trial_times`` are the records' ``wall_time_s``; ``rng_ceiling`` is the
    normals per second of a bare Philox fill of the size sample_ensemble drew.
    Layers the workload never called read 0.
    """
    dur, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for (name, start, end, _, _), s in zip(tr.spans, self_times(tr.spans)):
        dur[name] += end - start
        own[name] += s
        calls[name] += 1
    c = tr.counts
    trials = len(trial_times)
    busy = sum(trial_times)

    def per(v):
        return v / trials

    def ratio(a, b):
        return a / b if b else 0.0

    in_trials = dur["harness.trial"]
    draws = ratio(c["core.sample_ensemble.normals"], dur["core.sample_ensemble"])
    harness_s = workers * dur["harness.run_experiment"]
    return {
        "core.sample_ensemble.s": per(dur["core.sample_ensemble"]),
        "core.sample_ensemble.share": ratio(dur["core.sample_ensemble"], in_trials),
        "core.sample_ensemble.normals_per_s": draws,
        "core.rng_ceiling_ratio": ratio(draws, rng_ceiling),
        "padaptive.masked_observe.s": per(dur["padaptive.MaskedOracle.masked_observe"]),
        "padaptive.masked_observe.share": ratio(dur["padaptive.MaskedOracle.masked_observe"], in_trials),
        "padaptive.masked_observe.calls": per(calls["padaptive.MaskedOracle.masked_observe"]),
        "padaptive.masked_observe.normals": per(c["padaptive.masked_observe.normals"]),
        "padaptive.masked_observe.unmasked_share": ratio(
            c["padaptive.masked_observe.unmasked"], c["padaptive.masked_observe.normals"]
        ),
        "padaptive.adaptive_support_recover.self_s": per(own["padaptive.adaptive_support_recover"]),
        "padaptive.rows_consumed": per(c["padaptive.rows_consumed"]),
        "recovery.iht.s": per(dur["recovery.iht"]),
        "recovery.iht.calls": per(calls["recovery.iht"]),
        "recovery.iht.iterations": per(c["recovery.iht.iterations"]),
        "recovery.oblivious_recover.self_s": per(own["recovery.oblivious_recover"]),
        "recovery.osr_reduction.self_s": per(own["recovery.osr_reduction"]),
        "recovery.osr_reduction.holdout_accept_ratio": ratio(
            c["recovery.osr_reduction.rounds_validated"], c["recovery.osr_reduction.rounds_attempted"]
        ),
        "recovery.correction_support": per(c["recovery.correction_support"]),
        "linops.restricted_ols.s": per(dur["linops.restricted_ols"]),
        "linops.restricted_ols.calls": per(calls["linops.restricted_ols"]),
        "linops.solver_failures": per(tr.errors[("linops.restricted_ols", "SolverFailure")]),
        "linops.hard_threshold_values.s": per(dur["linops.hard_threshold_values"]),
        "linops.hard_threshold_values.calls": per(calls["linops.hard_threshold_values"]),
        "ripcert.certify_linf_rip.s": per(dur["ripcert.certify_linf_rip"]),
        "ripcert.certify_linf_rip.peak_mb": tr.peak_bytes / 2**20,
        "ripcert.gram_bytes": c["ripcert.gram_bytes"],
        "harness.trial_busy_s": per(busy),
        "harness.pool_utilization": ratio(busy, harness_s),
        "harness.overhead_s": per(harness_s - busy),
        "harness.write_csv.s": per(dur["harness.write_csv"]),
        "harness.csv_bytes": per(c["harness.csv_bytes"]),
        "trace.closure_error": closure_error(tr),
    }
