"""The scalar rule: ``core.check`` holds every number and count argument to one table of phrases."""

import math
import re

import numpy as np
import pytest

from linfrec.adversarial import build_indistinguishable_pair, build_metric_impossibility_pair
from linfrec.cli import main
from linfrec.core import (
    SCALARS,
    Dims,
    Ensemble,
    build_instance,
    check,
    draw_tiles,
    gaussian_noise,
    rng_from,
    sample_ensemble,
)
from linfrec.harness import derive_seed, make_signal
from linfrec.linops import hard_threshold_values
from linfrec.padaptive import MaskedOracle, adaptive_support_recover, default_r_inf, threshold_stats
from linfrec.recovery import iht, oblivious_recover, osr_reduction
from linfrec.ripcert import certify_l2_rip, certify_linf_rip, certify_pi, linf_rip_sample_floor


@pytest.mark.parametrize(
    "value, wanted, out",
    [
        (2, "a finite number", 2.0),
        (np.float64(-0.5), "a finite number", -0.5),
        (0, "a finite nonnegative number", 0.0),
        (np.int64(3), "a positive integer", 3),
        (0, "a nonnegative integer", 0),
        (10**400, "a positive integer", 10**400),
        (math.inf, "a number other than NaN", math.inf),
        (-(10**300), "a number other than NaN", -1e300),
    ],
)
def test_check_returns_a_float_or_an_int(value, wanted, out):
    got = check(value, "x", wanted)
    assert got == out and type(got) is type(out)


BAD = [True, False, "1", None, math.nan, math.inf, -math.inf, -(10**400)]
REJECTED = {
    "a finite number": [*BAD, 10**400],
    "a finite nonnegative number": [*BAD, 10**400, -1, -0.5],
    "a positive integer": [*BAD, 1.5, 0, -1],
    "a nonnegative integer": [*BAD, 1.5, -1],
    "a number other than NaN": [True, False, "1", None, math.nan, 10**400, -(10**400)],
}


def test_the_table_holds_four_phrases():
    assert sorted(SCALARS) == sorted(REJECTED)


@pytest.mark.parametrize(
    "wanted, value", [(wanted, value) for wanted, values in REJECTED.items() for value in values]
)
def test_check_names_what_it_rejects(wanted, value):
    with pytest.raises(ValueError, match=re.escape(f"x must be {wanted}, got {value!r}")):
        check(value, "x", wanted)


def _design():
    return sample_ensemble(Dims(n=30, d=10, k=2), Ensemble.GAUSSIAN_SCALED, 5)


def _oracle():
    return MaskedOracle(Dims(n=60, d=20, k=2), np.zeros(20), 0.5, master_seed=3)


def _pair(base):
    x = sample_ensemble(Dims(n=50, d=100, k=4), Ensemble.GAUSSIAN_SCALED, 4)
    return build_indistinguishable_pair(x, np.array([0, 1]), np.array([2, 3]), base)


def _instance(budget):
    x = _design()
    truth = np.zeros(10)
    return build_instance(x, truth, np.zeros(30), budget)


# argument -> a call that passes ``value`` as that argument, every other one valid
NUMBERS = {
    "iht.R": lambda v: iht(_design(), np.zeros(30), 2, v, 1.0),
    "iht.r": lambda v: iht(_design(), np.zeros(30), 2, 4.0, v),
    "iht.gain": lambda v: iht(_design(), np.zeros(30), 2, 4.0, 1.0, gain=v),
    "oblivious_recover.R": lambda v: oblivious_recover(_design(), np.zeros(30), 2, v, 1.0),
    "oblivious_recover.r": lambda v: oblivious_recover(_design(), np.zeros(30), 2, 4.0, v),
    "oblivious_recover.gain": lambda v: oblivious_recover(_design(), np.zeros(30), 2, 4.0, 1.0, gain=v),
    "osr_reduction.R": lambda v: osr_reduction(_design(), np.zeros(30), 2, v, 1.0),
    "osr_reduction.r": lambda v: osr_reduction(_design(), np.zeros(30), 2, 4.0, v),
    "adaptive_support_recover.R": lambda v: adaptive_support_recover(_oracle(), 1, v, 1.0, 1.0),
    "adaptive_support_recover.r2": lambda v: adaptive_support_recover(_oracle(), 1, 4.0, v, 1.0),
    "adaptive_support_recover.r_inf": lambda v: adaptive_support_recover(_oracle(), 1, 4.0, 1.0, v),
    "certify_l2_rip.epsilon": lambda v: certify_l2_rip(np.eye(5), v, 2),
    "certify_linf_rip.epsilon": lambda v: certify_linf_rip(np.eye(5), v, 2),
    "certify_pi.alpha": lambda v: certify_pi(np.eye(5), v),
    "linf_rip_sample_floor.epsilon": lambda v: linf_rip_sample_floor(v, 4),
    "MaskedOracle.noise_sigma": lambda v: MaskedOracle(Dims(n=10, d=20, k=1), np.zeros(20), v, 5),
    "default_r_inf.noise_sigma": lambda v: default_r_inf(v, 100),
    "build_indistinguishable_pair.base_magnitude": _pair,
    "gaussian_noise.sigma": lambda v: gaussian_noise(4, v, 1),
    "make_signal.magnitude": lambda v: make_signal(10, 2, np.random.default_rng(0), "constant", v),
}

COUNTS = {
    "iht.k": lambda v: iht(_design(), np.zeros(30), v, 4.0, 1.0),
    "oblivious_recover.k": lambda v: oblivious_recover(_design(), np.zeros(30), v, 4.0, 1.0),
    "osr_reduction.k": lambda v: osr_reduction(_design(), np.zeros(30), v, 4.0, 1.0),
    "adaptive_support_recover.rounds": lambda v: adaptive_support_recover(_oracle(), v, 4.0, 1.0, 1.0),
    "certify_l2_rip.s": lambda v: certify_l2_rip(np.eye(5), 0.5, v),
    "certify_linf_rip.s": lambda v: certify_linf_rip(np.eye(5), 0.5, v),
    "certify_l2_rip.trials": lambda v: certify_l2_rip(np.eye(5), 0.5, 2, mode="sampled", trials=v),
    "certify_linf_rip.trials": lambda v: certify_linf_rip(np.eye(5), 0.5, 2, mode="sampled", trials=v),
    "certify_l2_rip.seed": lambda v: certify_l2_rip(np.eye(5), 0.5, 2, mode="sampled", seed=v),
    "certify_linf_rip.seed": lambda v: certify_linf_rip(np.eye(5), 0.5, 2, mode="sampled", seed=v),
    "linf_rip_sample_floor.s": lambda v: linf_rip_sample_floor(0.25, v),
    "MaskedOracle.master_seed": lambda v: MaskedOracle(Dims(n=10, d=20, k=1), np.zeros(20), 1.0, v),
    "MaskedOracle.masked_observe.rows": lambda v: _oracle().masked_observe(v, np.empty(0, dtype=np.int64)),
    "default_r_inf.d": lambda v: default_r_inf(1.0, v),
    "Dims.n": lambda v: Dims(n=v, d=12, k=2),
    "Dims.d": lambda v: Dims(n=30, d=v, k=2),
    "Dims.k": lambda v: Dims(n=30, d=12, k=v),
    "hard_threshold_values.k": lambda v: hard_threshold_values(np.ones(4), v),
    "build_metric_impossibility_pair.i": lambda v: build_metric_impossibility_pair(_design(), v),
    "gaussian_noise.n": lambda v: gaussian_noise(v, 1.0, 1),
    "sample_ensemble.seed": lambda v: sample_ensemble(Dims(n=4, d=8, k=1), Ensemble.GAUSSIAN_SCALED, v),
    "build_instance.budget": _instance,
    "rng_from.key": lambda v: rng_from(1, v),
    "gaussian_noise.key": lambda v: gaussian_noise(4, 1.0, 3, v),
    "draw_tiles.key": lambda v: draw_tiles((1, v), 10, 20, Ensemble.GAUSSIAN_SCALED),
    "derive_seed.key": lambda v: derive_seed(1, v),
}

# an infinite threshold passes no coordinate (+inf) or every one (-inf)
INFINITE_OK = {"threshold_stats.threshold": lambda v: threshold_stats(_design(), np.zeros(30), np.ones(10), v)}

BAD_NUMBERS = {"True": True, "str": "0.25", "nan": math.nan, "inf": math.inf, "huge": 10**400, "-huge": -(10**400)}
# 10**400 is a count the rule accepts (a seed may be that large)
BAD_COUNTS = {**{k: v for k, v in BAD_NUMBERS.items() if k != "huge"}, "2.5": 2.5, "2.0": 2.0}
BAD_INFINITE_OK = {k: v for k, v in BAD_NUMBERS.items() if k != "inf"}

CASES = [
    pytest.param(call, where.rsplit(".", 1)[1], value, id=f"{where}-{label}")
    for table, bad in ((NUMBERS, BAD_NUMBERS), (COUNTS, BAD_COUNTS), (INFINITE_OK, BAD_INFINITE_OK))
    for where, call in table.items()
    for label, value in bad.items()
]


@pytest.mark.parametrize("call, name, value", CASES)
def test_a_malformed_scalar_is_a_value_error_naming_it(call, name, value):
    # a TypeError or OverflowError escapes pytest.raises and fails the test
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(value)


DESIGN = {"--n": "40", "--d": "80", "--k": "6"}
CLI_NUMBERS = [("gen", "--sigma"), ("gen", "--signal-magnitude"), ("adversarial", "--base-magnitude")]
CLI_COUNTS = [("gen", "--seed"), ("adversarial", "--seed"), ("gen", "--n"), ("gen", "--d"), ("gen", "--k")]
# each bad value's text; "=" keeps a leading minus from reading as a flag
CLI_BAD_NUMBERS = ["True", "nan", "inf", "1e400", "-1e400"]
CLI_BAD_COUNTS = ["True", "0.25", "nan", "inf", "2.5", f"-{10**400}"]


@pytest.mark.parametrize(
    "command, option, text",
    [
        pytest.param(command, option, text, id=f"{command}{option}={text[:6]}")
        for options, bad in ((CLI_NUMBERS, CLI_BAD_NUMBERS), (CLI_COUNTS, CLI_BAD_COUNTS))
        for command, option in options
        for text in bad
    ],
)
def test_a_malformed_option_is_a_usage_error_naming_it(tmp_path, capsys, command, option, text):
    design = [part for flag, value in DESIGN.items() if flag != option for part in (flag, value)]
    with pytest.raises(SystemExit) as exc_info:
        main([command, *design, f"{option}={text}", "--out-dir", str(tmp_path)])
    assert exc_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"linfrec {command}: error: argument {option}: ")
    assert list(tmp_path.iterdir()) == []
