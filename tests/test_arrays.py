"""The array rule: ``core``'s checks hold every vector, index set and design argument, each naming it."""

import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

from linfrec.adversarial import build_indistinguishable_pair, build_masking_vector
from linfrec.core import (
    MATRIX_MAGIC,
    Dims,
    Ensemble,
    RecoveryInstance,
    build_instance,
    check_design,
    check_vector,
    draw_tiles,
    load_instance,
    load_matrix,
    sample_ensemble,
    save_instance,
    save_matrix_addressed,
)
from linfrec.linops import hard_threshold_values, restricted_ols
from linfrec.metrics import compute_metrics
from linfrec.padaptive import MaskedOracle, threshold_stats
from linfrec.recovery import iht, oblivious_recover, osr_reduction

N, D = 30, 10


def _design():
    return sample_ensemble(Dims(n=N, d=D, k=2), Ensemble.GAUSSIAN_SCALED, 5)


def _wide():
    return sample_ensemble(Dims(n=30, d=20, k=2), Ensemble.GAUSSIAN_SCALED, 1)


def _oracle():
    return MaskedOracle(Dims(n=60, d=20, k=2), np.zeros(20), 0.5, master_seed=3)


def _instance(**fields):
    """A RecoveryInstance of the zero truth and noise on ``_design()``, with ``fields`` replaced."""
    valid = {"x": _design(), "y": np.zeros(N), "truth": np.zeros(D), "noise": np.zeros(N), "budget": 2}
    return RecoveryInstance(**{**valid, **fields})


def _loaded(keys, values):
    """load_instance on a saved instance whose JSON field ``keys`` holds ``values``."""
    with tempfile.TemporaryDirectory() as out:
        x = _design()
        path = Path(out) / "inst.json"
        save_instance(build_instance(x, np.zeros(D), np.zeros(N), 2), path, save_matrix_addressed(x, out))
        doc = json.loads(path.read_text())
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = np.asarray(values, dtype=object).tolist()
        path.write_text(json.dumps(doc))
        return load_instance(path)


# argument -> (the name its message starts with, the length it must have or
# None for any, a call that passes the vector as that argument)
VECTORS = {
    "iht.y": ("y", N, lambda v: iht(_design(), v, 2, 4.0, 1.0)),
    "oblivious_recover.y": ("y", N, lambda v: oblivious_recover(_design(), v, 2, 4.0, 1.0)),
    "osr_reduction.y": ("y", N, lambda v: osr_reduction(_design(), v, 2, 4.0, 1.0)),
    "MaskedOracle.truth": ("truth", 20, lambda v: MaskedOracle(Dims(n=60, d=20, k=2), v, 0.5, 3)),
    "threshold_stats.y": ("y", N, lambda v: threshold_stats(_design(), v, np.zeros(D), 1.0)),
    "threshold_stats.truth": ("truth", D, lambda v: threshold_stats(_design(), np.zeros(N), v, 1.0)),
    "compute_metrics.noise": ("noise", N, lambda v: compute_metrics(_design(), v, np.array([0, 1]))),
    "RecoveryInstance.y": ("y", N, lambda v: _instance(y=v)),
    "RecoveryInstance.truth": ("truth", D, lambda v: _instance(truth=v)),
    "RecoveryInstance.noise": ("noise", N, lambda v: _instance(noise=v)),
    "build_instance.truth": ("truth", D, lambda v: build_instance(_design(), v, np.zeros(N), 2)),
    "build_instance.noise": ("noise", N, lambda v: build_instance(_design(), np.zeros(D), v, 2)),
    "load_instance.y": ("field y", N, lambda v: _loaded(["y"], v)),
    "load_instance.truth": ("field truth.values", D, lambda v: _loaded(["truth", "values"], v)),
    "load_instance.noise": ("field noise.values", N, lambda v: _loaded(["noise", "values"], v)),
    "restricted_ols.rhs": ("rhs", N, lambda v: restricted_ols(_design(), np.array([0, 1]), v)),
    "hard_threshold_values.v": ("v", None, lambda v: hard_threshold_values(v, 2)),
}


def _at_middle(length, value):
    v = np.zeros(length)
    v[length // 2] = value
    return v


def _bad_vectors(length):
    """label -> (a vector that is not ``length`` finite numbers, the start of its message after the name)."""
    size = length or 8
    bad = {
        "2-D": (np.zeros((size, 1)), "has shape"),
        "nan": (_at_middle(size, np.nan), "has non-finite entries"),
        "inf": (_at_middle(size, np.inf), "has non-finite entries"),
        "-inf": (_at_middle(size, -np.inf), "has non-finite entries"),
        "str": (np.array(["0"] * size), "is not an array of numbers"),
        "bool": (np.zeros(size, dtype=bool), "is not an array of numbers"),
        "none": ([None] * size, "has non-finite entries"),  # None reads as NaN
    }
    if length is not None:
        bad["short"] = (np.zeros(length - 1), "has shape")
    return bad


VECTOR_CASES = [
    pytest.param(call, name, value, tail, id=f"{where}-{label}")
    for where, (name, length, call) in VECTORS.items()
    for label, (value, tail) in _bad_vectors(length).items()
]


@pytest.mark.parametrize("call, name, value, tail", VECTOR_CASES)
def test_a_malformed_vector_is_a_value_error_naming_it(call, name, value, tail):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} {tail}"):
        call(value)


# argument -> (its name, a call that passes the index array as that argument); d = 20
SUPPORTS = {
    "build_masking_vector.support": ("support", lambda s: build_masking_vector(_wide(), s)),
    "build_indistinguishable_pair.s": ("support", lambda s: build_indistinguishable_pair(_wide(), s, [10, 11], 1)),
    "build_indistinguishable_pair.t": ("base support", lambda t: build_indistinguishable_pair(_wide(), [10, 11], t, 1)),
}
MASKS = {
    "draw_tiles.mask": lambda m: draw_tiles((1,), 10, 20, Ensemble.GAUSSIAN_SCALED, m),
    "MaskedOracle.masked_observe.mask": lambda m: _oracle().masked_observe(5, m),
}
BAD_INDICES = {"float": np.array([1.0, 3.0]), "beyond-d": np.array([3, 20]), "negative": np.array([-1, 3])}
BAD_SUPPORTS = {**BAD_INDICES, "unsorted": np.array([3, 1]), "repeated": np.array([2, 2])}
# a mask may come in any order; its message, after "mask ", for each bad index array
MASK_MESSAGES = {
    "float": "must be a 1-D integer array, got float64 of shape (2,)",
    "beyond-d": "index 20 is out of range for d=20",
    "negative": "index -1 is out of range for d=20",
}


@pytest.mark.parametrize(
    "call, name, value",
    [
        pytest.param(call, name, value, id=f"{where}-{label}")
        for where, (name, call) in SUPPORTS.items()
        for label, value in BAD_SUPPORTS.items()
    ],
)
def test_a_malformed_support_is_a_value_error_naming_it(call, name, value):
    message = f"{name} must be strictly increasing integers in [0, 20), got {value.tolist()}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize(
    "call, value, tail",
    [
        pytest.param(call, BAD_INDICES[label], tail, id=f"{where}-{label}")
        for where, call in MASKS.items()
        for label, tail in MASK_MESSAGES.items()
    ],
)
def test_a_malformed_mask_is_a_value_error_naming_it(call, value, tail):
    with pytest.raises(ValueError, match=f"^mask {re.escape(tail)}$"):
        call(value)


def test_a_mask_may_come_in_any_order_and_repeat_an_index():
    want = draw_tiles((1,), 10, 40, Ensemble.GAUSSIAN_SCALED, np.array([3, 20]))
    got = draw_tiles((1,), 10, 40, Ensemble.GAUSSIAN_SCALED, np.array([20, 3, 20], dtype=np.uint8))
    assert got[0].tobytes() == want[0].tobytes() and np.array_equal(got[1], want[1])


# the certifiers' design checks are test_ripcert.py's test_certifiers_reject_a_design_with_a_non_finite_entry
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_matrix_file_is_a_value_error_naming_it(tmp_path, bad):
    path = tmp_path / "m.bin"
    path.write_bytes(MATRIX_MAGIC + struct.pack("<II", 2, 2) + np.array([0.0, 1.0, bad, 2.0]).tobytes())
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: payload has a non-finite entry$"):
        load_matrix(path)


def test_the_rule_copies_no_float64_vector_or_design():
    x = np.arange(24.0).reshape(4, 6)
    column, transposed = x[:, 1], x.T  # float64 views with a stride of 6 entries and Fortran order
    assert check_vector(column, "y", 4) is column
    assert check_design(transposed, "design") is transposed
    assert check_vector([1, 2], "y", 2).dtype == np.float64
