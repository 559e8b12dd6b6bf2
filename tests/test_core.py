import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfrec.core import (
    Dims,
    Ensemble,
    ModelTag,
    NoiseKind,
    NoiseVector,
    RecoveryInstance,
    SparseVector,
    build_instance,
    load_instance,
    load_matrix,
    matrix_sha256,
    matrix_to_csv,
    sample_ensemble,
    save_instance,
    save_matrix,
    save_matrix_addressed,
)
from linfrec.core import MeasurementMatrix


def test_dims_validation():
    Dims(n=1, d=1, k=1)
    with pytest.raises(ValueError):
        Dims(n=1, d=5, k=0)
    with pytest.raises(ValueError):
        Dims(n=1, d=5, k=6)
    with pytest.raises(ValueError):
        Dims(n=0, d=5, k=1)


@pytest.mark.parametrize("ensemble", [Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED])
def test_seed_determinism(ensemble):
    dims = Dims(n=2, d=2, k=1)
    a = sample_ensemble(dims, ensemble, seed=99)
    b = sample_ensemble(dims, ensemble, seed=99)
    assert np.array_equal(a.data, b.data)
    c = sample_ensemble(dims, ensemble, seed=100)
    assert not np.array_equal(a.data, c.data)


def test_rademacher_entries_exact():
    dims = Dims(n=10_000, d=16, k=1)
    m = sample_ensemble(dims, Ensemble.RADEMACHER_SCALED, seed=3)
    assert set(np.unique(m.data)) == {-0.01, 0.01}


def test_gaussian_moments():
    # Monte Carlo moment check against the declared law N(0, 1/n).
    dims = Dims(n=1000, d=100, k=1)
    m = sample_ensemble(dims, Ensemble.GAUSSIAN_SCALED, seed=5)
    entries = m.data.ravel()
    stderr = np.sqrt(1.0 / dims.n) / np.sqrt(entries.size)
    assert abs(entries.mean()) <= 4 * stderr
    assert abs(entries.var() - 1e-3) <= 0.05 * 1e-3


@pytest.mark.parametrize("ensemble", [Ensemble.GAUSSIAN_SCALED, Ensemble.RADEMACHER_SCALED])
def test_empirical_variance_five_percent(ensemble):
    dims = Dims(n=1000, d=120, k=1)  # n*d >= 1e5
    m = sample_ensemble(dims, ensemble, seed=11)
    assert abs(m.data.var() - 1.0 / dims.n) <= 0.05 / dims.n


def test_fourth_moment_separates_ensembles():
    # Standardized fourth moment: 3 for Gaussian, 1 for Rademacher.
    dims = Dims(n=1000, d=1000, k=1)  # n*d = 1e6
    g = sample_ensemble(dims, Ensemble.GAUSSIAN_SCALED, seed=21).data.ravel()
    kurt_g = np.mean(g**4) / np.mean(g**2) ** 2
    assert abs(kurt_g - 3.0) <= 0.2
    r = sample_ensemble(dims, Ensemble.RADEMACHER_SCALED, seed=21).data.ravel()
    kurt_r = np.mean(r**4) / np.mean(r**2) ** 2
    assert abs(kurt_r - 1.0) <= 1e-12


def test_sample_ensemble_rejects_explicit():
    with pytest.raises(ValueError):
        sample_ensemble(Dims(n=2, d=2, k=1), Ensemble.EXPLICIT, seed=0)


def test_sparse_vector_invariants():
    sv = SparseVector.from_dense(np.array([0.0, 2.0, 0.0]), budget=1)
    assert sv.nnz == 1 and list(sv.support) == [1]
    with pytest.raises(ValueError):
        SparseVector.from_dense(np.array([1.0, 2.0]), budget=1)
    with pytest.raises(ValueError):
        SparseVector(values=np.array([1.0, 0.0]), support=np.array([1]), budget=2)


def test_noise_vector_invariants():
    with pytest.raises(ValueError):
        NoiseVector(values=np.array([0.0, 1.0]), kind=NoiseKind.ZERO)
    nv = NoiseVector.gaussian(50, sigma=2.0, seed=4)
    nv2 = NoiseVector.gaussian(50, sigma=2.0, seed=4)
    assert np.array_equal(nv.values, nv2.values)
    assert nv.sigma == 2.0


def test_build_instance_identity_design():
    x = MeasurementMatrix.explicit(np.eye(2))
    truth = SparseVector.from_dense(np.array([1.0, 0.0]), budget=1)
    inst = build_instance(x, truth, NoiseVector.zero(2), ModelTag.OBLIVIOUS)
    assert np.array_equal(inst.y, [1.0, 0.0])


def test_build_instance_zero_noise_exact(rng):
    x = MeasurementMatrix.explicit(rng.standard_normal((6, 4)))
    truth = SparseVector.from_dense(np.array([0.0, 1.5, 0.0, -2.0]), budget=2)
    inst = build_instance(x, truth, NoiseVector.zero(6), ModelTag.OBLIVIOUS)
    assert np.array_equal(inst.y, x.data @ truth.values)


def test_build_instance_pure_noise():
    x = MeasurementMatrix.explicit(np.eye(3))
    truth = SparseVector.zeros(3, budget=1)
    e1 = np.array([1.0, 0.0, 0.0])
    inst = build_instance(x, truth, NoiseVector.explicit(e1), ModelTag.ADAPTIVE)
    assert np.array_equal(inst.y, e1)


def test_build_instance_shape_mismatch():
    x = MeasurementMatrix.explicit(np.eye(3))
    with pytest.raises(ValueError):
        build_instance(x, SparseVector.zeros(4, 1), NoiseVector.zero(3), ModelTag.OBLIVIOUS)
    with pytest.raises(ValueError):
        build_instance(x, SparseVector.zeros(3, 1), NoiseVector.zero(4), ModelTag.OBLIVIOUS)


def test_recovery_instance_residual_check(rng):
    x = MeasurementMatrix.explicit(rng.standard_normal((5, 3)))
    truth = SparseVector.from_dense(np.array([1.0, 0.0, 0.0]), budget=1)
    y_bad = x.data @ truth.values + 1e-3
    with pytest.raises(ValueError):
        RecoveryInstance(x=x, y=y_bad, truth=truth, noise=NoiseVector.zero(5), model=ModelTag.OBLIVIOUS)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_seed_determinism_property(n, d, seed):
    dims = Dims(n=n, d=d, k=1)
    a = sample_ensemble(dims, Ensemble.GAUSSIAN_SCALED, seed)
    b = sample_ensemble(dims, Ensemble.GAUSSIAN_SCALED, seed)
    assert np.array_equal(a.data, b.data)


def test_matrix_file_roundtrip(tmp_path, rng):
    m = MeasurementMatrix.explicit(rng.standard_normal((7, 5)))
    p = tmp_path / "m.bin"
    save_matrix(m, p)
    back = load_matrix(p)
    assert np.array_equal(back.data, m.data)
    # identical content twice -> identical bytes (content addressable)
    p2 = tmp_path / "m2.bin"
    save_matrix(m, p2)
    assert p.read_bytes() == p2.read_bytes()
    assert matrix_sha256(p) == matrix_sha256(p2)


def test_addressed_save_keeps_an_existing_file(tmp_path, rng):
    m = MeasurementMatrix.explicit(rng.standard_normal((7, 5)))
    first = save_matrix_addressed(m, tmp_path)
    inode = first.stat().st_ino
    again = save_matrix_addressed(m, tmp_path)
    assert again == first
    assert again.stat().st_ino == inode  # not renamed over
    assert sorted(p.name for p in tmp_path.iterdir()) == [first.name]
    assert np.array_equal(load_matrix(again).data, m.data)


def test_matrix_file_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTAMATRIX")
    with pytest.raises(ValueError):
        load_matrix(p)


def test_matrix_csv_export(tmp_path, rng):
    m = MeasurementMatrix.explicit(rng.standard_normal((4, 3)))
    p = tmp_path / "m.csv"
    matrix_to_csv(m, p)
    back = np.loadtxt(p, delimiter=",")
    assert np.allclose(back, m.data, atol=0, rtol=0)


def test_instance_roundtrip_and_hash_check(tmp_path):
    dims = Dims(n=10, d=6, k=2)
    x = sample_ensemble(dims, Ensemble.GAUSSIAN_SCALED, seed=8)
    truth = SparseVector.from_dense(np.eye(6)[0] * 2.0, budget=2)
    noise = NoiseVector.gaussian(10, 0.1, seed=9)
    inst = build_instance(x, truth, noise, ModelTag.OBLIVIOUS)
    mp = tmp_path / "m.bin"
    save_matrix(x, mp)
    ip = tmp_path / "inst.json"
    save_instance(inst, ip, mp)
    back = load_instance(ip)
    assert np.array_equal(back.y, inst.y)
    assert np.array_equal(back.truth.values, truth.values)
    assert back.model is ModelTag.OBLIVIOUS
    # corrupt the matrix: hash check must fire
    mp.write_bytes(mp.read_bytes()[:-1] + b"\x00")
    with pytest.raises(ValueError):
        load_instance(ip)
