"""Noise model sampling, validation, and increment statistics."""
import tracemalloc

import numpy as np
import pytest

from ewslab.noise import (
    NoiseModel,
    build_noise_model,
    noise_increment,
    sample_eigenvalues,
    sample_haar_basis,
)

GRAM_TOL = 1e-12


def test_eigenvalues_land_in_declared_interval():
    vals = sample_eigenvalues(500, seed=3)
    assert vals.shape == (500,)
    assert np.all(vals >= 0.5) and np.all(vals <= 2.0)


def test_eigenvalues_are_seed_deterministic():
    a = sample_eigenvalues(16, seed=5)
    b = sample_eigenvalues(16, seed=5)
    c = sample_eigenvalues(16, seed=6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_haar_basis_is_orthonormal():
    for m in (1, 2, 7, 32):
        basis = sample_haar_basis(m, seed=1)
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(m))) <= GRAM_TOL


def test_haar_basis_sign_convention_is_deterministic():
    a = sample_haar_basis(8, seed=9)
    b = sample_haar_basis(8, seed=9)
    np.testing.assert_array_equal(a, b)


def test_rank_m_columns_follow_the_haar_law():
    # a Haar column is uniform on the sphere: at n = 5 a coordinate has
    # mean 0, E x^2 = 1/5 and E x^4 = 3/35.  Without the sign fix LAPACK's
    # QR leaves Q[0, 0] always negative.
    n, m, count = 5, 2, 4000
    first = np.array([build_noise_model(n, np.arange(n), m=m, seed=s).basis[0, 0]
                      for s in range(count)])
    assert abs(first.mean()) <= 5 * np.sqrt(1 / 5 / count)
    assert abs(np.mean(first ** 2) - 1 / 5) <= 5 * np.sqrt((3 / 35 - 1 / 25) / count)


def test_rank_m_basis_of_a_large_support_costs_support_times_m_memory():
    size, m = 40001, 8
    support = np.arange(0, size, 2)
    tracemalloc.start()
    try:
        model = build_noise_model(size, support, m=m, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert support.size == 20001 and peak < 64e6
    columns = model.basis[support]
    assert np.max(np.abs(columns.T @ columns - np.eye(m))) <= GRAM_TOL


def test_identity_model_properties():
    model = NoiseModel.identity(5)
    assert model.is_identity
    assert model.rank == 5
    np.testing.assert_array_equal(model.covariance(), np.eye(5))


def test_rank_deficient_model_covariance():
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    eig = np.array([2.0, 0.5])
    model = NoiseModel(3, eigenvalues=eig, basis=basis)
    assert model.rank == 2
    want = basis @ np.diag(eig) @ basis.T
    np.testing.assert_allclose(model.covariance(), want)


def test_model_validation_errors():
    good_basis = np.eye(3)[:, :2]
    with pytest.raises(ValueError):
        NoiseModel(3, eigenvalues=np.array([1.0, -1.0]), basis=good_basis)
    with pytest.raises(ValueError):
        NoiseModel(3, eigenvalues=np.array([1.0]), basis=good_basis)
    skewed = good_basis.copy()
    skewed[0, 1] = 0.5
    with pytest.raises(ValueError):
        NoiseModel(3, eigenvalues=np.array([1.0, 1.0]), basis=skewed)
    # the Gram check skips zero rows but still sees a column that is all zero
    for dead in (np.eye(3)[:, [0, 0]] * [1.0, 0.0], np.zeros((3, 2))):
        with pytest.raises(ValueError, match="orthonormal"):
            NoiseModel(3, eigenvalues=np.array([1.0, 1.0]), basis=dead)
    with pytest.raises(ValueError):
        NoiseModel(2, eigenvalues=np.array([1.0, 1.0, 1.0]), basis=np.eye(3))


def test_built_model_is_zero_away_from_support():
    model = build_noise_model(10, [2, 3, 4], m=2, seed=0)
    cov = model.covariance()
    off = [i for i in range(10) if i not in (2, 3, 4)]
    assert np.all(cov[off, :] == 0.0)
    assert np.all(cov[:, off] == 0.0)
    assert model.rank == 2
    sub = model.basis[[2, 3, 4], :]
    assert np.max(np.abs(sub.T @ sub - np.eye(2))) <= GRAM_TOL


def test_built_model_input_validation():
    with pytest.raises(ValueError):
        build_noise_model(5, [])
    with pytest.raises(ValueError):
        build_noise_model(5, [1, 1])
    with pytest.raises(ValueError):
        build_noise_model(5, [7])
    with pytest.raises(ValueError):
        build_noise_model(5, [0, 1], m=3)


def test_identity_increment_covariance():
    model = NoiseModel.identity(3)
    rng = np.random.default_rng(0)
    dt = 0.25
    draws = np.stack([noise_increment(model, dt, rng) for _ in range(40000)])
    cov = np.cov(draws.T)
    assert np.max(np.abs(cov - dt * np.eye(3))) < 0.01


def test_structured_increment_covariance():
    model = build_noise_model(6, [0, 1, 2, 3], m=3, seed=2)
    want = 0.1 * model.covariance()
    rng = np.random.default_rng(1)
    draws = np.stack([noise_increment(model, 0.1, rng) for _ in range(60000)])
    cov = np.cov(draws.T)
    scale = np.sqrt(np.outer(np.diag(want).clip(min=1e-12),
                             np.diag(want).clip(min=1e-12)))
    err = np.abs(cov - want) / scale
    active = np.ix_([0, 1, 2, 3], [0, 1, 2, 3])
    assert np.max(err[active]) < 0.05


def test_zero_dt_increment_still_consumes_draws():
    model = NoiseModel.identity(2)
    rng_a = np.random.default_rng(7)
    zero = noise_increment(model, 0.0, rng_a)
    np.testing.assert_array_equal(zero, np.zeros(2))
    after_zero = noise_increment(model, 1.0, rng_a)
    rng_b = np.random.default_rng(7)
    noise_increment(model, 1.0, rng_b)
    after_one = noise_increment(model, 1.0, rng_b)
    np.testing.assert_array_equal(after_zero, after_one)
