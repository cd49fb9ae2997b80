"""Mesh, implicit scheme, projections, and stationary variance runs.

The discrete-variance oracles are worked out independently from the
one-step recursion u' = (u + sigma dW) / (1 - lambda dt): each mode is
an AR(1) chain with multiplier a = 1/(1 - lambda dt), whose fixed-point
variance solves V = a^2 (V + sigma^2 dt), giving
sigma^2 dt a^2 / (1 - a^2) = sigma^2 / (2|lambda| + lambda^2 dt).
"""
import math

import numpy as np
import pytest

from ewslab.noise import NoiseModel, build_noise_model, noise_increment
from ewslab.simulate import (
    _BLOCK_BYTES,
    Mesh,
    SimConfig,
    VarianceEstimate,
    _batch_count,
    _steps_per_block,
    predict_discrete_variance,
    project,
    projection_weights,
    run,
    step,
)
from ewslab.quadrature import IndicatorBox
from ewslab.symbols import CustomSymbol, Radial2D, ToolAlpha, Zero

AR1_SINGLE_MODE = 1.0 / 2.1  # lambda=-1, sigma=1, dt=0.1
AR1_TWO_MODE = 1.0 / 2.01 + 1.0 / 4.04  # lambdas -1,-2 at dt=0.01


def test_mesh_geometry():
    mesh = Mesh(1.0, 3, 1)
    assert mesh.h == 0.5
    assert mesh.size == 3
    np.testing.assert_allclose(mesh.grid(), [-0.5, 0.0, 0.5])


def test_mesh_2d_grid():
    mesh = Mesh(1.0, 3, 2)
    assert mesh.size == 9
    pts = mesh.grid()
    assert pts.shape == (9, 2)
    np.testing.assert_allclose(pts[0], [-0.5, -0.5])
    np.testing.assert_allclose(pts[-1], [0.5, 0.5])


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh(0.0, 3, 1)
    with pytest.raises(ValueError):
        Mesh(1.0, 0, 1)
    with pytest.raises(ValueError):
        Mesh(1.0, 3, 3)


def test_step_matches_implicit_update():
    u = np.array([1.0, -2.0])
    drift = np.array([-1.0, -4.0])
    inc = np.array([0.3, 0.1])
    got = step(u, drift, 0.1, inc, sigma=2.0)
    want = (u + 2.0 * inc) / (1.0 - drift * 0.1)
    np.testing.assert_allclose(got, want)


def test_step_is_stable_for_large_dt():
    # the implicit update contracts no matter how large dt is
    u = np.array([10.0])
    drift = np.array([-5.0])
    for _ in range(100):
        u = step(u, drift, 50.0, np.zeros(1), sigma=1.0)
    assert abs(u[0]) < 1e-10


def test_projection_weights_include_cell_volume():
    mesh = Mesh(1.0, 4, 1)
    g = IndicatorBox(-0.5, 0.5)
    idx, w = projection_weights(g, mesh)
    np.testing.assert_allclose(mesh.grid()[idx], [-0.2, 0.2])
    np.testing.assert_allclose(w, [mesh.h, mesh.h])
    idx_u, w_u = projection_weights(g, mesh, unweighted=True)
    np.testing.assert_array_equal(idx_u, idx)
    np.testing.assert_allclose(w_u, [1.0, 1.0])


def test_project_is_weighted_sum():
    mesh = Mesh(1.0, 4, 1)
    g = IndicatorBox(-1.0, 1.0)
    u = np.array([1.0, 2.0, 3.0, 4.0])
    got = project(u, g, mesh)
    assert math.isclose(got, mesh.h * 10.0)


def test_config_validation():
    mesh = Mesh(1.0, 9, 1)
    g = IndicatorBox(-1.0, 1.0)
    with pytest.raises(ValueError):
        SimConfig(ToolAlpha(2.0), g, 0.5, mesh, 0.01, 1000)
    with pytest.raises(ValueError):
        SimConfig(ToolAlpha(2.0), g, -0.5, mesh, 0.01, 5)
    with pytest.raises(ValueError):
        SimConfig(ToolAlpha(2.0), g, -0.5, mesh, 0.01, 1000, batches=1)
    with pytest.raises(ValueError):
        SimConfig(ToolAlpha(2.0), g, -0.5, mesh, 0.01, 1000, burn_in=1000)
    wrong_size = build_noise_model(5, [0, 1])
    with pytest.raises(ValueError):
        SimConfig(ToolAlpha(2.0), g, -0.5, mesh, 0.01, 1000, noise=wrong_size)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="p must be finite"):
            SimConfig(ToolAlpha(2.0), g, bad, mesh, 0.01, 1000)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite"):
            SimConfig(ToolAlpha(2.0), g, -0.5, mesh, bad, 1000)
        with pytest.raises(ValueError, match="sigma must be finite"):
            SimConfig(ToolAlpha(2.0), g, -0.5, mesh, 0.01, 1000, sigma=bad)


def test_unstable_drift_is_rejected():
    mesh = Mesh(1.0, 9, 1)
    g = IndicatorBox(-1.0, 1.0)
    # a barely negative drift still passes; positive drift must not
    config = SimConfig(Zero(1), g, -1e-9, mesh, 0.01, 1000)
    predict_discrete_variance(config)
    up = CustomSymbol(lambda x: np.full(np.shape(x), 0.5), dim=1)
    bad = SimConfig(up, g, -0.1, mesh, 0.01, 1000)
    with pytest.raises(ValueError):
        predict_discrete_variance(bad)
    with pytest.raises(ValueError):
        run(bad)


def test_predicted_variance_single_mode():
    mesh = Mesh(1.0, 1, 1)  # one interior point at the origin
    config = SimConfig(Zero(1), IndicatorBox(-1.0, 1.0), -1.0, mesh,
                       dt=0.1, nt=100, unweighted=True)
    got = predict_discrete_variance(config)
    assert math.isclose(got, AR1_SINGLE_MODE, rel_tol=1e-14)
    assert math.isclose(got, 0.47619047619047616, rel_tol=1e-14)


def test_predicted_variance_two_modes():
    # drift -1 on the left point and -2 on the right point
    shift = CustomSymbol(lambda x: np.where(np.asarray(x) < 0.0, 0.0, -1.0),
                         dim=1)
    mesh = Mesh(1.0, 2, 1)
    config = SimConfig(shift, IndicatorBox(-1.0, 1.0), -1.0, mesh,
                       dt=0.01, nt=100, unweighted=True)
    got = predict_discrete_variance(config)
    assert math.isclose(got, AR1_TWO_MODE, rel_tol=1e-14)
    assert math.isclose(got, 0.7450371902861929, rel_tol=1e-12)


def test_predicted_variance_weighted_modes():
    # independent modes: variance adds with squared projection weights
    mesh = Mesh(1.0, 2, 1)
    config = SimConfig(ToolAlpha(1.0), IndicatorBox(-1.0, 1.0), -0.5, mesh,
                       dt=0.05, nt=100, sigma=1.5)
    lam = -np.abs(mesh.grid()) - 0.5
    per_mode = 1.5 ** 2 / (2.0 * np.abs(lam) + lam ** 2 * 0.05)
    want = float(np.sum((mesh.h ** 2) * per_mode))
    got = predict_discrete_variance(config)
    assert math.isclose(got, want, rel_tol=1e-13)


def test_predicted_variance_structured_noise():
    # oracle: iterate the exact covariance recursion to its fixed point
    mesh = Mesh(1.0, 4, 1)
    noise = build_noise_model(4, [0, 1, 2, 3], m=2, seed=4)
    config = SimConfig(ToolAlpha(1.0), IndicatorBox(-1.0, 1.0), -0.5, mesh,
                       dt=0.05, nt=100, sigma=0.8, noise=noise)
    lam = -np.abs(mesh.grid()) - 0.5
    d = 1.0 / (1.0 - lam * 0.05)
    cov_in = 0.8 ** 2 * 0.05 * noise.covariance()
    v = np.zeros((4, 4))
    for _ in range(20000):
        v = np.outer(d, d) * (v + cov_in)
    _, w = projection_weights(config.g, mesh)
    want = float(w @ v @ w)
    got = predict_discrete_variance(config)
    assert math.isclose(got, want, rel_tol=1e-10)


def test_predicted_variance_row_blocks_match_dense_formula():
    # a support wide enough that the structured prediction takes several row blocks
    mesh = Mesh(1.0, 401, 1)
    g = IndicatorBox(-0.95, 0.95)
    idx, w = projection_weights(g, mesh)
    assert _BLOCK_BYTES // (8 * idx.size) < idx.size
    noise = build_noise_model(mesh.size, idx, m=40, seed=7)
    config = SimConfig(ToolAlpha(2.0), g, -0.2, mesh, dt=0.02, nt=100,
                       sigma=0.7, noise=noise)
    lam = -mesh.grid()[idx] ** 2 - 0.2
    a = 1.0 / (1.0 - lam * 0.02)
    basis = noise.basis[idx]
    cov = (basis * noise.eigenvalues) @ basis.T
    pair = np.outer(a, a)
    want = float(w @ (0.7 ** 2 * 0.02 * cov * pair / (1.0 - pair)) @ w)
    assert math.isclose(predict_discrete_variance(config), want, rel_tol=1e-12)


def _reference_run(config):
    """The step-by-step simulation: one noise_increment and one step per time step."""
    drift = np.asarray(config.symbol(config.mesh.grid()), dtype=float) + config.p
    idx, w = projection_weights(config.g, config.mesh, config.unweighted)
    model = config.noise if config.noise is not None else NoiseModel.identity(config.mesh.size)
    n_kept = config.nt - config.burn_in
    n_batches = _batch_count(config, drift, idx, n_kept)
    means, variances, errs = [], [], []
    for replica in range(config.replicas):
        seq = np.random.SeedSequence(config.seed, spawn_key=(replica,))
        rng = np.random.Generator(np.random.Philox(seq))
        u = np.zeros(config.mesh.size)
        series = np.empty(n_kept)
        for i in range(config.nt):
            u = step(u, drift, config.dt, noise_increment(model, config.dt, rng), config.sigma)
            if i >= config.burn_in:
                series[i - config.burn_in] = w @ u[idx]
        means.append(np.mean(series))
        variances.append(float(np.var(series, ddof=1)))
        usable = (n_kept // n_batches) * n_batches
        block_vars = np.var(series[:usable].reshape(n_batches, -1), axis=1, ddof=1)
        errs.append(np.std(block_vars, ddof=1) / math.sqrt(n_batches))
    r = config.replicas
    se_within = math.sqrt(sum(e ** 2 for e in errs)) / r
    se_between = np.std(variances, ddof=1) / math.sqrt(r) if r > 1 else 0.0
    return VarianceEstimate(float(np.mean(means)), float(np.mean(variances)),
                            float(max(se_within, se_between)), r * n_batches,
                            tuple(variances))


@pytest.mark.parametrize("dim, rank, replicas, unweighted, timing", [
    (1, None, 1, False, "below"),   # one short block, recorded from step 0
    (1, None, 3, False, "ragged"),  # burn-in ends mid-block, last block partial
    (1, 12, 3, False, "ragged"),
    (1, 12, 1, True, "below"),
    (2, None, 3, True, "ragged"),
    (2, 9, 3, False, "below"),
    (2, 9, 1, False, "ragged"),
])
def test_run_matches_step_by_step_reference(dim, rank, replicas, unweighted, timing):
    if dim == 1:
        mesh, symbol, g = Mesh(1.0, 199, 1), ToolAlpha(2.0), IndicatorBox(-0.5, 0.5)
    else:
        mesh, symbol, g = Mesh(1.0, 15, 2), Radial2D(2.0), IndicatorBox([-0.4, -0.6], [0.6, 0.4])
    idx, _ = projection_weights(g, mesh)
    noise = None if rank is None else build_noise_model(mesh.size, idx, m=rank, seed=3)
    chunk = _steps_per_block(replicas, idx.size, mesh.size if rank is None else rank)
    nt, burn_in = (chunk // 2, 0) if timing == "below" else (2 * chunk + 37, chunk + 11)
    config = SimConfig(symbol, g, -0.3, mesh, dt=0.05, nt=nt, sigma=0.8, burn_in=burn_in,
                       replicas=replicas, seed=11, noise=noise, batches=4,
                       unweighted=unweighted)
    got, want = run(config), _reference_run(config)
    assert got.effective_samples == want.effective_samples
    for name in ("mean", "variance", "stderr"):
        assert math.isclose(getattr(got, name), getattr(want, name), rel_tol=1e-12), name
    np.testing.assert_allclose(got.replica_variances, want.replica_variances, rtol=1e-12, atol=0)


def test_run_identity_noise_states_match_reference_exactly():
    # with one support point the projection is a single product, so equal
    # estimates need every recorded state to match the one-step update
    mesh = Mesh(1.0, 199, 1)
    g = IndicatorBox(-0.004, 0.004)
    assert projection_weights(g, mesh)[0].size == 1
    chunk = _steps_per_block(3, 1, mesh.size)
    config = SimConfig(ToolAlpha(2.0), g, -0.3, mesh, dt=0.05, nt=2 * chunk + 37, sigma=0.8,
                       burn_in=chunk + 11, replicas=3, seed=11, batches=4)
    assert run(config) == _reference_run(config)


def test_run_matches_single_mode_oracle():
    mesh = Mesh(1.0, 1, 1)
    config = SimConfig(Zero(1), IndicatorBox(-1.0, 1.0), -1.0, mesh,
                       dt=0.1, nt=60000, replicas=2, seed=0, unweighted=True)
    est = run(config)
    assert abs(est.variance - AR1_SINGLE_MODE) <= 3.0 * est.stderr
    assert est.stderr > 0.0
    assert est.effective_samples >= 4
    assert len(est.replica_variances) == 2


def test_run_is_seed_reproducible():
    mesh = Mesh(1.0, 9, 1)
    config = SimConfig(ToolAlpha(2.0), IndicatorBox(-0.5, 0.5), -0.5, mesh,
                       dt=0.05, nt=4000, replicas=2, seed=12)
    a = run(config)
    b = run(config)
    assert a.variance == b.variance
    assert a.stderr == b.stderr
    other = SimConfig(ToolAlpha(2.0), IndicatorBox(-0.5, 0.5), -0.5, mesh,
                      dt=0.05, nt=4000, replicas=2, seed=13)
    assert run(other).variance != a.variance


def test_run_burn_in_message_names_required_length():
    mesh = Mesh(1.0, 9, 1)
    config = SimConfig(ToolAlpha(2.0), IndicatorBox(-0.5, 0.5), -1e-6, mesh,
                       dt=0.05, nt=1000, replicas=2)
    with pytest.raises(ValueError, match="raise nt"):
        run(config)
