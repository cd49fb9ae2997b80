"""Mesh, implicit scheme, projections, and stationary variance runs.

The discrete-variance oracles are worked out independently from the
one-step recursion u' = (u + sigma dW) / (1 - lambda dt): each mode is
an AR(1) chain with multiplier a = 1/(1 - lambda dt), whose fixed-point
variance solves V = a^2 (V + sigma^2 dt), giving
sigma^2 dt a^2 / (1 - a^2) = sigma^2 / (2|lambda| + lambda^2 dt).
"""
import contextlib
import dataclasses
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ewslab import simulate
from ewslab.noise import NoiseModel, as_generator, build_noise_model, noise_increment
from ewslab.simulate import (
    _BLOCK_BYTES,
    _chains,
    Mesh,
    SimConfig,
    VarianceEstimate,
    _estimate,
    _lumped_chains,
    _relax_steps,
    _schedule,
    _starts_stationary,
    _stationary_factor,
    _steps_per_block,
    predict_discrete_variance,
    projection_weights,
    run,
    run_sweep,
)
from ewslab.quadrature import Disc, IndicatorBox, QuarterDisc
from ewslab.symbols import CustomSymbol, Radial2D, ToolAlpha, Zero

AR1_SINGLE_MODE = 1.0 / 2.1  # lambda=-1, sigma=1, dt=0.1
AR1_TWO_MODE = 1.0 / 2.01 + 1.0 / 4.04  # lambdas -1,-2 at dt=0.01


def _drift(config):
    """The drift f + p at every mesh point."""
    return np.asarray(config.symbol(config.mesh.grid()), dtype=float) + config.p


def step(u, drift, dt, increment, sigma):
    """One implicit Euler update, (u + sigma * increment) / (1 - drift * dt): the
    independent reference that the step-by-step runs below advance with."""
    return (u + sigma * increment) / (1.0 - drift * dt)


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


@pytest.mark.parametrize("half_width, n", [(1.0, 1), (1.0, 199), (0.3, 64), (2.5, 1001), (1.0, 99999)])
def test_mesh_axis_points_are_exactly_antisymmetric(half_width, n):
    axis = Mesh(half_width, n).axis_points()
    assert np.array_equal(axis, -axis[::-1])
    # the old formula -L + 2 L i / (n + 1), up to its rounding, a few ulps of L
    np.testing.assert_allclose(axis, -half_width + 2.0 * half_width * np.arange(1, n + 1) / (n + 1),
                               rtol=0, atol=4 * np.spacing(half_width))


def test_closed_window_keeps_its_edge_points():
    # r = +-0.01 are mesh points; -1 + 2 i / (n + 1) rounds them past the edges
    idx, _ = projection_weights(IndicatorBox(-0.01, 0.01), Mesh(1.0, 99999))
    assert idx.size == 1001


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
    # a window off the root, one chain per support point: enough chains that the
    # prediction takes several row blocks, with rank-M and with identity noise
    mesh = Mesh(1.0, 801, 1)
    g = IndicatorBox(0.0, 0.95)
    idx, w = projection_weights(g, mesh)
    noise = build_noise_model(mesh.size, idx, m=40, seed=7)
    config = SimConfig(ToolAlpha(2.0), g, -0.2, mesh, dt=0.02, nt=100,
                       sigma=0.7, noise=noise)
    lam, _ = _chains_of(config)
    assert lam.size == idx.size and _BLOCK_BYTES // (8 * lam.size) < lam.size
    lam = -mesh.grid()[idx] ** 2 - 0.2
    a = 1.0 / (1.0 - lam * 0.02)
    basis = noise.basis[idx]
    cov = (basis * noise.eigenvalues) @ basis.T
    pair = np.outer(a, a)
    want = float(w @ (0.7 ** 2 * 0.02 * cov * pair / (1.0 - pair)) @ w)
    assert math.isclose(predict_discrete_variance(config), want, rel_tol=1e-12)
    want = float(np.sum(0.7 ** 2 * 0.02 * w ** 2 * a ** 2 / (1.0 - a ** 2)))
    identity = dataclasses.replace(config, noise=None)
    assert math.isclose(predict_discrete_variance(identity), want, rel_tol=1e-12)


def _support_point_prediction(config):
    """The discrete prediction summed over the support points, apart from the chains:
    each point is its own AR(1) chain, and two points whose noise has covariance c
    have stationary covariance sigma**2 c / (|lam_i| + |lam_j| + lam_i lam_j dt),
    paired by their projection weights.  Identity noise sums the diagonal, rank-M
    noise the dense support x support matrix of the basis rows."""
    idx, w = projection_weights(config.g, config.mesh, config.unweighted)
    lam = _drift(config)[idx]
    if config.noise is None:
        total = np.sum(w ** 2 / (2.0 * np.abs(lam) + lam ** 2 * config.dt))
    else:
        basis = config.noise.basis[idx]
        cov = (basis * config.noise.eigenvalues) @ basis.T
        total = w @ (cov / (np.abs(lam)[:, None] + np.abs(lam) + np.outer(lam, lam) * config.dt)) @ w
    return config.sigma ** 2 * float(total)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2)), st.sampled_from((None, 1, 3, 8, 32)),
       st.sampled_from((1.0, 0.8, 2.5, 1e-3)), st.sampled_from((0.01, 0.1, 1.0)),
       st.floats(-3.0, 0.0, exclude_max=True).filter(lambda p: p < -1e-8), st.booleans(),
       st.integers(0, 2**16))
@example(1, None, 1.0, 0.01, -1e-8, False, 0)
@example(2, 32, 1e-3, 1.0, -2.5, True, 1)
def test_chain_prediction_matches_the_support_point_sum(dim, rank, sigma, dt, p, unweighted,
                                                        seed):
    # the chains lump mirrored and equal-valued support points: the sum over
    # their covariance is the sum over the points', regrouped
    if dim == 1:
        mesh, symbol, g = Mesh(1.0, 199, 1), ToolAlpha(2.0), IndicatorBox(-0.5, 0.7)
    else:
        mesh, symbol, g = Mesh(1.0, 15, 2), Radial2D(2.0), QuarterDisc(0.8)
    idx, _ = projection_weights(g, mesh)
    noise = None if rank is None else build_noise_model(mesh.size, idx, m=rank, seed=seed)
    config = SimConfig(symbol, g, p, mesh, dt=dt, nt=100, sigma=sigma, noise=noise,
                       unweighted=unweighted)
    assert math.isclose(predict_discrete_variance(config), _support_point_prediction(config),
                        rel_tol=1e-13)


@pytest.mark.parametrize("p", [-1e-6, -1e-8])
def test_structured_prediction_does_not_cancel_as_lam_dt_goes_to_0(p):
    # the acceptance drift and window with rank-8 noise; the reference is
    # dt a_i a_j / (1 - a_i a_j) summed in 50 digits, where a_i a_j is within
    # |lam_i + lam_j| dt of 1 and 1 - a_i a_j cancels in doubles
    mpmath = pytest.importorskip("mpmath")
    mesh, g = Mesh(1.0, 21, 1), IndicatorBox(-0.5, 0.5)
    idx, w = projection_weights(g, mesh)
    noise = build_noise_model(mesh.size, idx, m=8, seed=3)
    config = SimConfig(ToolAlpha(2.0), g, p, mesh, dt=0.01, nt=100, noise=noise)
    with mpmath.workdps(50):
        mp = lambda values: [mpmath.mpf(float(v)) for v in values]
        lam = mp(_drift(config)[idx])
        basis = [mp(row) for row in noise.basis[idx]]
        ev = mp(noise.eigenvalues)
        dt = mpmath.mpf(0.01)
        a = [1 / (1 - v * dt) for v in lam]
        want = mpmath.fsum(
            wi * wj * mpmath.fsum(bi * e * bj for bi, e, bj in zip(rowi, ev, rowj))
            * dt * ai * aj / (1 - ai * aj)
            for wi, rowi, ai in zip(mp(w), basis, a) for wj, rowj, aj in zip(mp(w), basis, a))
        want = float(want)
    assert math.isclose(predict_discrete_variance(config), want, rel_tol=1e-13)


@pytest.mark.parametrize("window", [QuarterDisc(0.5), Disc(0.5)])
def test_disc_windows_select_the_mesh_points_inside_them(window):
    mesh = Mesh(1.0, 15, 2)
    pts = mesh.grid()
    inside = np.hypot(pts[:, 0], pts[:, 1]) <= 0.5
    if isinstance(window, QuarterDisc):
        inside &= (pts[:, 0] >= 0.0) & (pts[:, 1] >= 0.0)
    idx, w = projection_weights(window, mesh)
    np.testing.assert_array_equal(idx, np.nonzero(inside)[0])
    np.testing.assert_array_equal(w, np.full(idx.size, mesh.h ** 2))


def _acceptance_config(p=-0.1, sigma=1.0):
    return SimConfig(ToolAlpha(2.0), IndicatorBox(-0.5, 0.5), p, Mesh(1.0, 199, 1),
                     dt=0.01, nt=1000, sigma=sigma)


def _chains_of(config):
    drift = _drift(config)
    idx, w = projection_weights(config.g, config.mesh, config.unweighted)
    model = config.noise if config.noise is not None else NoiseModel.identity(config.mesh.size)
    return _lumped_chains(drift, idx, w, model)


def test_mirrored_support_points_share_a_chain():
    config = _acceptance_config()
    assert projection_weights(config.g, config.mesh)[0].size == 101
    lam, scale = _chains_of(config)
    assert lam.size == scale.size == 51
    # run_sweep lumps by symbol value, independent of p: the same 51 chains
    idx, w = projection_weights(config.g, config.mesh)
    values, _ = _lumped_chains(config.symbol(config.mesh.grid()), idx, w,
                               NoiseModel.identity(199))
    assert np.array_equal(values + config.p, lam)


@pytest.mark.parametrize("p", [-1.0, -0.01])
def test_lumped_identity_chains_carry_the_discrete_variance(p):
    # each chain is an AR(1) chain of intensity scale**2
    config = _acceptance_config(p, sigma=0.7)
    lam, scale = _chains_of(config)
    lumped = 0.7 ** 2 * np.sum(scale ** 2 / (2.0 * np.abs(lam) + lam ** 2 * config.dt))
    assert math.isclose(lumped, predict_discrete_variance(config), rel_tol=1e-12)


@pytest.mark.parametrize("dim, rank", [(1, 32), (1, 101), (2, 9)])
def test_lumped_rank_m_chains_carry_the_discrete_variance(dim, rank):
    if dim == 1:
        config = _acceptance_config(-0.05, sigma=0.7)
    else:
        mesh = Mesh(1.0, 15, 2)
        config = SimConfig(Radial2D(2.0), IndicatorBox([-0.4, -0.6], [0.6, 0.4]), -0.3, mesh,
                           dt=0.05, nt=1000, sigma=0.7)
    idx, _ = projection_weights(config.g, config.mesh)
    noise = build_noise_model(config.mesh.size, idx, m=rank, seed=5)
    config = dataclasses.replace(config, noise=noise)
    lam, mix = _chains_of(config)
    assert mix.shape == (rank, lam.size) and lam.size < idx.size
    a = 1.0 / (1.0 - lam * config.dt)
    pair = np.outer(a, a)
    lumped = 0.7 ** 2 * config.dt * np.sum((mix.T @ mix) * pair / (1.0 - pair))
    assert math.isclose(lumped, predict_discrete_variance(config), rel_tol=1e-12)


def _reference_run(config):
    """The step-by-step simulation: one draw and one step() per time step.

    Each replica first draws one normal per chain (one chain per drift
    value on the support, in np.unique order).  A config that starts
    stationary maps them through the start factor, then steps
    nt - burn_in steps and records every one; any other config ignores
    them, starts at 0, steps nt steps and records those after the
    burn-in.  Rank-M noise steps every mesh point with one
    noise_increment; each chain's start is spread over its group of
    support points as start / sum(w), so w @ u[idx] starts at the sum of
    the chain starts and, the group sharing one drift, follows the chains
    by linearity.  Identity noise steps the lumped chains: the weighted
    sum of the support points with one drift value, driven by one normal
    per chain scaled by the root of the chain's summed squared weights.
    """
    drift = np.asarray(config.symbol(config.mesh.grid()), dtype=float) + config.p
    idx, w = projection_weights(config.g, config.mesh, config.unweighted)
    model = config.noise if config.noise is not None else NoiseModel.identity(config.mesh.size)
    lam, group = np.unique(drift[idx], return_inverse=True)
    if model.is_identity:
        mix = np.sqrt(np.bincount(group, w ** 2))
    else:
        # the rank-M factor takes run's own chain noise map: S is near
        # singular (eigenvalues down to 1e-11 of the largest at rank 12),
        # so a last-bit change of mix moves the eigenvectors, and F z, by
        # about 2e-12, more than the 1e-12 these tests allow
        mix = _lumped_chains(drift, idx, w, model)[1]
    burn, n_batches = _schedule(config, lam)
    stationary = _starts_stationary(mix, config.replicas, _relax_steps(lam.max(), config.dt))
    factor = _stationary_factor(lam, mix, config.sigma, config.dt) if stationary else None
    n_kept = config.nt - burn
    skip = 0 if stationary else burn
    means, variances, errs = [], [], []
    for replica in range(config.replicas):
        seq = np.random.SeedSequence(config.seed, spawn_key=(replica,))
        rng = as_generator(seq)
        z = rng.standard_normal(lam.size)
        if not stationary:
            start = np.zeros(lam.size)
        else:
            start = z * factor if model.is_identity else factor @ z
        series = np.empty(skip + n_kept)
        if model.is_identity:
            chains = start
            for i in range(skip + n_kept):
                increment = np.sqrt(config.dt) * (mix * rng.standard_normal(lam.size))
                chains = step(chains, lam, config.dt, increment, config.sigma)
                series[i] = chains.sum()
        else:
            u = np.zeros(config.mesh.size)
            u[idx] = (start / np.bincount(group, w))[group]
            for i in range(skip + n_kept):
                u = step(u, drift, config.dt, noise_increment(model, config.dt, rng), config.sigma)
                series[i] = w @ u[idx]
        series = series[skip:]
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
    (1, None, 1, False, "below"),   # one short block
    (1, None, 3, False, "ragged"),  # a full block, then a partial one
    (1, 12, 3, False, "ragged"),
    (1, 12, 1, True, "below"),
    (2, None, 3, True, "ragged"),
    (2, 9, 3, False, "below"),
    (2, 9, 1, False, "ragged"),
    # several replicas, their blocks drawn on two threads
    (1, None, 4, False, "ragged"),
    (1, None, 5, False, "ragged"),
    (1, 32, 5, False, "ragged"),
])
def test_run_matches_step_by_step_reference(dim, rank, replicas, unweighted, timing):
    _check_against_reference(dim, rank, replicas, unweighted, timing, p=-0.3)


@pytest.mark.parametrize("dim, rank, replicas, timing", [
    (1, 12, 3, "ragged"),
    (1, 12, 1, "below"),
    (2, 9, 1, "ragged"),
])
def test_run_steps_the_burn_in_where_the_factor_costs_more(dim, rank, replicas, timing):
    # at p = -3 the slowest mode forgets a start in 31 steps, fewer than
    # the rank-M factor costs, so these configs start at 0 and step it
    config = _check_against_reference(dim, rank, replicas, False, timing, p=-3.0)
    lam, mix = _chains_of(config)
    assert not _starts_stationary(mix, replicas, _relax_steps(lam.max(), config.dt))


@contextlib.contextmanager
def _warns_of_a_short_burn_in(short):
    """Expect run_sweep's short burn-in RuntimeWarning if ``short``, else no warning at all."""
    if short:
        with pytest.warns(RuntimeWarning, match="burn_in = .* below the .* steps"):
            yield
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield


def _check_against_reference(dim, rank, replicas, unweighted, timing, p):
    if dim == 1:
        mesh, symbol, g = Mesh(1.0, 199, 1), ToolAlpha(2.0), IndicatorBox(-0.5, 0.5)
    else:
        mesh, symbol, g = Mesh(1.0, 15, 2), Radial2D(2.0), IndicatorBox([-0.4, -0.6], [0.6, 0.4])
    idx, _ = projection_weights(g, mesh)
    noise = None if rank is None else build_noise_model(mesh.size, idx, m=rank, seed=3)
    chains = np.unique(symbol(mesh.grid())[idx] + p).size
    chunk = _steps_per_block(1, replicas, chains, chains if rank is None else rank)
    nt, burn_in = (chunk // 2, 0) if timing == "below" else (2 * chunk + 37, chunk + 11)
    config = SimConfig(symbol, g, p, mesh, dt=0.05, nt=nt, sigma=0.8, burn_in=burn_in,
                       replicas=replicas, seed=11, noise=noise, batches=4,
                       unweighted=unweighted)
    lam, mix = _chains_of(config)
    relax = _relax_steps(lam.max(), config.dt)
    short = not _starts_stationary(mix, replicas, relax) and burn_in < relax
    with _warns_of_a_short_burn_in(short):
        got = run(config)
    want = _reference_run(config)
    assert got.effective_samples == want.effective_samples
    for name in ("mean", "variance", "stderr"):
        assert math.isclose(getattr(got, name), getattr(want, name), rel_tol=1e-12), name
    np.testing.assert_allclose(got.replica_variances, want.replica_variances, rtol=1e-12, atol=0)
    return config


def test_many_rank_m_chains_start_at_zero_in_bounded_memory(monkeypatch):
    # tool:2 on [0, 1] gives one chain per support point: 2,000 chains,
    # whose dense factor would take 32 MB an array, past the block budget,
    # though at p = -1e-4 it costs less than the relaxation's 4.6e6 steps
    mesh, g = Mesh(1.0, 3999, 1), IndicatorBox(0.0, 1.0)
    idx, _ = projection_weights(g, mesh)
    config = SimConfig(ToolAlpha(2.0), g, -1e-4, mesh, dt=0.01, nt=60, sigma=0.8, burn_in=25,
                       replicas=2, seed=11, batches=4,
                       noise=build_noise_model(mesh.size, idx, m=8, seed=3))
    lam, mix = _chains_of(config)
    relax = _relax_steps(lam.max(), config.dt)
    assert lam.size == 2000 and 8 * lam.size ** 2 > _BLOCK_BYTES
    assert 2 * lam.size ** 2 <= relax * config.replicas * 9
    assert not _starts_stationary(mix, config.replicas, relax)

    def refuse(*args):
        raise AssertionError("no dense stationary factor at 2,000 chains")

    monkeypatch.setattr(simulate, "_stationary_factor", refuse)
    # the start's transient stays in the estimate: p, the burn-in and the
    # steps it would need are named
    with pytest.warns(RuntimeWarning, match=rf"p = -0.0001 .* burn_in = 25, below the {relax} "):
        got = run(config)
    want = _reference_run(config)
    for name in ("mean", "variance", "stderr"):
        assert math.isclose(getattr(got, name), getattr(want, name), rel_tol=1e-12), name


def test_run_sweep_mixes_stationary_and_stepped_starts():
    # p = -0.3 starts stationary; p = -6 forgets a start in 77 steps, fewer
    # than the factor costs, and steps its burn-in, in the same sweep
    config = dataclasses.replace(_acceptance_config(-0.3, sigma=0.8), nt=1600, burn_in=None,
                                 replicas=3, seed=11, batches=4)
    idx, _ = projection_weights(config.g, config.mesh)
    config = dataclasses.replace(
        config, noise=build_noise_model(config.mesh.size, idx, m=12, seed=3))
    configs = [config, dataclasses.replace(config, p=-6.0)]
    starts = []
    for c in configs:
        lam, mix = _chains_of(c)
        starts.append(_starts_stationary(mix, c.replicas, _relax_steps(lam.max(), c.dt)))
    assert starts == [True, False]
    assert run_sweep(configs) == [run(c) for c in configs]
    # an explicit burn-in under the 77 steps warns for the stepped start only
    with pytest.warns(RuntimeWarning) as record:
        run_sweep([dataclasses.replace(c, burn_in=5) for c in configs])
    assert [str(w.message).split(" starts")[0] for w in record] == ["p = -6.0"]


@pytest.mark.parametrize("sigma, replicas", [
    pytest.param(0.8, 3, id="0.8"), pytest.param(1.0, 3, id="1.0"),
    (0.8, 4), (1.0, 4), (0.8, 5), (1.0, 5)])
def test_run_identity_noise_states_match_reference_exactly(sigma, replicas):
    # with one support point the projection is the one chain, so equal
    # estimates need every recorded state to match the one-step update;
    # run skips the multiply by a sigma of 1.0, step does not.  A worker
    # thread may draw any block of any replica
    mesh = Mesh(1.0, 199, 1)
    g = IndicatorBox(-0.004, 0.004)
    assert projection_weights(g, mesh)[0].size == 1
    chunk = _steps_per_block(1, replicas, 1, 1)
    config = SimConfig(ToolAlpha(2.0), g, -0.3, mesh, dt=0.05, nt=2 * chunk + 37, sigma=sigma,
                       burn_in=chunk + 11, replicas=replicas, seed=11, batches=4)
    assert run(config) == _reference_run(config)


class _Stream:
    """A replica's generator that logs the thread drawing each of its
    blocks, and can stall or fail one of them."""

    def __init__(self, rng, rep, log, stall, fail):
        self.rng, self.rep, self.log, self.stall, self.fail = rng, rep, log, stall, fail

    def standard_normal(self, *args, out=None, **kwargs):
        if out is None:  # the start's normals
            return self.rng.standard_normal(*args, **kwargs)
        threads = self.log.setdefault(self.rep, [])
        threads.append(threading.current_thread())
        if (self.rep, len(threads) - 1) == self.fail:
            raise ZeroDivisionError("a failing stream")
        time.sleep(self.stall.get((self.rep, len(threads) - 1), 0.0))
        return self.rng.standard_normal(*args, out=out, **kwargs)


def _log_streams(monkeypatch, stall=None, fail=None):
    """Route run_sweep's streams through _Stream; the log maps each replica
    to the threads that drew its blocks, in order.  ``stall`` maps a
    (replica, block) to the seconds its fill sleeps first, and the fill of
    the (replica, block) ``fail`` raises."""
    log, stall, real = {}, stall or {}, simulate.as_generator

    def as_generator(seed):
        return _Stream(real(seed), seed.spawn_key[0], log, stall, fail)

    monkeypatch.setattr(simulate, "as_generator", as_generator)
    return log


def _one_chain_config(replicas, blocks):
    # one support point and identity noise: a block is 2**17 / (3 replicas)
    # steps, a step loop of several ms per block on one lane of each replica,
    # and the sweep is exactly ``blocks`` blocks long
    mesh, g = Mesh(1.0, 199, 1), IndicatorBox(-0.004, 0.004)
    assert projection_weights(g, mesh)[0].size == 1
    chunk = _steps_per_block(1, replicas, 1, 1)
    return SimConfig(ToolAlpha(2.0), g, -0.3, mesh, dt=0.05, nt=blocks * chunk + 11,
                     burn_in=11, replicas=replicas, seed=11, batches=4)


@pytest.mark.parametrize("blocks", [1, 3])
def test_a_worker_draws_the_next_block_while_this_one_steps(monkeypatch, blocks):
    # block b + 1 is posted once block b is drawn, and a worker draws it
    # during block b's step loop; a sweep of one block starts no worker
    config = _one_chain_config(1, blocks)
    want = run(config)
    log = _log_streams(monkeypatch)
    assert run(config) == want
    caller = threading.current_thread()
    assert len(log[0]) == blocks
    assert all(thread is not caller for thread in log[0][1:])
    assert blocks > 1 or log[0] == [caller]


def test_the_calling_thread_draws_what_a_stalled_worker_has_not_taken(monkeypatch):
    # of four replicas a worker takes block 1 of replica 0 during block 0's
    # step loop and stalls on it, so the calling thread draws block 1 of
    # replicas 1 to 3 itself
    config = _one_chain_config(4, 2)
    want = run(config)
    log = _log_streams(monkeypatch, stall={(0, 1): 0.3})
    assert run(config) == want
    caller = threading.current_thread()
    assert [log[rep][1] is caller for rep in range(4)] == [False, True, True, True]


@pytest.mark.parametrize("replicas", [1, 4])
def test_run_sweep_leaves_no_thread_behind(replicas):
    config = dataclasses.replace(_acceptance_config(-0.3), nt=1600, replicas=replicas)
    before = threading.active_count()
    run_sweep([config, dataclasses.replace(config, p=-0.7)])
    assert threading.active_count() == before


def test_concurrent_sweeps_switching_every_microsecond_keep_their_bits():
    # four sweeps at once, each with its worker: eight threads on the
    # host's cores, the interpreter switching between them every
    # microsecond; each sweep must give the estimates it gives alone
    base = dataclasses.replace(_acceptance_config(-0.3, sigma=0.8), nt=1600, batches=4)
    idx, _ = projection_weights(base.g, base.mesh)
    noise = build_noise_model(base.mesh.size, idx, m=12, seed=3)
    cases = [[dataclasses.replace(base, replicas=replicas, seed=seed, noise=model, p=p)
              for p in (-0.3, -0.7)]
             for replicas, seed, model in ((2, 1, None), (3, 2, noise), (4, 3, None), (5, 4, noise))]
    want = [run_sweep(configs) for configs in cases]
    got = [None] * len(cases)

    def sweep(i):
        got[i] = run_sweep(cases[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(i,), daemon=True) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.parametrize("failing", [0, 3])
def test_a_failing_stream_raises_in_the_caller_and_leaves_no_thread(monkeypatch, failing):
    # as above, a worker takes block 1 of replica 0 and stalls on it, and
    # the calling thread draws block 1 of replicas 1 to 3; the stream of
    # replica ``failing`` raises at block 1, on the worker or on the
    # calling thread
    config = _one_chain_config(4, 3)
    log = _log_streams(monkeypatch, stall={(0, 1): 0.3}, fail=(failing, 1))
    raised = []

    def call():
        try:
            run(config)
        except ZeroDivisionError as exc:
            raised.append(exc)

    before = threading.active_count()
    # a hang fails the test instead of stalling the suite
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "run_sweep hung on a failing stream"
    assert len(raised) == 1 and len(log[failing]) == 2
    assert (log[failing][1] is caller) == (failing > 0)
    assert threading.active_count() == before


def test_every_stream_comes_from_the_one_sfc64_constructor():
    for seed in (11, np.random.SeedSequence(11)):
        rng = as_generator(seed)
        assert isinstance(rng, np.random.Generator)
        assert isinstance(rng.bit_generator, np.random.SFC64)
    assert as_generator(rng) is rng
    # _reference_run draws replica rep from as_generator(SeedSequence(seed, spawn_key=(rep,)))
    mesh = Mesh(1.0, 199, 1)
    config = SimConfig(ToolAlpha(2.0), IndicatorBox(-0.5, 0.5), -0.3, mesh, dt=0.05, nt=300,
                       sigma=0.8, burn_in=40, replicas=2, seed=11, batches=4)
    got, want = run(config), _reference_run(config)
    assert run_sweep([config])[0] == got
    assert got.effective_samples == want.effective_samples
    for name in ("mean", "variance", "stderr"):
        assert math.isclose(getattr(got, name), getattr(want, name), rel_tol=1e-12), name


@settings(max_examples=8, deadline=None)
@given(st.floats(-8.0, 0.0), st.sampled_from((1, 2)), st.sampled_from((None, 3, 12)))
@example(-8.0, 1, 12)
@example(-8.0, 2, None)
def test_start_factor_is_the_exact_stationary_law(log10_minus_p, dim, rank):
    # p = -10**log10_minus_p, from -1 to -1e-8; the factor of the chains run steps
    if dim == 1:
        config = _acceptance_config(-10.0 ** log10_minus_p, sigma=0.7)
    else:
        config = SimConfig(Radial2D(2.0), QuarterDisc(0.8), -10.0 ** log10_minus_p,
                           Mesh(1.0, 15, 2), dt=0.05, nt=1000, sigma=0.7)
    idx, w = projection_weights(config.g, config.mesh)
    if rank is not None:
        config = dataclasses.replace(
            config, noise=build_noise_model(config.mesh.size, idx, m=rank, seed=5))
    # S from the point noise covariance summed over each chain's support
    # points, C_ab = sum over i in a, j in b of w_i w_j Q_ij, apart from
    # the chain noise map that run steps and factors
    drift = _drift(config)
    lam, group = np.unique(drift[idx], return_inverse=True)
    if config.noise is None:
        point_cov = np.diag(w ** 2)
    else:
        rows = w[:, None] * config.noise.basis[idx]
        point_cov = (rows * config.noise.eigenvalues) @ rows.T
    member = (group == np.arange(lam.size)[:, None]).astype(float)
    cov = member @ point_cov @ member.T
    stationary = 0.7 ** 2 * cov / (np.abs(lam)[:, None] + np.abs(lam) + np.outer(lam, lam) * config.dt)
    _, mix = _chains_of(config)
    factor = _stationary_factor(lam, mix, config.sigma, config.dt)
    if factor.ndim == 1:
        factor = np.diag(factor)
    scale = np.max(np.abs(stationary))
    assert np.max(np.abs(factor @ factor.T - stationary)) <= 1e-12 * scale
    assert math.isclose(stationary.sum(), predict_discrete_variance(config), rel_tol=1e-12)


@pytest.mark.parametrize("rank", [None, 12])
@pytest.mark.parametrize("burn_in", [1, 537])
def test_burn_in_only_shortens_the_recorded_series(rank, burn_in):
    # the start is stationary, so burn_in steps nothing: it only sets nt - burn_in
    config = dataclasses.replace(_acceptance_config(-0.3, sigma=0.8), nt=1600,
                                 burn_in=burn_in, replicas=3, seed=11, batches=4)
    if rank is not None:
        idx, _ = projection_weights(config.g, config.mesh)
        config = dataclasses.replace(
            config, noise=build_noise_model(config.mesh.size, idx, m=rank, seed=3))
    lam, mix = _chains_of(config)
    assert _starts_stationary(mix, config.replicas, _relax_steps(lam.max(), config.dt))
    got = run(config)
    want = run(dataclasses.replace(config, nt=config.nt - burn_in, burn_in=0))
    for field in dataclasses.fields(VarianceEstimate):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


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


def _sweep_case(dim, rank, replicas):
    if dim == 1:
        mesh, symbol, g = Mesh(1.0, 199, 1), ToolAlpha(2.0), IndicatorBox(-0.5, 0.5)
    else:
        mesh, symbol, g = Mesh(1.0, 15, 2), Radial2D(2.0), IndicatorBox([-0.4, -0.6], [0.6, 0.4])
    idx, _ = projection_weights(g, mesh)
    noise = None if rank is None else build_noise_model(mesh.size, idx, m=rank, seed=3)
    chains = np.unique(symbol(mesh.grid())[idx]).size
    chunk = _steps_per_block(3, replicas, chains, chains if rank is None else rank)
    return mesh, symbol, g, noise, chunk


@pytest.mark.parametrize("burns", ["explicit", "automatic", "mixed"])
@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize("dim, rank", [(1, None), (1, 12), (2, None), (2, 9)])
def test_run_sweep_equals_run_per_p(dim, rank, replicas, burns):
    mesh, symbol, g, noise, chunk = _sweep_case(dim, rank, replicas)
    dt, nt = 0.05, 3 * chunk + 37
    # burn-ins that end mid-block, each in its own block, and so do the
    # recorded lengths nt - burn
    targets = (chunk // 2, chunk + chunk // 3, 2 * chunk + chunk // 5)
    # the slowest support drift is p (the symbol vanishes on the support),
    # and _relax_steps rounds up, so this p gives an automatic burn-in, and
    # the steps a start at u = 0 needs, of exactly the target
    ps = [-math.log(1e4) / (2.0 * dt * (t - 0.5)) for t in targets]
    assert [_relax_steps(p, dt) for p in ps] == list(targets)
    explicit = {"explicit": targets, "automatic": (None,) * 3,
                "mixed": (targets[0], None, targets[2])}[burns]
    configs = [SimConfig(symbol, g, p, mesh, dt=dt, nt=nt, sigma=0.8, burn_in=b,
                         replicas=replicas, seed=11, noise=noise, batches=4)
               for p, b in zip(ps, explicit)]
    assert [_schedule(c, _chains([c])[0][0])[0] for c in configs] == list(targets)
    assert [t // chunk for t in targets] == [0, 1, 2] and all(t % chunk for t in targets)
    assert run_sweep(configs) == [run(c) for c in configs]


@pytest.mark.parametrize("dim, rank", [(1, None), (1, 12), (2, None), (2, 9)])
def test_staged_sweep_at_unit_sigma_equals_run_per_p(dim, rank):
    # several p stage each block's increments once and copy them to every
    # p; a sigma of 1.0 skips the multiply in the sweep and in run alike
    mesh, symbol, g, noise, chunk = _sweep_case(dim, rank, 2)
    configs = [SimConfig(symbol, g, p, mesh, dt=0.05, nt=2 * chunk + 37, sigma=1.0,
                         burn_in=chunk + 11, replicas=2, seed=11, noise=noise, batches=4)
               for p in (-0.3, -0.7, -1.9)]
    assert run_sweep(configs) == [run(c) for c in configs]


@pytest.mark.parametrize("points, rank, replicas", [
    (1, None, 1), (1, None, 4), (1, 32, 2), (3, None, 2), (3, 32, 2), (6, 32, 4)])
def test_a_block_stays_within_the_block_budget(points, rank, replicas):
    # _steps_per_block sizes the arrays of a block (the states of every p,
    # two buffers of every replica's draws, and for several p the staged
    # increments of every replica) to
    # _BLOCK_BYTES; what else a sweep holds at its peak does not
    # grow with the block: the recorded series, one block's chain sums,
    # numpy's ufunc buffers (np.getbufsize() elements for each of at most
    # three operands), and a few arrays of one state row
    mesh, symbol, g = Mesh(1.0, 199, 1), ToolAlpha(2.0), IndicatorBox(-0.5, 0.5)
    idx, _ = projection_weights(g, mesh)
    noise = None if rank is None else build_noise_model(mesh.size, idx, m=rank, seed=3)
    chunk = _steps_per_block(points, replicas, 51, 51 if rank is None else rank)
    nt, burn_in = 2 * chunk + 37, chunk + 11
    configs = [SimConfig(symbol, g, -0.3 - 0.1 * j, mesh, dt=0.05, nt=nt,
                         burn_in=burn_in, replicas=replicas, seed=1, noise=noise, batches=4)
               for j in range(points)]
    run_sweep(configs)
    tracemalloc.start()
    try:
        run_sweep(configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    series = 8 * points * replicas * (nt - burn_in)
    sums = 8 * chunk * points * replicas
    buffers = 3 * 8 * np.getbufsize()
    state_rows = 8 * 8 * points * replicas * 51
    assert _BLOCK_BYTES / 2 < peak - series - sums - buffers - state_rows <= _BLOCK_BYTES


def _huge_sigma_config(sigma, rank):
    config = dataclasses.replace(_acceptance_config(-0.5, sigma=sigma), nt=3000)
    if rank is not None:
        idx, _ = projection_weights(config.g, config.mesh)
        config = dataclasses.replace(
            config, noise=build_noise_model(config.mesh.size, idx, m=rank, seed=3))
    return config


@pytest.mark.parametrize("sigma, rank, message", [
    (1e200, None, "the predicted discrete variance is inf"),
    (1e157, 4, "the predicted discrete variance is inf"),
])
def test_a_huge_sigma_raises_instead_of_returning_inf(sigma, rank, message):
    # the prediction, 8.7e-3 sigma**2 and 1.1e-4 sigma**2 with the rank-4
    # noise, is past the largest double
    config = _huge_sigma_config(sigma, rank)
    with pytest.raises(FloatingPointError, match=message):
        predict_discrete_variance(config)
        run(config)


def test_a_sigma_whose_square_overflows_scales_the_prediction_by_a_power_of_two():
    # sigma = 0.75 * 2**513: sigma**2 is past the largest double, the
    # prediction (3.5e306 and 4.5e304 with the rank-4 noise) is not
    small, big = 0.75, math.ldexp(0.75, 513)
    for rank in (None, 4):
        config = _huge_sigma_config(big, rank)
        want = predict_discrete_variance(dataclasses.replace(config, sigma=small))
        assert predict_discrete_variance(config) == math.ldexp(want, 1026)
    # the rank-4 start factor: F F^T is S, 2**1026 times that at sigma = 0.75
    lam, mix = _chains_of(config)
    f_big = np.ldexp(_stationary_factor(lam, mix, big, config.dt), -513)
    f_small = _stationary_factor(lam, mix, small, config.dt)
    s_small = f_small @ f_small.T
    assert np.max(np.abs(f_big @ f_big.T - s_small)) <= 1e-12 * np.max(np.abs(s_small))


@pytest.mark.parametrize("sigma, rank", [(1e154, None), (1e150, None), (1e150, 4)])
def test_a_huge_sigma_below_the_largest_variance_gives_finite_estimates(sigma, rank):
    # the estimates are taken on series scaled by a power of two, so no
    # square overflows; they are sigma**2 times those at sigma = 1, but for
    # the rounding of the steps
    config = _huge_sigma_config(sigma, rank)
    big, unit = run(config), run(dataclasses.replace(config, sigma=1.0))
    assert math.isclose(big.variance / sigma**2, unit.variance, rel_tol=1e-6)
    assert math.isclose(big.stderr / sigma**2, unit.stderr, rel_tol=1e-6)


@pytest.mark.parametrize("shift", [2, 46, 246])
def test_estimates_past_2_250_scale_exactly_with_a_power_of_two(shift):
    # both series reach past 2**250, so each is scaled to the same series below it
    series = np.ldexp(np.random.default_rng(11).standard_normal((3, 600)), 254)
    base, scaled = _estimate(series, 10, -0.5), _estimate(np.ldexp(series, shift), 10, -0.5)
    assert scaled.mean == math.ldexp(base.mean, shift)
    assert (scaled.variance, scaled.stderr) == (math.ldexp(base.variance, 2 * shift),
                                                math.ldexp(base.stderr, 2 * shift))
    assert scaled.replica_variances == tuple(math.ldexp(v, 2 * shift)
                                             for v in base.replica_variances)


def test_an_estimate_past_the_largest_double_raises():
    # the variance of these series, about 2**1328 = 1e400, is past the largest double
    series = np.ldexp(np.random.default_rng(5).standard_normal((2, 400)), 664)
    with pytest.raises(FloatingPointError, match="the simulated variance at p = -0.5 is inf"):
        _estimate(series, 8, -0.5)


def test_an_overflowing_stationary_covariance_raises():
    config = _acceptance_config(-0.5)
    idx, w = projection_weights(config.g, config.mesh)
    lam, mix = _lumped_chains(_drift(config), idx, w,
                              build_noise_model(config.mesh.size, idx, m=4, seed=3))
    assert np.all(np.isfinite(_stationary_factor(lam, mix, 1e150, config.dt)))
    with pytest.raises(FloatingPointError, match="stationary covariance overflows"):
        _stationary_factor(lam, mix, 1e160, config.dt)


@settings(max_examples=12, deadline=None)
@given(st.lists(st.floats(-3.0, -0.2), min_size=1, max_size=4), st.sampled_from((1, 2)),
       st.sampled_from((None, 3)), st.integers(1, 2), st.integers(0, 2**16),
       st.sampled_from((None, 40)))
def test_run_sweep_equals_run_on_random_p_grids(ps, dim, rank, replicas, seed, burn_in):
    if dim == 1:
        mesh, symbol, g = Mesh(1.0, 31, 1), ToolAlpha(2.0), IndicatorBox(-0.5, 0.5)
    else:
        mesh, symbol, g = Mesh(1.0, 9, 2), Radial2D(2.0), QuarterDisc(0.8)
    idx, _ = projection_weights(g, mesh)
    noise = None if rank is None else build_noise_model(mesh.size, idx, m=rank, seed=seed)
    configs = [SimConfig(symbol, g, p, mesh, dt=0.05, nt=600, burn_in=burn_in,
                         replicas=replicas, seed=seed, noise=noise, batches=4) for p in ps]
    for got, config in zip(run_sweep(configs), configs, strict=True):
        want = run(config)
        for field in dataclasses.fields(VarianceEstimate):
            assert getattr(got, field.name) == getattr(want, field.name), (field.name, config.p)


def test_run_sweep_of_nothing_is_empty():
    assert run_sweep([]) == []


def test_run_sweep_rejects_configs_that_differ_beyond_p():
    config = dataclasses.replace(_acceptance_config(), burn_in=500)
    idx, _ = projection_weights(config.g, config.mesh)
    noise = build_noise_model(config.mesh.size, idx, m=4, seed=1)
    same_noise = build_noise_model(config.mesh.size, idx, m=4, seed=1)
    with_noise = dataclasses.replace(config, noise=noise)
    for other, name in ((dataclasses.replace(config, seed=1), "seed"),
                        (dataclasses.replace(config, nt=2000), "nt"),
                        (with_noise, "noise"),
                        (dataclasses.replace(config, mesh=Mesh(1.0, 99, 1)), "mesh")):
        with pytest.raises(ValueError, match=name):
            run_sweep([config, dataclasses.replace(other, p=-0.2)])
    # equal-valued noise models are not enough: the model must be shared
    with pytest.raises(ValueError, match="noise"):
        run_sweep([with_noise, dataclasses.replace(config, noise=same_noise)])
    # p and burn_in may differ
    assert len(run_sweep([config, dataclasses.replace(config, p=-0.2, burn_in=100)])) == 2


def test_run_sweep_short_nt_message_matches_run():
    mesh = Mesh(1.0, 9, 1)
    ok = SimConfig(ToolAlpha(2.0), IndicatorBox(-0.5, 0.5), -0.5, mesh,
                   dt=0.05, nt=1000, replicas=2)
    short = dataclasses.replace(ok, p=-1e-6)
    with pytest.raises(ValueError) as alone:
        run(short)
    assert "raise nt" in str(alone.value)
    with pytest.raises(ValueError) as swept:
        run_sweep([ok, short])
    assert str(swept.value) == str(alone.value)
