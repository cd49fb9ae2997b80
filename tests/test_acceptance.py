"""End-to-end acceptance gate.

Each test here pins one headline capability of the package with fixed
tolerances and, where stated, a wall-clock budget.  Everything runs on
desk-scale parameters; the large production configuration (fine mesh,
1e7 steps) is deliberately out of scope and covered instead by the
discrete-scheme prediction checks.
"""
import itertools
import math
import time

import numpy as np
import pytest

import ewslab as ew
from ewslab.scaling import ScalingLaw

SEED = 0


def _fit(symbol_values, ps, window=None):
    return ew.fit_loglog(ew.SweepResult(ps, symbol_values), window=window)


# 1 -----------------------------------------------------------------------
def test_one_dim_power_family_rates():
    started = time.monotonic()
    ps = ew.log_spaced_p(-9, -3, 24)
    g = ew.IndicatorBox(0.0, 1.0)

    bounded = ew.quadrature_sweep(ew.ToolAlpha(0.5), g, ps, threads=4)
    final_decade = [v for p, v in zip(bounded.ps, bounded.values) if -p <= 1e-8]
    change = abs(final_decade[-1] - final_decade[0]) / final_decade[-1]
    assert change < 0.01

    log_case = ew.fit_loglog(ew.quadrature_sweep(ew.ToolAlpha(1.0), g, ps, threads=4))
    assert abs(log_case.k - 1.0) <= 0.05
    assert abs(log_case.s) <= 0.02

    half = ew.fit_loglog(ew.quadrature_sweep(ew.ToolAlpha(2.0), g, ps, threads=4))
    assert abs(half.s + 0.5) <= 0.02

    steep = ew.fit_loglog(ew.quadrature_sweep(ew.ToolAlpha(5.0), g, ps, threads=4))
    assert abs(steep.s + 0.8) <= 0.02

    assert time.monotonic() - started < 10.0


# 2 -----------------------------------------------------------------------
def test_weighted_window_shifts_the_rate():
    started = time.monotonic()
    ps = ew.log_spaced_p(-9, -3, 24)
    sweep = ew.quadrature_sweep(ew.ToolAlpha(1.0), ew.PowerIndicator(0.25, 1.0),
                                ps, threads=4)
    fit = ew.fit_loglog(sweep)
    # balance 2 gamma + alpha = 1.5 gives s = -1 + (1 - 2 gamma) / alpha
    assert abs(fit.s + 0.5) <= 0.02
    assert ew.law_1d(1.0, gamma=0.25) == ScalingLaw(-0.5, 0, False)
    assert time.monotonic() - started < 5.0


# 3 -----------------------------------------------------------------------
def test_plane_monomial_slope_and_crossover():
    started = time.monotonic()
    ps = ew.log_spaced_p(-8, -2, 25)
    qs = [-p for p in ps]

    unit = [ew.monomial_integral((2, 10), 1.0, q) for q in qs]
    fit = _fit(unit, ps, window=(1e-8, 1e-6))
    assert abs(fit.s + 0.9) <= 0.02

    small = [ew.monomial_integral((2, 10), 0.1, q) for q in qs]
    # with the shrunken window the large-q end still sits in the steeper
    # transient: the local slope across the widest decade is -1
    top = next(i for i, q in enumerate(qs) if q <= 1e-3 * (1 + 1e-9))
    slope = ((math.log(small[0]) - math.log(small[top]))
             / (math.log(qs[0]) - math.log(qs[top])))
    assert abs(slope + 1.0) <= 0.03

    assert time.monotonic() - started < 60.0


# 4 -----------------------------------------------------------------------
def test_plane_log_power_rates():
    started = time.monotonic()

    # equal unit orders: pure squared-log growth
    r_fine = ew.monomial_integral((1, 1), 1.0, 1e-8) / math.log(1e8) ** 2
    r_coarse = ew.monomial_integral((1, 1), 1.0, 1e-7) / math.log(1e7) ** 2
    assert abs(r_fine / r_coarse - 1.0) < 0.05

    # repeated top order: power times a single log
    ps = ew.log_spaced_p(-14, -2, 49)
    values = [ew.monomial_integral((3, 3), 1.0, -p) for p in ps]
    fit = _fit(values, ps)
    assert abs(fit.s + 2.0 / 3.0) <= 0.03
    assert abs(fit.k - 1.0) <= 0.15

    assert time.monotonic() - started < 60.0


# 5 -----------------------------------------------------------------------
def test_space_monomial_rates():
    started = time.monotonic()

    ps = ew.log_spaced_p(-14, -2, 49)
    values = [ew.monomial_integral((1, 2, 3), 1.0, -p) for p in ps]
    fit = _fit(values, ps)
    assert abs(fit.s + 2.0 / 3.0) <= 0.03

    r_fine = ew.monomial_integral((1, 1, 1), 1.0, 1e-8) / math.log(1e8) ** 3
    r_coarse = ew.monomial_integral((1, 1, 1), 1.0, 1e-7) / math.log(1e7) ** 3
    assert abs(r_fine / r_coarse - 1.0) < 0.10

    assert time.monotonic() - started < 300.0


# 6 -----------------------------------------------------------------------
def test_radial_log_divergence_and_loose_power_bound():
    # the rotation-invariant quadratic drift diverges like a single log...
    ratios = []
    for q in (1e-6, 1e-7, 1e-8):
        value = ew.variance_quadrature(
            ew.VarianceQuery(ew.Radial2D(2.0), ew.QuarterDisc(1.0), -q,
                             math.sqrt(2.0)))
        ratios.append(value / (-math.log(q)))
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread < 0.02

    # ...which is strictly slower than the corner catalog ceiling for the
    # same coefficients, so the ceiling is not sharp here
    ceiling = ew.polynomial_law({(2, 0): 1.0, (0, 2): 1.0})
    assert ceiling == ScalingLaw(-0.5, 0, False)
    assert 0.0 > ceiling.s  # a power law; the observed growth has s = 0


# 7 -----------------------------------------------------------------------
@pytest.mark.parametrize("m", [0, 1, 2])
def test_resolvent_ratio_near_limit(m):
    # with L = log(1/q) the integral is L**(m+1)/(m+1) + K_m + O(q L**m),
    # so the ratio to the limit is 1 + (m+1) K_m / L**(m+1) + O(q): it
    # tends to 1 at the 1/L rate and, at q = 1e-6, is still 7.2% short
    # for m = 0.  K_m = -2 m! eta(m) for even m and -2 m! eta(m+1) for
    # odd m (Dirichlet eta, eta(0) = 1/2); the second-order term is
    # asserted exactly at q = 1e-6 and as q drops to the smallest double
    k_m = {0: -1.0, 1: -math.pi ** 2 / 6, 2: -math.pi ** 2 / 3}[m]
    for q in (1e-6, 1e-300, 5e-324):
        value = ew.appendix_c_integral(m, q)
        big_l = -math.log(q)
        target = big_l ** (m + 1) / (m + 1)
        assert abs(value / target - 1.0 - (m + 1) * k_m / big_l ** (m + 1)) <= 1e-6


def test_resolvent_closed_form_m0():
    for q in (1e-2, 1e-6, 1e-10):
        got = ew.appendix_c_integral(0, q)
        want = math.log(1.0 / q + 1.0) + 1.0 / (1.0 / q + 1.0) - 1.0
        assert abs(got - want) / want <= 1e-10


# 8 -----------------------------------------------------------------------
def test_frequency_multiplier_rates():
    ps = ew.log_spaced_p(-9, -3, 24)
    ghat = ew.IndicatorBox(-1.0, 1.0)

    for m, rate, tol in ((1, -0.5, 0.02), (2, -0.75, 0.02)):
        sweep = ew.spectral_sweep(ew.PowerWavenumber(m), ghat, ps)
        fit = ew.fit_loglog(sweep)
        assert abs(fit.s - rate) <= tol

    sweep = ew.spectral_sweep(ew.SwiftHohenberg1D(), ew.IndicatorBox(-2.0, 2.0), ps)
    fit = ew.fit_loglog(sweep)
    assert abs(fit.s + 0.5) <= 0.03

    value = ew.variance_spectral(
        ew.VarianceQuery(ew.SwiftHohenberg2D(), ew.Disc(math.sqrt(2.0)),
                         -1.0, math.sqrt(2.0)))
    assert abs(value - math.pi ** 2 / 2.0) / (math.pi ** 2 / 2.0) <= 1e-4


# 9 -----------------------------------------------------------------------
def test_simulation_agrees_with_quadrature():
    started = time.monotonic()
    symbol = ew.ToolAlpha(2.0)
    g = ew.IndicatorBox(-0.5, 0.5)
    mesh = ew.Mesh(1.0, 199, 1)

    for p in (-1.0, -0.1, -0.01):
        config = ew.SimConfig(symbol=symbol, g=g, p=p, mesh=mesh, dt=0.01,
                              nt=200000, sigma=1.0, replicas=4, seed=SEED)
        predicted = ew.predict_discrete_variance(config)
        estimate = ew.run(config)
        assert abs(estimate.variance - predicted) <= 3.0 * estimate.stderr

        # the Riemann-sum prediction carries one factor of the cell size
        # relative to the density integral with the scheme correction
        corrected = ew.variance_quadrature(
            ew.VarianceQuery(symbol, g, p, 1.0), dt=0.01)
        assert abs(predicted / mesh.h - corrected) / corrected <= 0.05

    assert time.monotonic() - started < 180.0


# 10 ----------------------------------------------------------------------
def test_single_mode_discrete_variance():
    exact = 1.0 / 2.1  # sigma^2 / (2|lambda| + lambda^2 dt) at (-1, 1, 0.1)
    mesh = ew.Mesh(1.0, 1, 1)
    config = ew.SimConfig(symbol=ew.Zero(1), g=ew.IndicatorBox(-1.0, 1.0),
                          p=-1.0, mesh=mesh, dt=0.1, nt=200000, sigma=1.0,
                          replicas=2, seed=SEED, unweighted=True)
    assert math.isclose(ew.predict_discrete_variance(config), exact,
                        rel_tol=1e-14)
    assert math.isclose(exact, 0.47619047619047616, rel_tol=1e-15)
    estimate = ew.run(config)
    assert abs(estimate.variance - exact) <= 3.0 * estimate.stderr


# 11 ----------------------------------------------------------------------
def test_noise_statistics():
    for m in (1, 4, 16, 64):
        basis = ew.sample_haar_basis(m, seed=SEED)
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(m))) <= 1e-12

    vals = ew.sample_eigenvalues(10000, seed=SEED)
    assert np.all(vals >= 0.5) and np.all(vals <= 2.0)
    assert abs(vals.mean() - 1.25) <= 0.02

    model = ew.build_noise_model(8, [0, 1, 2, 3, 4, 5], m=4, seed=SEED)
    dt = 0.05
    want = dt * model.covariance()
    rng = np.random.default_rng(SEED)
    draws = np.stack([ew.noise_increment(model, dt, rng) for _ in range(100000)])
    got = np.cov(draws.T)
    active = [0, 1, 2, 3, 4, 5]
    diag = np.diag(want)[active]
    norm = np.sqrt(np.outer(diag, diag))
    err = np.abs(got[np.ix_(active, active)] - want[np.ix_(active, active)]) / norm
    assert np.max(err) <= 0.05


# 12 ----------------------------------------------------------------------
def _brute_minimal(indices):
    keep = set()
    for a in indices:
        if not any(b != a and all(x <= y for x, y in zip(b, a)) for b in indices):
            keep.add(a)
    return frozenset(keep)


def test_property_bundle():
    # minimal support against quadratic-scan brute force
    rng = np.random.default_rng(SEED)
    for _ in range(500):
        dim = int(rng.integers(1, 4))
        count = int(rng.integers(1, 9))
        keys = {tuple(int(v) for v in rng.integers(0, 5, size=dim))
                for _ in range(count)}
        coeffs = {k: float(rng.uniform(0.1, 2.0)) for k in keys}
        assert ew.minimal_support(coeffs) == _brute_minimal(set(coeffs))

    # order of axes never changes a corner law
    for triple in itertools.product(range(5), repeat=3):
        if sum(triple) == 0:
            continue
        laws = {ew.law_upper_bound(perm)
                for perm in itertools.permutations(triple)}
        assert len(laws) == 1

    # exact synthetic models are recovered to high accuracy
    ps = ew.log_spaced_p(-8, -2, 24)
    qs = -np.asarray(ps)
    for s, k, c in ((-0.5, 0.0, 0.2), (0.0, 2.0, -0.4), (-0.9, 1.0, 1.0)):
        values = np.exp(c) * qs ** s * np.where(k > 0, (-np.log(qs)) ** k, 1.0)
        fit = ew.fit_loglog(ew.SweepResult(ps, values))
        assert abs(fit.s - s) < 1e-6
        assert abs(fit.k - k) < 1e-6

    # noise amplitude enters as an exact square factor
    g = ew.IndicatorBox(0.0, 1.0)
    base = ew.variance_quadrature(ew.VarianceQuery(ew.ToolAlpha(2.0), g, -1e-3, 1.0))
    for c in (0.1, 2.0, 7.5):
        scaled = ew.variance_quadrature(
            ew.VarianceQuery(ew.ToolAlpha(2.0), g, -1e-3, c))
        assert math.isclose(scaled, c * c * base, rel_tol=1e-14)
