"""Closed-form variance quadrature against independent oracles.

Every expected value here comes from a route the quadrature code does
not take: textbook antiderivatives, scipy's generic adaptive quad on
the raw integrand, or tensor brute force.  Frozen decimals are recorded
next to the formulas that produced them.
"""
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from ewslab.quadrature import (
    Disc,
    IndicatorBox,
    PowerIndicator,
    QuadratureError,
    QuarterDisc,
    TestFunction,
    VarianceQuery,
    _axis_rule,
    _corner_edges,
    _corner_end,
    _gamma_mixture,
    _incomplete_gamma,
    _ladder_edges,
    _ladders,
    appendix_c_integral,
    monomial_integral,
    route_of,
    variance_quadrature,
    variance_values,
)
from ewslab.scaling import predicted_law
from ewslab.symbols import (
    ConvolutionKernel,
    CustomSymbol,
    LawUnavailableError,
    Piecewise,
    Polynomial,
    PowerWavenumber,
    Radial2D,
    ScalingLaw,
    SwiftHohenberg1D,
    SwiftHohenberg2D,
    Symbol,
    ToolAlpha,
    Zero,
)

SQRT2 = math.sqrt(2.0)


def _value(symbol, g, p, sigma=SQRT2, **kw):
    return variance_quadrature(VarianceQuery(symbol, g, p, sigma), **kw)


# dt from {0} and log-uniform over [1e-4, 1e2]
_DT = st.just(0.0) | st.floats(-4.0, 2.0).map(lambda e: 10.0 ** e)


def _assert_refused(err, v, v_shift, bound=4096):
    """``err`` is the scheme correction's refusal, and its cancellation ratio
    R = (V(q) + V(q + 2/dt)) / (V(q) - V(q + 2/dt)), from the reference terms
    ``v`` and ``v_shift``, is near or past ``bound``: 4096 at the
    one-dimensional default tolerance, 2**18 at 1e-6."""
    assert "cancels" in str(err), err
    ratio = (v + v_shift) / (v - v_shift)
    assert ratio > 0.99 * bound, (float(ratio), err)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_power_multiplier_is_the_tool_family_bit_for_bit(m):
    tool = ToolAlpha(2 * m, 0.0, (-3.0, 3.0))
    for g in (IndicatorBox(-1.0, 1.0), IndicatorBox(0.5, 2.0), PowerIndicator(0.25, 1.0)):
        for q, dt in ((1e-9, 0.0), (1e-3, 0.0), (1.0, 0.0), (1e-3, 0.05)):
            assert _value(PowerWavenumber(m), g, -q, dt=dt) == _value(tool, g, -q, dt=dt)


# --------------------------------------------------------------------------
# exact antiderivatives, sigma chosen so the 1/2 prefactor cancels

def test_linear_tool_log_oracle():
    # integral of 1/(x+q) over [0,1] = log((1+q)/q); at q=1 this is log 2
    got = _value(ToolAlpha(1.0), IndicatorBox(0.0, 1.0), -1.0)
    assert math.isclose(got, math.log(2.0), rel_tol=1e-10)  # 0.6931471805599453
    got = _value(ToolAlpha(1.0), IndicatorBox(0.0, 1.0), -1e-6)
    assert math.isclose(got, math.log((1.0 + 1e-6) / 1e-6), rel_tol=1e-8)


def test_quadratic_tool_arctan_oracle():
    # integral of 1/(x^2+q) over [0,1] = arctan(1/sqrt(q))/sqrt(q)
    got = _value(ToolAlpha(2.0), IndicatorBox(0.0, 1.0), -0.01)
    want = 10.0 * math.atan(10.0)  # 14.711276743037347
    assert math.isclose(got, want, rel_tol=1e-10)
    got = _value(ToolAlpha(2.0), IndicatorBox(-1.0, 1.0), -0.01)
    assert math.isclose(got, 2.0 * want, rel_tol=1e-10)


def test_marginal_symbol_is_flat_resolvent():
    # f = 0 so the integrand is the constant 1/q over the window volume
    got = _value(Zero(1), IndicatorBox(-1.0, 1.0), -0.5)
    assert math.isclose(got, 2.0 / 0.5, rel_tol=1e-12)
    got = _value(Zero(2), IndicatorBox.cube(0.25, 2), -0.1)
    assert math.isclose(got, 0.25 ** 2 / 0.1, rel_tol=1e-12)


def test_offset_window_away_from_root():
    # window [2, 3] with f = -x: integral of 1/(x+q) = log((3+q)/(2+q))
    got = _value(ToolAlpha(1.0), IndicatorBox(2.0, 3.0), -1e-3)
    want = math.log(3.001 / 2.001)
    assert math.isclose(got, want, rel_tol=1e-9)


def test_sigma_scaling_is_exact():
    g = IndicatorBox(0.0, 1.0)
    base = variance_quadrature(VarianceQuery(ToolAlpha(2.0), g, -0.1, 1.0))
    scaled = variance_quadrature(VarianceQuery(ToolAlpha(2.0), g, -0.1, 3.0))
    assert scaled == pytest.approx(9.0 * base, rel=1e-14)


@pytest.mark.parametrize("dt", [0.0, 0.01])
def test_a_sigma_whose_square_overflows_scales_the_variance_by_a_power_of_two(dt):
    # sigma = 0.75 * 2**513: sigma**2 is past the largest double, the
    # variance at p = -4 (0.069 at sigma = 0.75, 5.0e307 here) is not
    g = IndicatorBox(-0.5, 0.5)
    base = variance_quadrature(VarianceQuery(ToolAlpha(2.0), g, -4.0, 0.75), dt=dt)
    big = variance_quadrature(VarianceQuery(ToolAlpha(2.0), g, -4.0, math.ldexp(0.75, 513)), dt=dt)
    assert big == math.ldexp(base, 1026)


def test_power_window_arctan_oracle():
    # gamma = 1/4 window on the linear tool: substituting x = t^2 gives
    # integral of x^(-1/2)/(x+q) over [0,1] = 2 arctan(1/sqrt(q))/sqrt(q)
    for q in (1e-4, 1e-40, 1e-300):
        got = _value(ToolAlpha(1.0), PowerIndicator(0.25, 1.0), -q)
        want = 2.0 / math.sqrt(q) * math.atan(1.0 / math.sqrt(q))
        assert math.isclose(got, want, rel_tol=1e-8), q


def test_polynomial_zero_at_the_box_edge_is_the_tool_family_at_tiny_q():
    # the graded panels reach a layer at 0 however narrow it is
    for q in (1e-40, 1e-300):
        got = _value(Polynomial({(2,): 1.0}), IndicatorBox(0.0, 1.0), -q)
        want = _value(ToolAlpha(2.0), IndicatorBox(0.0, 1.0), -q)
        assert math.isclose(got, want, rel_tol=1e-12), q


def test_power_window_at_the_edge_of_square_integrability():
    # gamma one double below 1/2: beta = 1 - 2 gamma = 1.1e-16, so ratio**beta
    # rounds to 1 and the graded ladder in u = x**beta once never ended; the
    # value is 1/(beta q) less about log(1/q)/(2 q)
    gamma = math.nextafter(0.5, 0.0)
    beta = 1.0 - 2.0 * gamma
    for q in (1e-6, 1e-12):
        for symbol in (ToolAlpha(2.0), Polynomial({(2,): 1.0})):
            got = _value(symbol, PowerIndicator(gamma, 1.0), -q)
            assert math.isclose(got, 1.0 / (beta * q), rel_tol=1e-12), (symbol, q)


def test_unreachable_layers_raise_quadrature_error():
    # the variance itself, about 1 / ((1 - 2 gamma) q) = 4.5e315 and
    # q**(1/alpha - 1) = 10**316.8 at alpha = 100
    for symbol, g, p, match in (
            (Polynomial({(2,): 1.0}), PowerIndicator(math.nextafter(0.5, 0.0)), -1e-300,
             "not a positive double"),
            (ToolAlpha(100.0), IndicatorBox(0.0, 1.0), -1e-320, "side integral .* overflows")):
        with pytest.raises(QuadratureError, match=match):
            _value(symbol, g, p)
    # the layer at 0 lies among the subnormals, which v = log x reaches: with
    # beta = 1 - 2 gamma, integral_0^1 x**(beta - 1) / (q + x**alpha) dx =
    # 2F1(1, beta/alpha; 1 + beta/alpha; -1/q) / (beta q)
    mpmath = pytest.importorskip("mpmath")
    for gamma in (0.1, 0.2):
        with mpmath.workdps(50):
            beta, q = 1 - 2 * mpmath.mpf(gamma), mpmath.mpf(1e-300)
            want = mpmath.hyp2f1(1, 2 * beta, 1 + 2 * beta, -1 / q) / (beta * q)
        got = _value(ToolAlpha(0.5), PowerIndicator(gamma, 1.0), -1e-300)
        assert math.isclose(got, float(want), rel_tol=1e-10), (gamma, got, want)


def test_power_window_brute_force():
    q = 1e-3
    got = _value(ToolAlpha(2.0), PowerIndicator(0.4, 0.5), -q)
    want = integrate.quad(
        lambda x: x ** -0.8 / (x ** 2 + q), 0.0, 0.5,
        epsabs=1e-13, epsrel=1e-11, points=[math.sqrt(q)], limit=200,
    )[0]
    assert math.isclose(got, want, rel_tol=1e-7)


def test_piecewise_splits_into_one_sided_integrals():
    left, right = ToolAlpha(1.0), ToolAlpha(2.0)
    g = IndicatorBox(-0.75, 0.5)
    p = -1e-5
    whole = _value(Piecewise(left, right), g, p)
    left_part = _value(left, IndicatorBox(-0.75, 0.0), p)
    right_part = _value(right, IndicatorBox(0.0, 0.5), p)
    assert math.isclose(whole, left_part + right_part, rel_tol=1e-9)


def test_radial_quarter_disc_log_oracle():
    # polar coordinates: (pi/4) log((R^2+q)/q) for the quadratic radial drift
    got = _value(Radial2D(2.0), QuarterDisc(1.0), -0.01)
    want = (math.pi / 4.0) * math.log(101.0)  # 3.6247071777850075
    assert math.isclose(got, want, rel_tol=1e-10)


def test_radial_full_disc_is_four_quarters():
    q = 1e-4
    quarter = _value(Radial2D(2.0), QuarterDisc(1.0), -q)
    full = _value(Radial2D(2.0), Disc(1.0), -q)
    assert math.isclose(full, 4.0 * quarter, rel_tol=1e-12)


def test_quarter_disc_is_the_disc_on_the_closed_positive_quadrant():
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.uniform(-2.0, 2.0, (400, 2)),
                          [[0.0, 0.0], [0.0, 1.5], [1.5, 0.0], [-0.0, 1.0], [1.5, -1e-300],
                           [1.5 * math.cos(0.3), 1.5 * math.sin(0.3)], [0.0, 1.6]]])
    quadrant = (pts[:, 0] >= 0) & (pts[:, 1] >= 0)
    got = QuarterDisc(1.5)(pts)
    np.testing.assert_array_equal(got, Disc(1.5)(pts) * quadrant)
    assert got.dtype == float and set(got.tolist()) == {0.0, 1.0}
    assert QuarterDisc(1.5)(np.zeros((3, 4, 2))).shape == (3, 4)
    assert repr(QuarterDisc(1.5)) == "QuarterDisc(radius=1.5)"
    assert repr(Disc(1.5)) == "Disc(radius=1.5)"


@pytest.mark.parametrize("symbol", [Radial2D(2.0), Radial2D(0.7), SwiftHohenberg2D()])
def test_full_disc_is_four_quarter_discs_exactly(symbol):
    for radius in (0.5, 1.0, 3.0):
        for p in (-1e-2, -1e-9):
            quarter = _value(symbol, QuarterDisc(radius), p)
            assert _value(symbol, Disc(radius), p) == 4.0 * quarter, (radius, p)


def test_radial_general_exponent_brute_force():
    q = 1e-3
    got = _value(Radial2D(3.0), QuarterDisc(1.0), -q)
    # polar brute force: (pi/2) * integral of r/(r^3+q) dr over [0,1]
    want = (math.pi / 2.0) * integrate.quad(
        lambda r: r / (r ** 3 + q), 0.0, 1.0,
        epsabs=1e-13, epsrel=1e-11, points=[q ** (1.0 / 3.0)],
    )[0]
    assert math.isclose(got, want, rel_tol=1e-7)


@pytest.mark.parametrize("radius", [0.5, 1.5])
def test_ring_multiplier_disc_matches_polar_brute_force(radius):
    # the planar ring multiplier -(1 - |k|^2)^2 goes through the same
    # polar reduction as the radial drift; brute force in r
    for q in (1e-3, 1e-8):
        got = _value(SwiftHohenberg2D(), Disc(radius), -q, rel_tol=1e-10)
        want = 2.0 * math.pi * integrate.quad(
            lambda r: r / ((1.0 - r ** 2) ** 2 + q), 0.0, radius,
            points=[1.0] if radius > 1.0 else None, epsabs=0.0, epsrel=1e-12, limit=300,
        )[0]
        assert math.isclose(got, want, rel_tol=1e-9), q


def _double_zero_kernel():
    # 128 samples, spacing 0.25, of the kernel with multiplier -(k^2 - 1)^2
    n, dx = 128, 0.25
    k = 2 * math.pi * np.fft.fftfreq(n, d=dx)
    return ConvolutionKernel(np.real(np.fft.ifft(-(k ** 2 - 1.0) ** 2)) / dx, dx)


@pytest.mark.parametrize("dt", [0.0, 1e-4, 0.01, 0.5, 7.3, 100.0])
def test_kernel_matches_interpolant_brute_force(dt):
    ker = _double_zero_kernel()
    grid, mult = ker.freq_grid, ker.multiplier
    kinks = [k for k in grid if -3.0 < k < 3.0]
    for q in (1e-2, 1e-6):
        got = _value(ker, IndicatorBox(-3.0, 3.0), -q, sigma=1.0, dt=dt)

        def integrand(k):
            t = q - np.interp(k, grid, mult)
            return 1.0 / (t + 0.5 * dt * t * t)

        want = 0.5 * integrate.quad(integrand, -3.0, 3.0, points=kinks,
                                    epsabs=0.0, epsrel=1e-12, limit=400)[0]
        assert math.isclose(got, want, rel_tol=1e-10), q


def test_scheme_corrected_resolvent_oracle():
    # with the implicit-scheme correction the integrand becomes
    # 1/(t + dt t^2 / 2); for f = 0 this is vol / (q (1 + dt q / 2)), and
    # V(q) - V(q + 2/dt) cancels by R = 1 + dt q, taken up to 4096 at the
    # one-dimensional default 1e-8 and up to 2**18 at 1e-6
    for dim, bound in ((1, 4096), (2, 2**18)):
        g = IndicatorBox.cube(2.0 ** (1.0 / dim), dim)
        for q, dt_q in ((0.25, 0.025), (1e-6, 1e-10), (1.0, 1.0), (0.5, 100.0), (2.0, 1000.0),
                        (1.0, 0.99 * bound)):
            dt = dt_q / q
            got = _value(Zero(dim), g, -q, dt=dt)
            want = 2.0 / (q * (1.0 + 0.5 * dt * q))
            assert math.isclose(got, want, rel_tol=1e-10), (dim, q, dt, got, want)
            assert got < _value(Zero(dim), g, -q)
        for q, dt_q in ((1.0, 1.01 * bound), (1.0, 1e10)):
            with pytest.raises(QuadratureError, match=r"V\(q\) - V\(q \+ 2/dt\) cancels"):
                _value(Zero(dim), g, -q, dt=dt_q / q)


def test_query_validation():
    g = IndicatorBox(0.0, 1.0)
    with pytest.raises(ValueError):
        VarianceQuery(ToolAlpha(1.0), g, 0.0, 1.0)
    with pytest.raises(ValueError):
        VarianceQuery(ToolAlpha(1.0), g, -1.0, 0.0)
    with pytest.raises(ValueError):
        VarianceQuery(Radial2D(2.0), g, -1.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            VarianceQuery(ToolAlpha(1.0), g, bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            VarianceQuery(ToolAlpha(1.0), g, -1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            variance_quadrature(VarianceQuery(ToolAlpha(1.0), g, -1.0, 1.0), dt=bad)


def test_window_validation():
    with pytest.raises(ValueError):
        IndicatorBox(1.0, 0.0)
    with pytest.raises(ValueError):
        PowerIndicator(0.5, 1.0)
    with pytest.raises(ValueError):
        PowerIndicator(-0.1, 1.0)
    with pytest.raises(ValueError):
        QuarterDisc(0.0)
    for bad in (math.nan, math.inf):
        for build in (lambda: IndicatorBox(bad, 1.0), lambda: IndicatorBox((0.0, 0.0), (1.0, bad)),
                      lambda: IndicatorBox.cube(bad), lambda: PowerIndicator(0.25, bad),
                      lambda: QuarterDisc(bad), lambda: Disc(bad)):
            with pytest.raises(ValueError, match="must be finite"):
                build()


def test_window_serialization_round_trip():
    for g in (IndicatorBox((0.0, -1.0), (1.0, 2.0)), PowerIndicator(0.25, 0.5),
              QuarterDisc(2.0), Disc(1.5)):
        clone = TestFunction.build(g.to_dict())
        assert type(clone) is type(g)
        assert clone.to_dict() == g.to_dict()


def test_window_dicts_are_pinned():
    pinned = [
        (IndicatorBox((0.0, -1.0), (1.0, 2.0)), {"kind": "box", "lo": [0.0, -1.0], "hi": [1.0, 2.0]}),
        (PowerIndicator(0.25, 0.5), {"kind": "power", "gamma": 0.25, "eps": 0.5}),
        (QuarterDisc(2.0), {"kind": "quarter_disc", "radius": 2.0}),
        (Disc(1.5), {"kind": "disc", "radius": 1.5}),
    ]
    # every window kind is in the registry the four classes share
    assert IndicatorBox.kinds == {type(g).kind: type(g) for g, _ in pinned}
    for g, want in pinned:
        assert json.dumps(g.to_dict()) == json.dumps(want)
    with pytest.raises(ValueError, match="unknown"):
        TestFunction.build({"kind": "oval"})


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
def test_window_off_the_root_matches_brute_force(alpha):
    # The window misses the root, so the variance stays bounded as q -> 0
    # while each side integral measured from the root diverges.
    for a, b in ((0.5, 1.0), (-1.0, -0.5), (1e-3, 0.2)):
        for q in (1e-5, 1e-8, 1e-10, 1e-16):
            got = variance_quadrature(VarianceQuery(ToolAlpha(alpha), IndicatorBox(a, b), -q))
            want = 0.5 * integrate.quad(lambda x: 1.0 / (abs(x) ** alpha + q), a, b,
                                        epsabs=0.0, epsrel=1e-13, limit=500)[0]
            assert math.isclose(got, want, rel_tol=1e-10), (a, b, q)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_window_off_the_root_closed_form(alpha):
    # [d1, 1] misses the root of -|x|**alpha by d1; over q <= (d1/10)**2 at
    # alpha = 2, quad's extrapolation across the decades from d1 to 1 once
    # returned about -1 with an error estimate that passed
    for d1 in (1e-3, 1e-5, 1e-7, 1e-9, 1e-11):
        for q in (1e-6, 1e-10, 1e-14, 1e-18, 1e-24, 1e-30):
            if alpha == 1.0:
                want = math.log((1.0 + q) / (d1 + q))
            else:
                s = math.sqrt(q)
                want = (math.atan(s / d1) - math.atan(s)) / s
            got = _value(ToolAlpha(alpha), IndicatorBox(d1, 1.0), -q)
            assert math.isclose(got, want, rel_tol=1e-10), (d1, q)


@pytest.mark.parametrize("symbol, g, p, want", [
    # integral_0^L dx / (q + x**0.5) = 2 (sqrt(L) - q log1p(sqrt(L) / q)), x = v**2
    (ToolAlpha(0.5), IndicatorBox(0.0, 1.0), -1e-155, 2.0 * (1.0 - 1e-155 * math.log1p(1e155))),
    (ToolAlpha(0.5), IndicatorBox(0.0, 1.0), -1e-300, 2.0 * (1.0 - 1e-300 * math.log1p(1e300))),
    (ToolAlpha(0.5), IndicatorBox(-1.0, 1.0), -1e-300, 4.0 * (1.0 - 1e-300 * math.log1p(1e300))),
    (ToolAlpha(0.5), IndicatorBox(0.0, 1.09), -8.7e-155,
     2.0 * (math.sqrt(1.09) - 8.7e-155 * math.log1p(math.sqrt(1.09) / 8.7e-155))),
    # log((1 + q) / q), where 1/q overflows
    (ToolAlpha(1.0), IndicatorBox(0.0, 1.0), -5e-324, math.log1p(5e-324) - math.log(5e-324)),
    # (pi/4) integral_0^1 du / (q + u**0.75) = pi (1 - q integral_0^1 dv / (q + v**3)),
    # u = v**4, and the q term is below q**(1/3) = 1e-100
    (Radial2D(1.5), QuarterDisc(1.0), -1e-300, math.pi),
])
def test_side_integrals_reach_the_smallest_q(symbol, g, p, want):
    # q**(-1/alpha) or the scaled side value overflows here, so the side
    # integral is taken in logs
    assert math.isclose(_value(symbol, g, p), want, rel_tol=1e-12)


@pytest.mark.parametrize("alpha, q, dt", [(0.5, 1e-300, 0.01), (0.7, 1e-310, 0.01),
                                          (1.0, 5e-324, 0.1)])
def test_side_integrals_in_logs_match_mpmath_with_the_scheme_correction(alpha, q, dt):
    # 1/(t (1 + h t)) = 1/t - h/(1 + h t) with h = dt/2, and integral_0^1
    # dx / (c + d x**alpha) = 2F1(1, 1/alpha; 1 + 1/alpha; -d/c) / c
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        big_q, a, h = mpmath.mpf(q), mpmath.mpf(alpha), mpmath.mpf(dt) / 2

        def side(c, d):
            return mpmath.hyp2f1(1, 1 / a, 1 + 1 / a, -d / c) / c

        want = side(big_q, 1) - h * side(1 + h * big_q, h)
    got = _value(ToolAlpha(alpha), IndicatorBox(0.0, 1.0), -q, dt=dt)
    assert math.isclose(got, float(want), rel_tol=1e-12)


# q = 10**U(-300, -1)
_LOG10_Q = st.floats(-300.0, -1.0)


def _mp_power_law(alpha, lo, hi, q, dt):
    """integral_lo^hi phi(q + y**alpha) dy to 30 digits, the ends taken exactly.

    With phi(t) = 1/t - h/(1 + h t), h = dt/2, the integral from 0 is the
    2F1 form above; from lo > 0 it is a difference, whose cancellation
    sets the working precision.
    """
    mpmath = pytest.importorskip("mpmath")
    a, h = mpmath.mpf(alpha), mpmath.mpf(dt) / 2

    def from_zero(y):
        side = lambda c, d: y / c * mpmath.hyp2f1(1, 1 / a, 1 + 1 / a, -d * y ** a / c)
        return side(q, 1) - h * side(1 + h * q, h)

    with mpmath.workdps(30):
        q = mpmath.mpf(q)
        if lo == 0:
            return from_zero(hi)
        t = q + hi ** a
        lost = int(mpmath.log10(from_zero(lo) / ((hi - lo) * (1 / t - h / (1 + h * t)))))
    with mpmath.workdps(35 + max(lost, 0)):
        return from_zero(hi) - from_zero(lo)


def test_box_one_ulp_off_the_root_matches_mpmath():
    # the box ends one ulp below the root; the offset gap 0.545 - b is exact
    mpmath = pytest.importorskip("mpmath")
    a, b, root, q = -1.1456, 0.5449999999999999, 0.545, 1.7e-69
    gap, far = mpmath.fsub(root, b, exact=True), mpmath.fsub(root, a, exact=True)
    want = 0.5 * _mp_power_law(1.5, gap, far, q, 0.0)
    got = variance_quadrature(VarianceQuery(ToolAlpha(1.5, root), IndicatorBox(a, b), -q))
    assert math.isclose(got, float(want), rel_tol=1e-12), (got, want)


@st.composite
def _power_law_cases(draw, kind):
    """A 1-D power-law box on or off its root, or a radial or ring disc, by ``kind``.

    Returns the symbol, the window, alpha, the offset pieces [lo, hi] of
    y = |x - root| (u = r**2 on discs) as exact mpmath numbers, and the
    factor that turns their integral into the variance at sigma = 1.
    """
    mpmath = pytest.importorskip("mpmath")
    sub = lambda x, y: mpmath.fsub(x, y, exact=True)
    if kind in ("on", "off"):
        alpha = draw(st.floats(0.3, 8.0))
        r = draw(st.floats(-1.0, 1.0))
        if kind == "on":
            a, b = r - draw(st.floats(0.01, 2.0)), r + draw(st.floats(0.01, 2.0))
            pieces = [(0, sub(r, a)), (0, sub(b, r))]
        else:
            gap, width = 10.0 ** draw(st.floats(-12.0, 0.0)), draw(st.floats(0.01, 2.0))
            if draw(st.booleans()):
                a, b = r + gap, r + gap + width
                pieces = [(sub(a, r), sub(b, r))]
            else:
                a, b = r - gap - width, r - gap
                pieces = [(sub(r, b), sub(r, a))]
        return ToolAlpha(alpha, r), IndicatorBox(a, b), alpha, pieces, 0.5
    g = draw(st.sampled_from((Disc, QuarterDisc)))(draw(st.floats(0.1, 2.0)))
    u = mpmath.fmul(g.radius, g.radius, exact=True)
    if kind == "radial":
        beta = draw(st.floats(0.6, 16.0))
        return Radial2D(beta), g, beta / 2, [(0, u)], 0.25 * g.angle
    pieces = [(0, mpmath.mpf(1)), (0, sub(u, 1))] if u >= 1 else [(sub(1, u), mpmath.mpf(1))]
    return SwiftHohenberg2D(), g, 2.0, pieces, 0.25 * g.angle


@pytest.mark.parametrize("kind", ["on", "off", "radial", "ring"])
@settings(max_examples=7, deadline=None)
@given(data=st.data(), log10_q=_LOG10_Q, dt=_DT)
def test_power_law_routes_match_mpmath(kind, data, log10_q, dt):
    symbol, g, alpha, pieces, factor = data.draw(_power_law_cases(kind))
    q = 10.0 ** log10_q
    try:
        got = variance_quadrature(VarianceQuery(symbol, g, -q), dt=dt)
    except QuadratureError as err:
        if "overflows" not in str(err):
            _assert_refused(err, *(sum(_mp_power_law(alpha, lo, hi, x, 0.0) for lo, hi in pieces)
                                   for x in (q, q + 2.0 / dt)))
        return
    want = factor * sum(_mp_power_law(alpha, lo, hi, q, dt) for lo, hi in pieces)
    assert math.isclose(got, float(want), rel_tol=1e-10), (symbol, g, q, dt, got, want)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-2.5, 0.99), b=st.floats(1.01, 3.0), log10_q=_LOG10_Q,
       dt=_DT)
def test_sh1d_box_holding_k_1_matches_mpmath(a, b, log10_q, dt):
    # the layer sqrt(q)/2 at k = 1 spans a few ulps of 1 from q = 1e-30 down;
    # (1 - x**2)**2 + Q = (c**2 - x**2)(conj(c)**2 - x**2), c = sqrt(1 - i sqrt(Q)),
    # so integral_a^b dx / (Q + (1 - x**2)**2) = Im((atanh(b/c) - atanh(a/c)) / c) / sqrt(Q),
    # and phi(t) = 1/t - 1/(t + 2/dt)
    mpmath = pytest.importorskip("mpmath")
    q = 10.0 ** log10_q
    with mpmath.workdps(50):
        def part(big_q):
            c = mpmath.sqrt(1 - 1j * mpmath.sqrt(big_q))
            return mpmath.im((mpmath.atanh(b / c) - mpmath.atanh(a / c)) / c) / mpmath.sqrt(big_q)

        v, v_shift = part(mpmath.mpf(q)), part(mpmath.mpf(q) + 2 / mpmath.mpf(dt)) if dt else 0
        want = v - v_shift
    try:
        got = variance_quadrature(VarianceQuery(SwiftHohenberg1D(), IndicatorBox(a, b), -q), dt=dt)
    except QuadratureError as err:
        _assert_refused(err, v, v_shift)
        return
    assert math.isclose(got, float(want / 2), rel_tol=1e-10), (a, b, q, dt, got, want)


@pytest.mark.parametrize("kind", ["tool", "mono"])
@settings(max_examples=12, deadline=None)
@given(data=st.data(), gamma=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       eps=st.floats(0.1, 2.0), log10_q=_LOG10_Q, dt=_DT)
def test_power_windows_on_a_zero_at_0_match_mpmath(kind, data, gamma, eps, log10_q, dt):
    # with beta = 1 - 2 gamma, integral_0^eps x**(beta - 1) dx / (c + d x**alpha) is
    # eps**beta 2F1(1, beta/alpha; 1 + beta/alpha; -d eps**alpha / c) / (beta c),
    # and phi(t) = 1/t - h/(1 + h t), h = dt/2
    mpmath = pytest.importorskip("mpmath")
    if kind == "tool":
        alpha = data.draw(st.floats(0.3, 8.0))
        symbol = ToolAlpha(alpha)
    else:
        alpha = data.draw(st.integers(1, 6))
        symbol = Polynomial({(alpha,): 1.0})
    q = 10.0 ** log10_q
    with mpmath.workdps(50):
        a, h, e = mpmath.mpf(alpha), mpmath.mpf(dt) / 2, mpmath.mpf(eps)
        beta = 1 - 2 * mpmath.mpf(gamma)

        def part(c, d):
            return e ** beta * mpmath.hyp2f1(1, beta / a, 1 + beta / a, -d * e ** a / c) / (beta * c)

        v, v_shift = part(mpmath.mpf(q), 1), h * part(1 + h * mpmath.mpf(q), h)
        want = (v - v_shift) / 2
    try:
        got = variance_quadrature(VarianceQuery(symbol, PowerIndicator(gamma, eps), -q), dt=dt)
    except QuadratureError as err:
        # only a variance past the largest double, or the scheme correction's
        # cancellation past its bound, is refused, and the message says so
        if "not a positive double" not in str(err):
            _assert_refused(err, v, v_shift)
        else:
            assert want > sys.float_info.max, (err, want)
        return
    assert math.isclose(got, float(want), rel_tol=1e-10), (symbol, gamma, eps, q, dt, got, want)


@pytest.mark.parametrize("alpha, gamma", [(0.3, 0.45), (0.2, 0.49)])
def test_power_window_on_a_fractional_order_below_its_layer(alpha, gamma):
    # with beta = 1 - 2 gamma small, most of integral_0^1 x**(beta - 1) / (q + x**alpha) dx
    # lies below the layer; the part under the first panel is taken in closed form,
    # so the first panel starts where x**alpha has fallen to e**-40 q
    mpmath = pytest.importorskip("mpmath")
    for q in (1e-6, 1e-300):
        with mpmath.workdps(30):
            a, beta = mpmath.mpf(alpha), 1 - 2 * mpmath.mpf(gamma)
            want = mpmath.hyp2f1(1, beta / a, 1 + beta / a, -1 / mpmath.mpf(q)) / (beta * q)
        got = _value(ToolAlpha(alpha), PowerIndicator(gamma, 1.0), -q)
        assert math.isclose(got, float(want), rel_tol=1e-12), (q, got, want)


@pytest.mark.parametrize("coeffs, length, q", [({1: 0.1, 6: 10.0}, 3.0, 1e-12),
                                               ({1: 0.1, 5: 10.0}, 3.0, 1e-9)])
def test_polynomial_poles_between_its_layer_and_its_end(coeffs, length, q):
    # 1 / (q + a y + b y**k) has poles pi/(k-1) off the axis of log y where the two
    # terms cross, at y = (a/b)**(1/(k-1)), inside the box, far above the layer
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = mpmath.quad(lambda y: 1 / (q + sum(a * y**j for j, a in coeffs.items())),
                           [0] + [length * mpmath.mpf(10) ** -k for k in range(16, -1, -1)])
    symbol = Polynomial({(j,): a for j, a in coeffs.items()}, domain=(0.0, length))
    got = _value(symbol, IndicatorBox(0.0, length), -q)
    assert math.isclose(got, float(want), rel_tol=1e-12), (got, want)


# --------------------------------------------------------------------------
# corner integrals over the unit cube

def test_monomial_1d_log_oracle():
    got = monomial_integral((1,), 1.0, 1.0)
    assert math.isclose(got, math.log(2.0), rel_tol=1e-12)
    got = monomial_integral((2,), 1.0, 1e-4)
    want = 100.0 * math.atan(100.0)
    assert math.isclose(got, want, rel_tol=1e-10)


def test_monomial_all_zero_orders_is_flat():
    assert math.isclose(monomial_integral((0, 0), 1.0, 0.5), 2.0, rel_tol=1e-13)
    assert math.isclose(monomial_integral((0, 0, 0), 0.5, 0.1),
                        0.5 ** 3 / 0.1, rel_tol=1e-13)


def test_monomial_2d_brute_force_frozen():
    cases = {
        ((1, 1), 1e-3): 25.502475813889973,
        ((2, 10), 1e-4): 5019.990799423716,
        ((3, 3), 1e-5): 11572.918032527818,
    }
    for (j, q), frozen in cases.items():
        got = monomial_integral(j, 1.0, q)
        assert math.isclose(got, frozen, rel_tol=1e-10)


def test_monomial_2d_matches_adaptive_dblquad():
    j, q = (2, 3), 1e-4
    got = monomial_integral(j, 1.0, q)
    want = integrate.dblquad(
        lambda y, x: 1.0 / (x ** 2 * y ** 3 + q), 0, 1, 0, 1,
        epsabs=1e-12, epsrel=1e-10,
    )[0]
    assert math.isclose(got, want, rel_tol=1e-8)


def test_monomial_3d_brute_force_frozen():
    got = monomial_integral((1, 2, 3), 1.0, 1e-3)
    assert math.isclose(got, 350.6519882480054, rel_tol=1e-9)


def test_monomial_window_scaling():
    # shrinking the cube by c rescales via x -> c x
    j, q, eps = (1, 2), 1e-3, 0.5
    got = monomial_integral(j, eps, q)
    want = integrate.dblquad(
        lambda y, x: 1.0 / (x * y ** 2 + q), 0, eps, 0, eps,
        epsabs=1e-12, epsrel=1e-10,
    )[0]
    assert math.isclose(got, want, rel_tol=1e-8)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_monomial_all_unit_orders_is_the_polylog(n):
    # the cube integral of 1 / (x1 ... xn + q) is -Li_n(-1/q)
    mpmath = pytest.importorskip("mpmath")
    for q in (1e-2, 1e-8, 1e-14):
        want = float(-mpmath.polylog(n, -1 / mpmath.mpf(q)))
        assert math.isclose(monomial_integral((1,) * n, 1.0, q), want, rel_tol=1e-12), q


def test_monomial_3d_repeated_orders_match_adaptive_tplquad():
    j, q = (2, 2, 3), 1e-3
    want = integrate.tplquad(
        lambda z, y, x: 1.0 / (x ** 2 * y ** 2 * z ** 3 + q), 0, 1, 0, 1, 0, 1,
        epsabs=1e-12, epsrel=1e-10,
    )[0]
    assert math.isclose(monomial_integral(j, 1.0, q), want, rel_tol=1e-8)


def test_monomial_extreme_q_is_finite_or_refused():
    # the value grows like q**(-2/3), to about 5.4e200 here
    assert 1e200 < monomial_integral((1, 2, 3), 1.0, 1e-300) < 1e201
    try:
        got = monomial_integral((1, 1, 1), 1.0, 5e-324)
    except QuadratureError:
        return
    # -Li_3(-1/q) = L**3/6 + pi**2 L/6 + O(q) with L = log(1/q)
    big_l = -math.log(5e-324)
    assert math.isclose(got, big_l ** 3 / 6 + math.pi ** 2 * big_l / 6, rel_tol=1e-12)


def test_monomial_refuses_clustered_orders():
    # the partial-fraction weights of (30, ..., 35) sum to 9.8e6 in size,
    # so rounding in their signed sum could lose more than rel_tol
    with pytest.raises(QuadratureError, match="cancel"):
        monomial_integral(tuple(range(30, 36)), 1.0, 1e-3)
    assert math.isfinite(monomial_integral((9, 10, 11, 12), 1.0, 1e-3))


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    st.floats(1e-5, 1e-2),
)
def test_single_monomial_variance_equals_corner_integral(j, q):
    symbol = Polynomial({j: 1.0})
    g = IndicatorBox((0.0, 0.0), (1.0, 1.0))
    via_query = variance_quadrature(VarianceQuery(symbol, g, -q, SQRT2))
    direct = monomial_integral(j, 1.0, q)
    assert math.isclose(via_query, direct, rel_tol=1e-5)


def test_monomial_overflow_raises_quadrature_error():
    # eps**2 = 1e400 as a number; the zero axes are scaled in logs
    with pytest.raises(QuadratureError, match="overflows"):
        monomial_integral((0, 0, 1), 1e200, 1e-4)
    with pytest.raises(QuadratureError, match="overflows"):
        monomial_integral((0, 0), 1e200, 1e-4)


# each family's reference is mpmath on a formula the corner reduction does not use


def _agrees_or_cancels(j, q, want):
    try:
        got = monomial_integral(j, 1.0, q)
    except QuadratureError as err:
        assert "cancel" in str(err), (j, q)
        return
    assert math.isclose(got, float(want), rel_tol=1e-10), (j, q, got, want)


# q >= 1 too, where log(1/q) <= 0 and the corner ladder has no lower side
_LOG10_Q_CORNER = st.floats(-300.0, 2.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 12), _LOG10_Q_CORNER)
def test_one_axis_corner_integral_matches_mpmath(order, log10_q):
    # integral_0^1 dx / (x**j + q) = 2F1(1, 1/j; 1 + 1/j; -1/q) / q
    mpmath = pytest.importorskip("mpmath")
    q = 10.0 ** log10_q
    with mpmath.workdps(20):
        inv_j = 1 / mpmath.mpf(order)
        want = mpmath.hyp2f1(1, inv_j, 1 + inv_j, -1 / mpmath.mpf(q)) / q
    _agrees_or_cancels((order,), q, want)


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 6), _LOG10_Q_CORNER)
def test_unit_order_corner_integral_matches_the_polylog(n, log10_q):
    mpmath = pytest.importorskip("mpmath")
    q = 10.0 ** log10_q
    with mpmath.workdps(20):
        want = -mpmath.polylog(n, -1 / mpmath.mpf(q))
    _agrees_or_cancels((1,) * n, q, want)


@settings(max_examples=4, deadline=None)
@given(st.tuples(st.integers(1, 8), st.integers(2, 8)).map(sorted).map(tuple), _LOG10_Q)
def test_two_axis_corner_integral_matches_an_mpmath_quadrature(j, log10_q):
    # the inner axis integrates to 2F1(1, 1/b; 1 + 1/b; -x**a/q) / q; with
    # x**a = q e**w the outer one is q**(1/a - 1)/a integral e**(w/a)
    # 2F1(-e**w) dw over w < log(1/q), which is analytic but at w = +-i pi:
    # panels double away from w = 0, and e**(w/a) < e**-40 below -40 a
    mpmath = pytest.importorskip("mpmath")
    (a, b), q = j, 10.0 ** log10_q
    with mpmath.workdps(15):
        big_l, inv_b = -mpmath.log(q), 1 / mpmath.mpf(b)
        below = [-mpmath.mpf(2) ** k for k in range(int(math.log2(40 * a)) + 2)]
        above = [mpmath.mpf(2) ** k for k in range(10) if 2 ** k < big_l]
        edges = below[::-1] + [0] + above + [big_l]
        outer = mpmath.quad(lambda w: mpmath.exp(w / a) * mpmath.hyp2f1(
            1, inv_b, 1 + inv_b, -mpmath.exp(w)), edges, method="gauss-legendre")
        want = outer * mpmath.mpf(q) ** (1 / mpmath.mpf(a) - 1) / a
    _agrees_or_cancels(j, q, want)


@pytest.mark.parametrize("j", [(1,), (3, 3), (1, 2, 3), (9, 10, 11, 12)])
@pytest.mark.parametrize("q", [5e-324, 1e-300, 1e-8, 0.5, 1.0, 1e4])
def test_corner_panels_widen_geometrically_away_from_the_pole_line(j, q):
    split = max(-math.log(q), 0.0)
    end = _corner_end(_gamma_mixture(j)[3], split)
    for ratio in (2.0, 1.5, 1.25):
        edges = _corner_edges(split, end, ratio)
        assert edges[0] == 0.0 and edges[-1] == end
        assert np.all(np.diff(edges) > 0.0)
        assert split in edges
        # each inner edge is split -+ 2 ratio**i
        for x in edges[1:-1]:
            if x != split:
                i = math.log(abs(x - split) / 2.0, ratio)
                assert i > -1e-9 and abs(i - round(i)) < 1e-9, (ratio, x)
        # equal panels 2 wide up to split would take 373 at q = 5e-324
        top = max(0, math.ceil(math.log(max(split, end - split) / 2.0, ratio)))
        assert edges.size - 1 <= 3 + 2 * top, (ratio, edges.size)


UNIT_CUBE = IndicatorBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


@pytest.mark.parametrize("j, q", [
    ((1, 1, 1), 1e-2), ((1, 1, 1), 1e-3), ((1, 0, 2), 1e-4), ((2, 1, 1), 1e-4), ((0, 0, 2), 1e-3),
])
def test_single_monomial_3d_variance_equals_corner_integral(j, q):
    via_query = _value(Polynomial({j: 1.0}), UNIT_CUBE, -q)
    assert math.isclose(via_query, monomial_integral(j, 1.0, q), rel_tol=1e-5)


def test_zero_symbol_3d_box_is_volume_over_q():
    g = IndicatorBox((0.0, -1.0, 0.5), (1.0, 1.0, 2.0))
    for q in (1.0, 1e-3, 1e-8):
        got = variance_quadrature(VarianceQuery(Zero(dim=3), g, -q, 1.3))
        assert math.isclose(got, 0.5 * 1.3 ** 2 * 3.0 / q, rel_tol=1e-12)


def test_sum_of_squares_3d_split_axes_and_custom_symbol():
    f = Polynomial({(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    q = 1e-3
    corner = _value(f, UNIT_CUBE, -q)
    # the root at 0 splits every axis of [-1, 1]**3 into two graded pieces
    whole = _value(f, IndicatorBox((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)), -q)
    assert math.isclose(whole, 8.0 * corner, rel_tol=1e-12)
    # a CustomSymbol evaluates the grid through the base Symbol.on_grid
    custom = CustomSymbol(lambda x: -np.sum(x ** 2, axis=-1), dim=3)
    assert math.isclose(_value(custom, UNIT_CUBE, -q), corner, rel_tol=1e-12)


def test_sum_of_squares_3d_root_inside_reaches_small_p():
    # graded on both sides of the root, the tensor route ran out of EVAL_CAP here
    f = Polynomial({(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    cube = IndicatorBox((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    for q in (1e-6, 1e-12):
        whole = _value(f, cube, -q)
        assert math.isfinite(whole)
        assert math.isclose(whole, 8.0 * _value(f, UNIT_CUBE, -q), rel_tol=1e-12)


@pytest.mark.parametrize("q", [1e-2, 1e-8, 1e-300])
def test_linear_sum_on_unit_square_closed_form(q):
    # integral over [0, 1]**2 of dx dy / (q + x + y)
    want = (q + 2) * math.log(q + 2) - 2 * (q + 1) * math.log(q + 1) + q * math.log(q)
    got = _value(Polynomial({(1, 0): 1.0, (0, 1): 1.0}), IndicatorBox((0.0, 0.0), (1.0, 1.0)), -q)
    assert math.isclose(got, want, rel_tol=1e-12)


@st.composite
def _separable_sums(draw):
    """A sum of one-axis powers c (x_d - r_d)**a, nonnegative on a box [0, hi]."""
    dim = draw(st.sampled_from((2, 3)))
    coeffs, root, hi = {}, [], []
    inside = 0
    for d in range(dim):
        order = draw(st.integers(1, 6))
        place = draw(st.sampled_from(("corner", "inside", "below")))
        if place == "inside" and dim == 3 and inside:
            # each inside root doubles the tensor rule's panels on its axis
            place = "corner"
        length = draw(st.floats(0.5, 1.5))
        if place == "inside":
            inside += 1
            order += order % 2  # an odd power changes sign at an inside root
            r = draw(st.floats(0.2, 0.8)) * length
        else:
            r = 0.0 if place == "corner" else -draw(st.floats(0.1, 0.5))
        index = [0] * dim
        index[d] = order
        coeffs[tuple(index)] = draw(st.floats(0.5, 3.0))
        root.append(r)
        hi.append(length)
    return Polynomial(coeffs, root=root), IndicatorBox((0.0,) * dim, hi)


@settings(max_examples=12, deadline=None)
@given(_separable_sums(), st.floats(-4.0, -1.0), _DT)
def test_separable_sum_matches_tensor_route(case, log_q, dt):
    poly, g = case
    q = 10.0 ** log_q
    # wrapped in a CustomSymbol, the same map is not seen as separable and
    # takes the graded tensor route
    custom = CustomSymbol(poly, dim=poly.dim, root=poly.root, domain=poly.domain)
    assert math.isclose(_value(poly, g, -q, dt=dt), _value(custom, g, -q, dt=dt), rel_tol=1e-6)


def _gamma_pair(a, z):
    p, q = _incomplete_gamma(a, np.array([z]))
    return p.item(), q.item()


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 12), st.one_of(st.floats(-300.0, 3.0), st.floats(-0.5, 0.5)))
def test_incomplete_gamma_matches_scipy(a, log10_z):
    # P(1/a, z) and Q(1/a, z) against scipy where its value is a normal double, to 16
    # ulps times two known losses.  scipy takes the prefactor as exp(L), L = s log z - z
    # - log Gamma(s), which carries |L| ulps of L's rounding (9e-14 at z = 529 against
    # mpmath); below z = 1 + s each code's Q = 1 - P carries P's rounding times P/Q.
    z, s = 10.0**log10_z, 1.0 / a
    p, q = _gamma_pair(a, z)
    log_prefactor = abs(s * math.log(z) - z - math.lgamma(s))
    for got, want, loss in ((p, special.gammainc(s, z), 1.0),
                            (q, special.gammaincc(s, z), 1.0 + p / q if z < 1.0 + s else 1.0)):
        if want >= sys.float_info.min:
            assert abs(got / want - 1.0) <= 2.0**-48 * (1.0 + log_prefactor) * loss


@pytest.mark.parametrize("a, z", [(2, 6.4e-285), (12, 1e-300), (3, 1.76e-14), (10, 1.08),
                                  (12, 0.93), (8, 1.13), (2, 1.51), (4, 572.0), (2, 700.0)])
def test_incomplete_gamma_against_mpmath(a, z):
    # where scipy is off by its prefactor (the first and the last two) and where the
    # pair is least accurate: P to 4 ulps, Q above z = 1 + s to 16 ulps, and Q = 1 - P
    # below it to 4 ulps times P/Q; the shape is the double 1/a, as in the code
    mpmath = pytest.importorskip("mpmath")
    s = 1.0 / a
    p, q = _gamma_pair(a, z)
    with mpmath.workdps(40):
        want_p = mpmath.gammainc(s, 0, z, regularized=True)
        want_q = mpmath.gammainc(s, z, mpmath.inf, regularized=True)
        assert abs(p / want_p - 1) <= 2.0**-50
        assert abs(q / want_q - 1) <= (2.0**-50 * (1.0 + p / q) if z < 1.0 + s else 2.0**-48)


@pytest.mark.parametrize("a", range(1, 13))
def test_incomplete_gamma_at_the_ends(a):
    p, q = _incomplete_gamma(a, np.array([0.0, 750.0, 1e308, math.inf]))
    assert p.tolist() == [0.0, 1.0, 1.0, 1.0] and q.tolist() == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("q", [1e-3, 1e-8])
def test_separable_reduction_of_far_apart_coefficients(q):
    # c1 x**2 + c2 y**2 on the unit square: one axis's z passes the largest double
    # while the other's is still below 1.  With c2 / c1 = 1e600 the y integral is
    # (pi/2) / sqrt(c2 (q + c1 x**2)) to a relative 1e-146, and the x integral is exact.
    c1, c2 = 1e-300, 1e300
    exact = math.pi / 2.0 / math.sqrt(c2) * math.asinh(math.sqrt(c1 / q)) / math.sqrt(c1)
    poly = Polynomial({(2, 0): c1, (0, 2): c2})
    assert math.isclose(_value(poly, IndicatorBox((0.0, 0.0), (1.0, 1.0)), -q), exact, rel_tol=1e-10)


# --------------------------------------------------------------------------
# the graded Gauss-Legendre panel rule shared by the 1-D and tensor routes

def _loop_ladder(a, b, anchors, floor, ratio):
    """The panel edges by the loop d *= ratio, one anchor at a time."""
    edges = {a, b}
    for z in anchors:
        if a < z < b:
            edges.add(z)
        dmax = max(abs(b - z), abs(a - z))
        d = max(floor, 4.0 * math.ulp(z), sys.float_info.min)
        while d < dmax:
            for x in (z - d, z + d):
                if a < x < b:
                    edges.add(x)
            d *= ratio
    return sorted(edges)


_SPANS = st.tuples(st.floats(-50.0, 50.0), st.floats(1e-3, 100.0),
                   st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=3)).map(
    lambda t: (t[0], t[0] + t[1], t[2]))


@settings(max_examples=60, deadline=None)
@given(st.lists(_SPANS, min_size=1, max_size=4),
       st.sampled_from((0.0, 1e-300, 1e-6, 0.5, 1.0, 4.0)), st.sampled_from((1.25, 1.5, 2.0, 4.0)))
def test_ladders_of_many_spans_at_once_are_the_loop(spans, floor, ratio):
    # one running product per first step serves every anchor of every span
    expected = [_loop_ladder(a, b, anchors, floor, ratio) for a, b, anchors in spans]
    for (a, b, anchors), want in zip(spans, expected):
        assert _ladder_edges(a, b, anchors, floor, ratio).tolist() == want
    ends = np.array([span[:2] for span in spans])
    owner = np.repeat(np.arange(len(spans)), [len(span[2]) for span in spans])
    edges, counts = _ladders(ends, np.array([z for span in spans for z in span[2]]), owner, floor,
                             ratio)
    assert counts.tolist() == [len(want) for want in expected]
    assert edges.tolist() == [x for want in expected for x in want]


def test_axis_rule_with_one_anchor_is_the_per_panel_construction():
    for c0, c1, anchor, floor, ratio, n_gl in ((-1.0, 1.0, 0.0, 1e-4, 4.0, 12),
                                               (0.0, 1.5, 1.0, 3e-7, 2.0, 20),
                                               (0.25, 3.0, 0.25, 1e-9, 1.25, 32)):
        edges = _ladder_edges(c0, c1, [anchor], floor, ratio)
        gx, gw = leggauss(n_gl)
        nodes, weights = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            nodes.append(half * gx + 0.5 * (lo + hi))
            weights.append(half * gw)
        got_nodes, got_weights = _axis_rule(c0, c1, [anchor], floor, ratio, n_gl)
        assert np.array_equal(got_nodes, np.concatenate(nodes))
        assert np.array_equal(got_weights, np.concatenate(weights))


def test_tensor_route_values_are_frozen():
    # x**2 + y**2 + xy/2 is not separable, so the box takes the tensor levels;
    # the dt = 0 values are the ones computed before the 1-D route shared its
    # rule, the dt = 0.01 ones those of V(q) - V(q + 2/dt) in the router
    symbol = Polynomial({(2, 0): 1.0, (0, 2): 1.0, (1, 1): 0.5}, domain=((-1, -1), (1, 1)))
    g = IndicatorBox((-1.0, -1.0), (1.0, 1.0))
    frozen = {(-1e-2, 0.0): 7.770380603225569, (-1e-2, 0.01): 7.7604142717002675,
              (-1e-4, 0.0): 15.227617873154765, (-1e-4, 0.01): 15.217651049930273,
              (-1e-6, 0.0): 22.698499837237446, (-1e-6, 0.01): 22.688533009095718}
    for (p, dt), want in frozen.items():
        assert variance_quadrature(VarianceQuery(symbol, g, p), dt=dt) == want


# (symbol, window, {(p, dt): value}): boxes that take the tensor levels with
# each kind of axis floor, and ring discs inside and on the unit circle
_FROZEN_2D = {
    "radial-2-box": (
        Radial2D(2.0), IndicatorBox((-0.5, -0.3), (0.7, 0.9)),
        {(-1e-2, 0.0): 5.62059690510545, (-1e-2, 0.01): 5.617003187746411,
         (-1e-4, 0.0): 12.794245460328419, (-1e-4, 0.01): 12.79065156538173,
         (-1e-6, 0.0): 20.02740906812144, (-1e-6, 0.01): 20.023815171398784}),
    "radial-0.5-box": (
        Radial2D(0.5), IndicatorBox((-1.0, -1.0), (1.0, 1.0)),
        {(-1e-2, 0.0): 2.4653531020949213, (-1e-2, 0.01): 2.455396198200493,
         (-1e-4, 0.0): 2.4996201856371694, (-1e-4, 0.01): 2.4896627909754745,
         (-1e-6, 0.0): 2.4999691431707958, (-1e-6, 0.01): 2.4900117436011837}),
    "zero-box-corner": (
        Zero(2), IndicatorBox((0.0, 0.0), (1.0, 2.0)),
        {(-1e-2, 0.0): 99.99999999999999, (-1e-2, 0.01): 99.99500024998748,
         (-1e-4, 0.0): 10000.000000000002, (-1e-4, 0.01): 9999.995000002502,
         (-1e-6, 0.0): 1000000.0000000001, (-1e-6, 0.01): 999999.9950000001}),
    "custom-box-edge": (
        CustomSymbol(lambda x: -(x[..., 0] ** 2 + x[..., 1] ** 2 + 0.5 * x[..., 0] * x[..., 1]),
                     dim=2),
        IndicatorBox((0.0, -1.0), (1.0, 1.0)),
        {(-1e-2, 0.0): 3.8851903016127856, (-1e-2, 0.01): 3.8802071358501347,
         (-1e-4, 0.0): 7.6138089365773824, (-1e-4, 0.01): 7.608825524965137,
         (-1e-6, 0.0): 11.349249918618725, (-1e-6, 0.01): 11.34426650454786}),
    "ring-disc-0.5": (
        SwiftHohenberg2D(), Disc(0.5),
        {(-1e-2, 0.0): 0.5165230681293631, (-1e-2, 0.01): 0.5145672079470973,
         (-1e-4, 0.0): 0.523527033269091, (-1e-4, 0.01): 0.5215710766434266,
         (-1e-6, 0.0): 0.5235980580750603, (-1e-6, 0.01): 0.5216421004849139}),
    "ring-disc-1": (
        SwiftHohenberg2D(), Disc(1.0),
        {(-1e-2, 0.0): 23.108419470426245, (-1e-2, 0.01): 23.10057893100787,
         (-1e-4, 0.0): 245.16936605717515, (-1e-4, 0.01): 245.16152513029434,
         (-1e-6, 0.0): 2465.8303044691424, (-1e-6, 0.01): 2465.8224635383867}),
}


@pytest.mark.parametrize("case", sorted(_FROZEN_2D))
def test_tensor_floors_and_ring_discs_are_frozen(case):
    symbol, g, frozen = _FROZEN_2D[case]
    for (p, dt), want in frozen.items():
        assert variance_quadrature(VarianceQuery(symbol, g, p), dt=dt) == want, (p, dt)


@pytest.mark.parametrize("p", [-0.5, -1e-3])
def test_a_zero_of_q_minus_f_where_the_tensor_panels_meet_is_refused(p):
    # x + y**2 on [-0.5, 1] x [-0.5, 0.5]: at p = -0.5, q - f vanishes at (-0.5, 0),
    # on the box edge and on the y axis's root, where every level's panels meet and
    # no Gauss node lies; at p = -1e-3 it is negative there
    symbol, g = Polynomial({(1, 0): 1.0, (0, 2): 1.0}), IndicatorBox((-0.5, -0.5), (1.0, 0.5))
    assert route_of(symbol, g).name == "tensor"
    with pytest.raises(ValueError, match=r"drift \+ p is not negative on the window"):
        variance_quadrature(VarianceQuery(symbol, g, p))
    with pytest.raises(ValueError, match=r"drift \+ p is not negative on the window"):
        variance_values(symbol, g, [p, -2.0])


def test_the_tensor_evaluation_budget_refuses_a_level_past_it():
    # the cross term keeps the 3-D box on the tensor levels; at p = -1e-4 a
    # level needs more evaluations than EVAL_CAP leaves it
    symbol = Polynomial({(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (1, 1, 0): 0.5})
    g = IndicatorBox((-1.0,) * 3, (1.0,) * 3)
    assert route_of(symbol, g).name == "tensor"
    assert variance_quadrature(VarianceQuery(symbol, g, -1e-2)) == 6.8489290867352155
    with pytest.raises(QuadratureError, match="tensor quadrature needs 21249536 evaluations, "
                                              "over the remaining budget 9033216"):
        variance_quadrature(VarianceQuery(symbol, g, -1e-4))


@pytest.mark.parametrize("p", [-1e-2, -1e-4, -1e-6])
def test_a_root_off_the_singular_end_of_a_power_window_matches_mpmath(p):
    # tool:2 at root 0.3 through x**-0.25 on [0, 1] takes the offset-log row: the
    # window's singular 0 is not the root.  The reference is 1/2 int_0^1 x**-0.5 /
    # (q + (x - 0.3)**2) dx in 40 digits, split at the root and at the layer's
    # edges 0.3 +- 10 sqrt(q) inside [0, 1]
    mpmath = pytest.importorskip("mpmath")
    symbol, g = ToolAlpha(2.0, root=0.3), PowerIndicator(0.25, 1.0)
    assert route_of(symbol, g).name == "offset-log"
    with mpmath.workdps(40):
        q, r = mpmath.mpf(-p), mpmath.mpf(0.3)
        splits = [r + s * 10 * mpmath.sqrt(q) for s in (-1, 0, 1)]
        points = [0, *(x for x in splits if 0 < x < 1), 1]
        want = float(mpmath.quad(lambda x: x ** -0.5 / (q + (x - r) ** 2), points) / 2)
    assert math.isclose(variance_quadrature(VarianceQuery(symbol, g, p)), want, rel_tol=1e-13)


@pytest.mark.parametrize("root", [0.3, 0.9, -0.55])
def test_simple_zero_off_the_origin_meets_the_tolerance(root):
    # at q = 1e-12 the layer of c (x - root) spans a few thousand ulps of x,
    # so nodes rounded to doubles would move the sum by up to 3e-7
    for c in (0.5, 2.0):
        for q in (1e-12, 3e-12):
            g = IndicatorBox(root, root + 1.0)
            symbol = Polynomial({(1,): c}, root=root, domain=(root, root + 1.0))
            want = math.log1p(c * (g.hi[0] - g.lo[0]) / q) / c
            got = variance_quadrature(VarianceQuery(symbol, g, -q, SQRT2))
            assert math.isclose(got, want * 0.5 * SQRT2**2, rel_tol=1e-9)


@pytest.mark.parametrize("k", [3, 5, 6])
@pytest.mark.parametrize("gamma", [0.25, 0.45])
def test_power_window_on_a_polynomial_zero_at_0_closed_form(k, gamma):
    # integral_0^1 x**(-2 gamma) / (q + x**k) dx with beta = 1 - 2 gamma is the
    # integral to infinity, q**(beta/k - 1) pi / (k sin(pi beta / k)), less the
    # tail beyond 1, sum_n (-q)**n / ((n + 1) k - beta)
    beta = 1.0 - 2.0 * gamma
    for q in (1e-3, 1e-6, 1e-12):
        want = q ** (beta / k - 1.0) * math.pi / (k * math.sin(math.pi * beta / k))
        want -= sum((-q) ** n / ((n + 1) * k - beta) for n in range(8))
        got = _value(Polynomial({(k,): 1.0}), PowerIndicator(gamma, 1.0), -q)
        assert math.isclose(got, want, rel_tol=1e-10)


@pytest.mark.parametrize("eps", [0.3, 0.7])
def test_power_window_on_a_simple_zero_at_its_edge_closed_form(eps):
    # f = -2 (eps - x) on (0, eps]: with A = q + 2 eps and y = sqrt(2 eps / A),
    # integral x**(-1/2) / (A - 2x) dx = sqrt(2 / A) artanh(y), artanh(y) =
    # log((1 + y) sqrt(A / q)); at gamma = 0 the integral is log1p(2 eps / q) / 2
    symbol = Polynomial({(1,): -2.0}, root=eps, domain=(0.0, eps))
    for q in (1e-12, 1e-10):
        big_a = q + 2.0 * eps
        y = math.sqrt(2.0 * eps / big_a)
        got = _value(symbol, PowerIndicator(0.25, eps), -q)
        want = math.sqrt(2.0 / big_a) * math.log((1.0 + y) * math.sqrt(big_a / q))
        assert math.isclose(got, want, rel_tol=1e-9)
        got = _value(symbol, PowerIndicator(0.0, eps), -q)
        assert math.isclose(got, 0.5 * math.log1p(2.0 * eps / q), rel_tol=1e-9)


@st.composite
def _one_sided_drifts(draw):
    """-sum_j a_j (x - r)**j <= 0 on a box or power window, with the zero in, at or off it.

    Odd powers are allowed where the window lies on one side of r; on the
    left side a_j takes the sign (-1)**j.
    """
    q = 10.0 ** draw(st.floats(-12.0, -1.0))
    dt = draw(st.sampled_from((0.0, 0.01)))
    if draw(st.booleans()):
        width = draw(st.floats(0.1, 3.0))
        r = draw(st.floats(-1.0, 1.0))
        place = draw(st.sampled_from(("inside", "left edge", "right edge", "left", "right")))
        lo = {"inside": r - width * draw(st.floats(0.05, 0.95)), "left edge": r,
              "right edge": r - width, "left": r + draw(st.floats(0.01, 1.0)),
              "right": r - width - draw(st.floats(0.01, 1.0))}[place]
        g = IndicatorBox(lo, lo + width)
        side = -1 if place in ("right edge", "right") else 1
        even = place == "inside"
    else:
        g = PowerIndicator(draw(st.sampled_from((0.0, 0.25, 0.45))), draw(st.floats(0.1, 2.0)))
        place = draw(st.sampled_from(("zero at 0", "inside", "left", "right edge", "right")))
        r = {"zero at 0": 0.0, "inside": g.eps * draw(st.floats(0.05, 0.95)),
             "left": -draw(st.floats(0.01, 1.0)), "right edge": g.eps,
             "right": g.eps + draw(st.floats(0.01, 1.0))}[place]
        side = -1 if place in ("right edge", "right") else 1
        even = place == "inside"
    orders = draw(st.sets(st.sampled_from((2, 4, 6) if even else (1, 2, 3, 4, 5, 6)),
                          min_size=1, max_size=3))
    coeffs = {(j,): side**j * draw(st.floats(0.1, 10.0)) for j in sorted(orders)}
    lo, hi = (g.lo[0], g.hi[0]) if isinstance(g, IndicatorBox) else (0.0, g.eps)
    return Polynomial(coeffs, root=r, domain=(min(lo, r), max(hi, r))), g, q, dt


@settings(max_examples=150, deadline=None)
@given(_one_sided_drifts())
# a simple zero at the right end of a power window: the exact value at dt = 0
# is log1p(1.75 / q) / 2, and a reference taken in x is 1.8e-7 off it
@example((Polynomial({(1,): -1.0}, root=1.75, domain=(0.0, 1.75)), PowerIndicator(0.0, 1.75),
          1e-12, 0.0))
def test_generic_1d_route_matches_adaptive_quad(case):
    symbol, g, q, dt = case
    r = float(symbol.root[0])
    # the reference takes the offset d = x - r, so no rounding of x enters it
    offset = lambda d: sum(a * d**j for (j,), a in symbol.coeffs.items())
    phi = lambda d: 1.0 / ((q + offset(d)) * (1.0 + 0.5 * dt * (q + offset(d))))
    quad = lambda fn, a, b, **kw: integrate.quad(fn, a, b, epsabs=0.0, epsrel=1e-10,
                                                 limit=400, **kw)[0]

    def pieces(lo, hi, centers):
        # breakpoints at the centers and at decades of the width away from them
        cuts = {c + s * (hi - lo) * 10.0**-k
                for c in centers for k in range(17) for s in (-1, 0, 1)}
        edges = sorted({lo, hi} | {x for x in cuts if lo < x < hi})
        return list(zip(edges[:-1], edges[1:]))

    if isinstance(g, IndicatorBox):
        want = sum(quad(phi, d0, d1) for d0, d1 in pieces(g.lo[0] - r, g.hi[0] - r, [0.0]))
    else:
        # x**(-2 gamma) is quad's algebraic weight on the first piece, which is
        # narrower than the layer at 0.  A piece nearer r than 0 is taken in d
        # with the weight (r + d)**(-2 gamma), so no rounding of x enters phi
        # near the zero; one nearer 0 stays in x, where r + d would round x
        w = -2.0 * g.gamma
        (x0, x1), *rest = pieces(0.0, g.eps, [0.0, r])
        want = quad(lambda x: phi(x - r), x0, x1, weight="alg", wvar=(w, 0.0))
        for x0, x1 in rest:
            if abs(x0 + x1 - 2.0 * r) < abs(x0 + x1):
                want += quad(lambda d: (r + d) ** w * phi(d), x0 - r, x1 - r)
            else:
                want += quad(lambda x: x ** w * phi(x - r), x0, x1)
    got = variance_quadrature(VarianceQuery(symbol, g, -q, 1.0), dt=dt)
    assert math.isclose(got, 0.5 * want, rel_tol=1e-7)


def test_general_polynomial_2d_brute_force():
    symbol = Polynomial({(2, 0): 1.0, (0, 2): 1.0, (1, 1): 0.5})
    q = 1e-5
    got = _value(symbol, IndicatorBox((0.0, 0.0), (1.0, 1.0)), -q)
    want = integrate.dblquad(
        lambda y, x: 1.0 / (x ** 2 + y ** 2 + 0.5 * x * y + q), 0, 1, 0, 1,
        epsabs=1e-12, epsrel=1e-10,
    )[0]
    assert math.isclose(got, want, rel_tol=1e-6)


# --------------------------------------------------------------------------
# the rescaled resolvent integral used by the log-power analysis

def test_appendix_integral_m0_closed_form():
    # exact antiderivative: log(1/q + 1) + 1/(1/q + 1) - 1
    for q in (1.0, 0.01, 1e-10):
        got = appendix_c_integral(0, q)
        want = math.log(1.0 / q + 1.0) + 1.0 / (1.0 / q + 1.0) - 1.0
        assert math.isclose(got, want, rel_tol=1e-10)
    assert math.isclose(appendix_c_integral(0, 1.0),
                        0.19314718055994531, rel_tol=1e-12)
    assert math.isclose(appendix_c_integral(0, 0.01),
                        3.62502150694027, rel_tol=1e-12)


def test_appendix_integral_brute_force_m1_m2():
    for m, q in ((1, 1e-3), (2, 1e-2)):
        got = appendix_c_integral(m, q)
        want = integrate.quad(
            lambda z: z * math.log(z) ** m / (z + 1.0) ** 2, 0.0, 1.0 / q,
            epsabs=1e-12, epsrel=1e-10, limit=400,
        )[0]
        assert math.isclose(got, want, rel_tol=1e-8)


def test_appendix_integral_ratio_tends_to_one():
    # value / (log^(m+1)(1/q) / (m+1)) approaches 1 from below as q -> 0
    m = 1
    ratios = []
    for q in (1e-4, 1e-8, 1e-12):
        target = math.log(1.0 / q) ** (m + 1) / (m + 1)
        ratios.append(appendix_c_integral(m, q) / target)
    assert ratios[0] < ratios[1] < ratios[2] < 1.0
    assert ratios[2] > 0.99


def test_appendix_integral_finite_at_extreme_q():
    # the log-coordinate tail overflowed below q ~ 1e-154, and log(1/q)
    # is infinite below q ~ 5.6e-309; across both edges the value stays
    # finite, grows as q drops and stays below L**(m+1) / (m+1)
    qs = (1e-150, 1e-160, 1e-300, 1e-308, 1e-309, 5e-324)
    for m in (0, 1, 2):
        values = [appendix_c_integral(m, q) for q in qs]
        assert all(math.isfinite(v) for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))
        for q, v in zip(qs, values):
            assert v < (-math.log(q)) ** (m + 1) / (m + 1)


def test_appendix_integral_validation():
    with pytest.raises(ValueError):
        appendix_c_integral(-1, 0.5)
    with pytest.raises(ValueError):
        appendix_c_integral(0, 0.0)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -math.inf, 0.0, -1.0, 1.0, 2.0])
def test_every_entry_point_takes_one_rel_tol_rule(rel_tol):
    # a NaN tolerance used to switch off the error-estimate gate
    calls = (lambda: monomial_integral((1, 2), 1.0, 1e-3, rel_tol=rel_tol),
             lambda: appendix_c_integral(1, 1e-3, rel_tol=rel_tol),
             lambda: _value(ToolAlpha(2.0), IndicatorBox(0.0, 1.0), -1e-3, rel_tol=rel_tol))
    for call in calls:
        with pytest.raises(ValueError, match=r"rel_tol must be a finite number in \(0, 1\)"):
            call()


@pytest.mark.parametrize("window", [PowerIndicator(0.2, 1.0), PowerIndicator(0.0, 1.0),
                                    PowerIndicator(0.45, 3.0), PowerIndicator(0.2, 0.3)])
def test_kernels_take_box_windows_only(window):
    # the interpolant has a kink at every frequency node (spacing 0.39 here),
    # where a power window's graded rule puts no panel edge; [0, 0.3] ends
    # before the first node, and is refused all the same
    n, dx = 64, 0.25
    k = 2 * math.pi * np.fft.fftfreq(n, d=dx)
    ker = ConvolutionKernel(np.real(np.fft.ifft(-(k ** 2 - 1.0) ** 2)) / dx, dx)
    for p in (-1.0, -0.1, -1e-3):
        with pytest.raises(ValueError, match="unsupported combination"):
            _value(ker, window, p)


@pytest.mark.parametrize("dt", [0.0, 0.01])
def test_a_kernel_side_of_a_piecewise_symbol_takes_the_exact_route(dt):
    # the discrete Laplacian kernel, multiplier 2 cos(k) - 2, left of 0
    ker = ConvolutionKernel([-2.0, 1.0] + [0.0] * 13 + [1.0], 1.0)
    glued = Piecewise(ker, ToolAlpha(2.0))
    for p in (-1e-2, -1e-6, -1e-10):
        got = _value(glued, IndicatorBox(-1.0, 1.0), p, dt=dt)
        want = (_value(ker, IndicatorBox(-1.0, 0.0), p, dt=dt)
                + _value(ToolAlpha(2.0), IndicatorBox(0.0, 1.0), p, dt=dt))
        assert math.isclose(got, want, rel_tol=1e-14), p


# the route table: one example of every symbol kind (several where the kind's
# dimension or coefficients change its route) and of every window kind
_LAPLACIAN = ConvolutionKernel([-2.0, 1.0] + [0.0] * 13 + [1.0], 1.0)
_TABLE_SYMBOLS = {
    "tool": ToolAlpha(2.0),
    "tool off 0": ToolAlpha(2.0, root=0.3),
    "power2m": PowerWavenumber(1),
    "polynomial 1-D": Polynomial({(2,): 1.0, (3,): 0.5}, root=0.0, domain=(-0.5, 1.0)),
    "piecewise": Piecewise(ToolAlpha(2.0), ToolAlpha(4.0)),
    "piecewise, kernel right": Piecewise(ToolAlpha(2.0), _LAPLACIAN),
    "sh1d": SwiftHohenberg1D(),
    "kernel": _LAPLACIAN,
    "zero 1-D": Zero(1),
    "custom 1-D": CustomSymbol(lambda x: -(x ** 2)),
    "radial": Radial2D(2.0),
    "sh2d": SwiftHohenberg2D(),
    "polynomial separable 2-D": Polynomial({(2, 0): 1.0, (0, 4): 1.0}),
    "polynomial 2-D": Polynomial({(2, 0): 1.0, (0, 2): 1.0, (1, 1): 0.5}),
    "zero 2-D": Zero(2),
    "custom 2-D": CustomSymbol(lambda x: -(x[..., 0] ** 2 + x[..., 1] ** 2), dim=2),
    "polynomial separable 3-D": Polynomial({(2, 0, 0): 1.0, (0, 2, 0): 2.0, (0, 0, 4): 1.0}),
    "polynomial 3-D": Polynomial({(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (1, 1, 0): 0.5}),
    "zero 4-D": Zero(4),
}
_TABLE_WINDOWS = {
    "box 1-D": IndicatorBox(-0.5, 1.0),
    "power": PowerIndicator(0.25, 1.0),
    "box 2-D": IndicatorBox((-0.5, 0.0), (1.0, 1.0)),
    "disc": Disc(1.5),
    "quarter disc": QuarterDisc(0.5),
    "box 3-D": IndicatorBox.cube(1.0, 3),
    "box 4-D": IndicatorBox.cube(1.0, 4),
}
# the law of predicted_law: a ScalingLaw, or the error type and the start of its text
_HALF = ScalingLaw(-0.5, 0)
_THREE_QUARTERS = ScalingLaw(-0.75, 0)  # the power window x**(-1/4) at the root
_TWO_LOGS = ScalingLaw(0.0, 2)  # the corner bound of the mixed term x*y
_BOUNDED = ScalingLaw.bounded()
_KERNEL = (LawUnavailableError, "sampled kernels have no expansion around their zero set")
_REFUSED = (ValueError, "unsupported")


def _no_row(kind):
    return (LawUnavailableError, f"no catalog law for {kind} symbols")


# the route and the law of every pair of one dimension, the route None where the
# pair is refused
_TABLE = {
    ("tool", "box 1-D"): ("power law", _HALF),
    ("tool", "power"): ("power law", _THREE_QUARTERS),
    ("tool off 0", "box 1-D"): ("power law", _HALF),
    ("tool off 0", "power"): ("offset-log", _HALF),  # the window's singular 0 is not the root
    ("power2m", "box 1-D"): ("power law", _HALF),
    ("power2m", "power"): ("power law", _THREE_QUARTERS),
    ("polynomial 1-D", "box 1-D"): ("offset-log", _HALF),
    ("polynomial 1-D", "power"): ("offset-log", _THREE_QUARTERS),
    ("piecewise", "box 1-D"): ("piecewise", _no_row("piecewise")),
    ("piecewise", "power"): ("piecewise", _no_row("piecewise")),
    ("piecewise, kernel right", "box 1-D"): ("piecewise", _no_row("piecewise")),
    ("piecewise, kernel right", "power"): (None, _REFUSED),  # its kernel side takes boxes only
    ("sh1d", "box 1-D"): ("offset-log", _HALF),
    ("sh1d", "power"): ("offset-log", _HALF),
    ("kernel", "box 1-D"): ("kernel exact", _KERNEL),
    ("kernel", "power"): (None, _REFUSED),
    ("zero 1-D", "box 1-D"): ("offset-log", _no_row("zero")),
    ("zero 1-D", "power"): ("offset-log", _no_row("zero")),
    ("custom 1-D", "box 1-D"): ("offset-log", _no_row("custom")),
    ("custom 1-D", "power"): ("offset-log", _no_row("custom")),
    ("radial", "box 2-D"): ("tensor", _no_row("radial2d")),
    ("radial", "disc"): ("polar", _no_row("radial2d")),
    ("radial", "quarter disc"): ("polar", _no_row("radial2d")),
    ("sh2d", "box 2-D"): (None, _REFUSED),  # the tensor panels grade toward a point, not a ring
    ("sh2d", "disc"): ("polar", _HALF),
    ("sh2d", "quarter disc"): ("polar", _BOUNDED),
    ("polynomial separable 2-D", "box 2-D"): ("separable reduction", _HALF),
    ("polynomial separable 2-D", "disc"): (None, _REFUSED),
    ("polynomial separable 2-D", "quarter disc"): (None, _REFUSED),
    ("polynomial 2-D", "box 2-D"): ("tensor", _TWO_LOGS),
    ("polynomial 2-D", "disc"): (None, _REFUSED),
    ("polynomial 2-D", "quarter disc"): (None, _REFUSED),
    ("zero 2-D", "box 2-D"): ("tensor", _no_row("zero")),
    ("zero 2-D", "disc"): (None, _REFUSED),
    ("zero 2-D", "quarter disc"): (None, _REFUSED),
    ("custom 2-D", "box 2-D"): ("tensor", _no_row("custom")),
    ("custom 2-D", "disc"): (None, _REFUSED),
    ("custom 2-D", "quarter disc"): (None, _REFUSED),
    ("polynomial separable 3-D", "box 3-D"): ("separable reduction", _HALF),
    ("polynomial 3-D", "box 3-D"): ("tensor", _TWO_LOGS),
    ("zero 4-D", "box 4-D"): (None, _REFUSED),
}
# the law of every symbol alone, predicted_law without a window
_SYMBOL_LAWS = {
    "tool": _HALF,
    "tool off 0": _HALF,
    "power2m": _HALF,
    "polynomial 1-D": _HALF,
    "piecewise": _no_row("piecewise"),
    "piecewise, kernel right": _no_row("piecewise"),
    "sh1d": _HALF,
    "kernel": _KERNEL,
    "zero 1-D": _no_row("zero"),
    "custom 1-D": _no_row("custom"),
    "radial": _no_row("radial2d"),
    "sh2d": _HALF,
    "polynomial separable 2-D": _HALF,
    "polynomial 2-D": _TWO_LOGS,
    "zero 2-D": _no_row("zero"),
    "custom 2-D": _no_row("custom"),
    "polynomial separable 3-D": _HALF,
    "polynomial 3-D": _TWO_LOGS,
    "zero 4-D": _no_row("zero"),
}


def _assert_law(call, want):
    if isinstance(want, ScalingLaw):
        assert call() == want
    else:
        error, text = want
        with pytest.raises(Exception, match="^" + re.escape(text)) as info:
            call()
        assert info.type is error


def test_the_route_table_covers_every_kind():
    # a kind registered without rows here fails
    assert {s.kind for s in _TABLE_SYMBOLS.values()} == set(Symbol.kinds) | {CustomSymbol.kind}
    assert {g.kind for g in _TABLE_WINDOWS.values()} == set(TestFunction.kinds)
    pairs = {(s, g) for s, symbol in _TABLE_SYMBOLS.items() for g, window in _TABLE_WINDOWS.items()
             if symbol.dim == window.dim}
    assert pairs == set(_TABLE)
    assert set(_SYMBOL_LAWS) == set(_TABLE_SYMBOLS)


@pytest.mark.parametrize("pair", sorted(_TABLE), ids=" / ".join)
def test_every_pair_takes_its_route_or_is_refused(pair):
    symbol, g = _TABLE_SYMBOLS[pair[0]], _TABLE_WINDOWS[pair[1]]
    if _TABLE[pair][0] is None:
        with pytest.raises(ValueError, match="^unsupported"):
            route_of(symbol, g)
    else:
        assert route_of(symbol, g).name == _TABLE[pair][0]


@pytest.mark.parametrize("pair", sorted(_TABLE), ids=" / ".join)
def test_every_pair_has_the_law_of_its_route(pair, monkeypatch):
    symbol, g = _TABLE_SYMBOLS[pair[0]], _TABLE_WINDOWS[pair[1]]
    _assert_law(lambda: predicted_law(symbol, g), _TABLE[pair][1])
    if _TABLE[pair][0] is not None:
        # every variance call looks its route up: the route does no law work until asked
        monkeypatch.setattr(symbol, "law", lambda *a, **k: pytest.fail("law computed"))
        route_of(symbol, g)


@pytest.mark.parametrize("symbol, g", [
    (Polynomial({(2, 0): 1.0, (0, 2): 1.0}), IndicatorBox(-1.0, 1.0)),
    (Polynomial({(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}),
     IndicatorBox((-1.0, -1.0), (1.0, 1.0))),
    (ToolAlpha(2.0), IndicatorBox((-1.0, -1.0), (1.0, 1.0))),
], ids=["2-D on 1-D", "3-D on 2-D", "1-D on 2-D"])
def test_a_window_of_another_dimension_is_refused(symbol, g):
    text = f"^symbol dimension {symbol.dim} does not match window dimension {g.dim}$"
    for call in (route_of, predicted_law, lambda s, w: VarianceQuery(s, w, -0.1)):
        with pytest.raises(ValueError, match=text):
            call(symbol, g)


@pytest.mark.parametrize("name", sorted(_SYMBOL_LAWS))
def test_every_symbol_alone_has_its_law(name):
    _assert_law(lambda: predicted_law(_TABLE_SYMBOLS[name]), _SYMBOL_LAWS[name])


def test_the_readme_lists_the_routes_of_the_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Variance routes", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^- `([^`]+)`:", section, flags=re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == {route for route, _ in _TABLE.values()} - {None}
