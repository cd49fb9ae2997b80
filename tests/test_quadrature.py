"""Closed-form variance quadrature against independent oracles.

Every expected value here comes from a route the quadrature code does
not take: textbook antiderivatives, scipy's generic adaptive quad on
the raw integrand, or tensor brute force.  Frozen decimals are recorded
next to the formulas that produced them.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ewslab.quadrature import (
    test_function_from_dict as window_from_dict,
    test_function_to_dict as window_to_dict,
    Disc,
    IndicatorBox,
    PowerIndicator,
    QuarterDisc,
    VarianceQuery,
    appendix_c_integral,
    dimension_reduce,
    monomial_integral,
    variance_quadrature,
)
from ewslab.symbols import (
    Piecewise,
    Polynomial,
    Radial2D,
    ToolAlpha,
    Zero,
)

SQRT2 = math.sqrt(2.0)


def _value(symbol, g, p, sigma=SQRT2, **kw):
    return variance_quadrature(VarianceQuery(symbol, g, p, sigma), **kw)


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


def test_power_window_arctan_oracle():
    # gamma = 1/4 window on the linear tool: substituting x = t^2 gives
    # integral of x^(-1/2)/(x+q) over [0,1] = 2 arctan(1/sqrt(q))/sqrt(q)
    q = 1e-4
    got = _value(ToolAlpha(1.0), PowerIndicator(0.25, 1.0), -q)
    want = 2.0 / math.sqrt(q) * math.atan(1.0 / math.sqrt(q))
    assert math.isclose(got, want, rel_tol=1e-8)


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


def test_radial_general_exponent_brute_force():
    q = 1e-3
    got = _value(Radial2D(3.0), QuarterDisc(1.0), -q)
    # polar brute force: (pi/2) * integral of r/(r^3+q) dr over [0,1]
    want = (math.pi / 2.0) * integrate.quad(
        lambda r: r / (r ** 3 + q), 0.0, 1.0,
        epsabs=1e-13, epsrel=1e-11, points=[q ** (1.0 / 3.0)],
    )[0]
    assert math.isclose(got, want, rel_tol=1e-7)


def test_scheme_corrected_resolvent_oracle():
    # with the implicit-scheme correction the integrand becomes
    # 1/(t + dt t^2 / 2); for f = 0 this is vol / (q (1 + dt q / 2))
    q, dt = 0.25, 0.1
    got = _value(Zero(1), IndicatorBox(0.0, 2.0), -q, dt=dt)
    want = 2.0 / (q * (1.0 + 0.5 * dt * q))
    assert math.isclose(got, want, rel_tol=1e-10)
    plain = _value(Zero(1), IndicatorBox(0.0, 2.0), -q)
    assert got < plain


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


def test_window_serialization_round_trip():
    for g in (IndicatorBox((0.0, -1.0), (1.0, 2.0)), PowerIndicator(0.25, 0.5),
              QuarterDisc(2.0), Disc(1.5)):
        clone = window_from_dict(window_to_dict(g))
        assert type(clone) is type(g)
        assert window_to_dict(clone) == window_to_dict(g)


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


def test_monomial_rejects_more_than_three_active_axes():
    with pytest.raises(ValueError):
        monomial_integral((1, 1, 1, 1), 1.0, 1e-3)


def test_dimension_reduce_strips_zero_axes():
    reduced, prefactor = dimension_reduce((0, 2, 0, 3), 0.5)
    assert reduced == (2, 3)
    assert math.isclose(prefactor, 0.5 ** 2)
    with pytest.raises(ValueError):
        dimension_reduce((0, 0), 1.0)


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
