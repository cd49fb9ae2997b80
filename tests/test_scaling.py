"""Law catalog, sweep containers, and log-log fitting."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewslab import quadrature
from ewslab.quadrature import (
    Disc,
    IndicatorBox,
    PowerIndicator,
    QuadratureError,
    QuarterDisc,
    VarianceQuery,
    variance_quadrature,
)
from ewslab.scaling import (
    FitResult,
    SweepResult,
    classify,
    default_exponent_candidates,
    fit_loglog,
    log_spaced_p,
    predicted_law,
    quadrature_sweep,
)
from ewslab.spectral import spectral_sweep, variance_spectral
from ewslab.symbols import (
    FREQUENCY_KINDS,
    ConvolutionKernel,
    LawUnavailableError,
    Piecewise,
    Polynomial,
    PowerWavenumber,
    Radial2D,
    ScalingLaw,
    SwiftHohenberg1D,
    SwiftHohenberg2D,
    ToolAlpha,
    best_upper_bound,
    law_1d,
    law_analytic_1d,
    law_upper_bound,
    minimal_support,
    polynomial_law,
    predicts_convergence,
)


def test_scaling_law_validation():
    ScalingLaw(-0.5, 0, False)
    ScalingLaw(0.0, 2, False)
    bounded = ScalingLaw.bounded()
    assert bounded.convergent and bounded.s == 0.0 and bounded.k == 0
    with pytest.raises(ValueError):
        ScalingLaw(0.0, 0, False)  # a divergent law must diverge somehow
    with pytest.raises(ValueError):
        ScalingLaw(-1.5, 0, False)
    with pytest.raises(ValueError):
        ScalingLaw(-0.5, 1, True)


def test_one_dim_tool_law_catalog():
    assert law_1d(0.5) == ScalingLaw.bounded()
    assert law_1d(1.0) == ScalingLaw(0.0, 1, False)
    assert law_1d(2.0) == ScalingLaw(-0.5, 0, False)
    assert law_1d(5.0) == ScalingLaw(-0.8, 0, False)


def test_one_dim_weighted_window_law():
    # 2 gamma + alpha balance: 1.5 > 1 gives s = -1 + (1 - 2 gamma) / alpha
    assert law_1d(1.0, gamma=0.25) == ScalingLaw(-0.5, 0, False)
    assert law_1d(0.5, gamma=0.2) == ScalingLaw.bounded()  # balance 0.9 < 1
    assert law_1d(0.5, gamma=0.25) == ScalingLaw(0.0, 1, False)  # balance 1


def test_analytic_law_uses_least_nonzero_order():
    assert law_analytic_1d({(1,): 2.0}) == ScalingLaw(0.0, 1, False)
    assert law_analytic_1d({(3,): 1.0, (5,): 7.0}) == ScalingLaw(-1.0 + 1.0 / 3.0, 0, False)
    assert law_analytic_1d({2: 0.5}) == ScalingLaw(-0.5, 0, False)
    with pytest.raises(ValueError):
        law_analytic_1d({(0,): 1.0, (2,): 1.0})
    with pytest.raises(ValueError):
        law_analytic_1d({(1, 1): 1.0})


def test_corner_bound_catalog():
    assert law_upper_bound((1, 1)) == ScalingLaw(0.0, 2, False)
    assert law_upper_bound((1, 1, 1)) == ScalingLaw(0.0, 3, False)
    assert law_upper_bound((2, 10)) == ScalingLaw(-0.9, 0, False)
    assert law_upper_bound((3, 3)) == ScalingLaw(-1.0 + 1.0 / 3.0, 1, False)
    assert law_upper_bound((1, 2, 3)) == ScalingLaw(-1.0 + 1.0 / 3.0, 0, False)


def test_corner_bound_reduces_zero_axes_first():
    assert law_upper_bound((0, 2)) == law_upper_bound((2,))
    assert law_upper_bound((0, 1, 0)) == ScalingLaw(0.0, 1, False)
    with pytest.raises(ValueError, match="no bifurcation"):
        law_upper_bound((0, 0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=4).filter(any))
def test_corner_bound_drops_zeros_and_extends_the_1d_law(j):
    nonzero = tuple(c for c in j if c)
    law = law_upper_bound(tuple(j))
    assert law == law_upper_bound(nonzero)
    if len(nonzero) == 1:
        assert law == law_1d(nonzero[0])


@settings(max_examples=150, deadline=None)
@given(st.permutations([1, 2, 4]))
def test_corner_bound_permutation_invariance(perm):
    assert law_upper_bound(tuple(perm)) == law_upper_bound((1, 2, 4))


def test_best_upper_bound_takes_slowest_divergence():
    # (2,0) reduces to alpha=2 (power -1/2); (0,10) to alpha=10 (power -0.9);
    # the tighter ceiling is the slower one
    law = best_upper_bound([(2, 0), (0, 10)])
    assert law == ScalingLaw(-0.5, 0, False)
    # a log bound beats any power bound
    law = best_upper_bound([(1, 1), (0, 3)])
    assert law == ScalingLaw(0.0, 2, False)


def test_best_upper_bound_all_zero_is_bounded():
    assert best_upper_bound([(0, 0)]) == ScalingLaw.bounded()


@pytest.mark.parametrize("reader", [Polynomial, minimal_support, predicts_convergence,
                                    polynomial_law, law_analytic_1d])
@pytest.mark.parametrize("coeffs, message", [
    ({}, "coefficient map is empty"),
    ({(1, 0): 1.0, (0, 1): math.nan}, "must be finite"),
    ({(1, 0): 1.0, (0, 1): math.inf}, "must be finite"),
    ({(1, 0): 1.0, (0, 1, 0): 0.0}, "same number of components"),
])
def test_coefficient_maps_share_one_reader(reader, coeffs, message):
    with pytest.raises(ValueError, match=message):
        reader(coeffs)


def test_coefficient_readers_reject_a_repeated_index():
    # the bare order 2 and the tuple (2,) name one multi-index
    for reader in (minimal_support, predicts_convergence, polynomial_law, law_analytic_1d,
                   Polynomial):
        with pytest.raises(ValueError, match="duplicate multi-index"):
            reader({2: 1.0, (2,): 3.0})


def test_polynomial_corner_law_needs_a_box_that_holds_the_root():
    bowl = Polynomial({(2, 0): 1.0, (0, 2): 1.0}, domain=((-1.0, -1.0), (1.0, 1.0)))
    for window in (IndicatorBox((0.0, 0.0), (1.0, 1.0)), IndicatorBox((-1.0, -1.0), (1.0, 1.0)),
                   IndicatorBox((-1.0, 0.0), (0.0, 0.5))):
        assert predicted_law(bowl, window) == polynomial_law(bowl.coeffs)
    assert predicted_law(bowl) == polynomial_law(bowl.coeffs)
    cross = Polynomial({(1, 1): 1.0})
    # bounded away from the root; x*y on [0,1]x[1/2,1] is a logarithm in x alone
    for symbol, window in ((bowl, IndicatorBox((0.5, 0.5), (1.0, 1.0))),
                           (cross, IndicatorBox((0.0, 0.5), (1.0, 1.0)))):
        with pytest.raises(LawUnavailableError, match="box window that holds its root"):
            predicted_law(symbol, window)


def test_polynomial_law_routes():
    # one dimension goes through the analytic law
    assert polynomial_law({(3,): 1.0}) == ScalingLaw(-1.0 + 1.0 / 3.0, 0, False)
    # two distinct unit directions with positive weights stay bounded
    assert polynomial_law({(1, 0): 1.0, (0, 1): 1.0}) == ScalingLaw.bounded()
    # otherwise the corner bounds on the minimal support apply
    assert polynomial_law({(2, 0): 1.0, (0, 10): 1.0}) == ScalingLaw(-0.5, 0, False)
    assert polynomial_law({(1, 1): 1.0, (2, 2): 9.0}) == ScalingLaw(0.0, 2, False)


# --------------------------------------------------------------------------
# sweep container and CSV interchange

@pytest.mark.parametrize("coeffs, s, law", [
    ({(2, 0): 1.0, (0, 3): 1.0}, -1.0 / 6.0, None),
    ({(2, 0): 1.0, (0, 4): 1.0}, -0.25, None),
    ({(2, 0): 1.0, (0, 2): 1.0}, 0.0, ScalingLaw(0.0, 1)),
    ({(1, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 3): 1.0}, 0.0, ScalingLaw.bounded()),
])
def test_separable_sum_rates_follow_the_weight_rule(coeffs, s, law):
    # a sum of one-axis powers has Newton distance 1 / sum(1/a_k): the rate is
    # q**(-1 + sum(1/a_k)) below sum 1, log at 1 and bounded above
    dim = len(next(iter(coeffs)))
    box = IndicatorBox((0.0,) * dim, (1.0,) * dim)
    fit = fit_loglog(quadrature_sweep(Polynomial(coeffs), box, log_spaced_p(-14, -4, 41)))
    assert abs(fit.s - s) <= 0.01
    if law is not None:
        assert classify(fit.s, fit.k) == law
    # the corner catalog stays a ceiling: never a slower divergence than the attained one
    assert polynomial_law(coeffs).s <= s


def test_sweep_requires_negative_increasing_p():
    SweepResult((-0.1, -0.01), (1.0, 2.0))
    with pytest.raises(ValueError):
        SweepResult((-0.01, -0.1), (1.0, 2.0))
    with pytest.raises(ValueError):
        SweepResult((-0.1, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        SweepResult((-0.1,), (1.0, 2.0))


def test_sweep_csv_round_trip_is_byte_stable():
    sweep = SweepResult(
        (-0.1, -0.012345678901234567, -1e-7),
        (1.5, 2.25, 1.0 / 3.0),
        (0.0, 0.5, 0.0625),
        "simulation",
    )
    text = sweep.to_csv()
    clone = SweepResult.from_csv(text)
    assert clone.to_csv() == text
    assert clone.source == "simulation"
    np.testing.assert_array_equal(clone.ps, sweep.ps)
    np.testing.assert_array_equal(clone.values, sweep.values)


def test_sweep_csv_sorts_rows_from_file():
    text = ("p,value,stderr,source\n"
            "-1e-4,3.0,0.0,quadrature\n"
            "-1e-2,1.0,0.0,quadrature\n")
    sweep = SweepResult.from_csv(text)
    assert sweep.ps[0] == -1e-2 and sweep.ps[-1] == -1e-4


def test_sweep_csv_rejects_bad_input():
    with pytest.raises(ValueError, match="header"):
        SweepResult.from_csv("a,b\n1,2\n")
    with pytest.raises(ValueError, match="row 3"):
        SweepResult.from_csv(
            "p,value,stderr,source\n-0.1,1.0,0.0,quadrature\n-0.2,oops,0.0,quadrature\n")
    with pytest.raises(ValueError, match="mixed"):
        SweepResult.from_csv(
            "p,value,stderr,source\n-0.1,1.0,0.0,quadrature\n-0.2,2.0,0.0,simulation\n")
    with pytest.raises(ValueError):
        SweepResult.from_csv("p,value,stderr,source\n0.1,1.0,0.0,quadrature\n")


def test_log_spaced_grid_is_negative_and_increasing():
    ps = log_spaced_p(-8, -2, 13)
    assert len(ps) == 13
    assert ps[0] == -1e-2 and math.isclose(ps[-1], -1e-8)
    assert all(a < b < 0 for a, b in zip(ps, ps[1:]))


def test_quadrature_sweep_matches_pointwise_calls():
    symbol = ToolAlpha(2.0)
    g = IndicatorBox(0.0, 1.0)
    ps = log_spaced_p(-6, -2, 6)
    sweep = quadrature_sweep(symbol, g, ps, sigma=1.0, threads=2)
    for p, value in zip(sweep.ps, sweep.values):
        direct = variance_quadrature(VarianceQuery(symbol, g, p, 1.0))
        assert math.isclose(value, direct, rel_tol=1e-12)
    assert sweep.source == "quadrature"
    assert all(a < b for a, b in zip(sweep.values, sweep.values[1:]))


def _kernel():
    k = 2 * np.pi * np.fft.fftfreq(128, d=0.25)
    return ConvolutionKernel(np.real(np.fft.ifft(-(k ** 2 - 1.0) ** 2)) / 0.25, 0.25)


_ONE_DIM = {
    "tool": lambda draw: ToolAlpha(draw(st.sampled_from((0.5, 1.0, 2.0, 5.0)))),
    "mono": lambda draw: Polynomial({(draw(st.integers(1, 4)),): 1.0}),
    "pw": lambda draw: Piecewise(ToolAlpha(1.0), ToolAlpha(draw(st.sampled_from((2.0, 3.0))))),
    "sh1d": lambda draw: SwiftHohenberg1D(),
    "power2m": lambda draw: PowerWavenumber(draw(st.integers(1, 2))),
    "kernel": lambda draw: _kernel(),
}
_BOXES = {2: [IndicatorBox((0.0, 0.0), (1.0, 1.0)), IndicatorBox((-0.5, 0.2), (1.0, 0.9))],
          3: [IndicatorBox((0.0,) * 3, (1.0,) * 3)]}
_SEPARABLE = [Polynomial({(2, 0): 1.0, (0, 4): 1.0}), Polynomial({(1, 0): 2.0, (0, 2): 1.0}),
              Polynomial({(1, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 3): 1.0})]


def _sweep_case(kind, draw):
    """A symbol of ``kind`` and a window its route takes, with a grid, sigma and dt."""
    lowest = -9.0
    if kind in _ONE_DIM:
        symbol = _ONE_DIM[kind](draw)
        if kind == "kernel" or draw(st.booleans()):
            lo = draw(st.floats(-2.0, 0.5))
            g = IndicatorBox(lo, lo + draw(st.floats(0.1, 2.5)))
        else:
            g = PowerIndicator(draw(st.floats(0.0, 0.45)), draw(st.floats(0.2, 2.0)))
    elif kind in ("radial", "sh2d"):
        symbol = Radial2D(draw(st.sampled_from((1.0, 2.0, 3.0)))) if kind == "radial" \
            else SwiftHohenberg2D()
        radius = draw(st.floats(0.3, 1.6))
        g = Disc(radius) if draw(st.booleans()) else QuarterDisc(radius)
    elif kind == "separable":
        symbol = draw(st.sampled_from(_SEPARABLE))
        g = draw(st.sampled_from(_BOXES[symbol.dim]))
    else:
        # not separable: the tensor levels, one p at a time inside the sweep
        symbol = Polynomial({(2, 0): 1.0, (0, 2): 1.0, (1, 1): 0.5})
        g = draw(st.sampled_from(_BOXES[2]))
        lowest = -4.0
    decades = draw(st.lists(st.floats(lowest, -0.5), min_size=1, max_size=5, unique=True))
    ps = -np.sort(10.0 ** np.array(decades))[::-1]
    return symbol, g, ps, draw(st.floats(0.2, 3.0)), draw(st.sampled_from((0.0, 0.01)))


def _outcome(evaluate):
    """The values, or the type and message of the error that ``evaluate`` raises."""
    try:
        return evaluate()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", [*_ONE_DIM, "radial", "sh2d", "separable", "tensor"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_sweeps_give_the_bits_of_the_pointwise_calls(kind, data):
    # all p of a sweep go through their route at once; each value must be
    # the one its p gives alone, for any split of the grid over threads
    symbol, g, ps, sigma, dt = _sweep_case(kind, data.draw)
    pointwise = _outcome(lambda: [variance_quadrature(VarianceQuery(symbol, g, p, sigma), dt=dt)
                                  for p in ps])
    for threads in (1, 2):
        with mock.patch.object(quadrature, "variance_quadrature",
                               wraps=variance_quadrature) as alone:
            swept = _outcome(lambda: quadrature_sweep(symbol, g, ps, sigma=sigma, threads=threads,
                                                      dt=dt).values.tolist())
        assert swept == pointwise
        # a grid whose every p succeeds never falls back to one p at a time
        assert isinstance(pointwise, tuple) or not alone.called
    if dt == 0.0 and isinstance(symbol, FREQUENCY_KINDS):
        assert _outcome(lambda: spectral_sweep(symbol, g, ps, sigma=sigma).values.tolist()) == \
            _outcome(lambda: [variance_spectral(VarianceQuery(symbol, g, p, sigma)) for p in ps])


@pytest.mark.parametrize("ps, error, message", [
    # the side integral overflows at p = -1e-320; at p = -1e-300 the value
    # does not, but 0.5 sigma**2 times it does; 0.5 is not a stable p
    ([-1e-2, -1e-320, -1e-300], QuadratureError,
     "side integral of |x|**100.0 overflows at q = 1e-320"),
    ([-1e-2, -1e-300, -1e-320], QuadratureError,
     "the variance at p = -1e-300 is inf, not a positive double"),
    ([-1e-2, 0.5, -1e-320], ValueError,
     "p must be negative, the equation is only stable for p < 0"),
    ([-1e-320, -1e-2, 0.5], QuadratureError, "side integral of |x|**100.0 overflows at q = 1e-320"),
])
def test_a_sweep_raises_the_error_of_its_first_failing_p(ps, error, message):
    symbol, g = ToolAlpha(100.0), IndicatorBox(0.0, 1.0)
    assert _outcome(lambda: [variance_quadrature(VarianceQuery(symbol, g, p, 1e10)) for p in ps]) \
        == (error, message)
    for threads in (1, 2, 3):
        assert _outcome(lambda: quadrature_sweep(symbol, g, ps, sigma=1e10, threads=threads)) \
            == (error, message)
    assert _outcome(lambda: spectral_sweep(PowerWavenumber(50), g, ps, sigma=1e10)) == (
        error, message)


# --------------------------------------------------------------------------
# fitting and classification

def _synthetic(s, k, c, decades=(-8, -2), points=24):
    ps = log_spaced_p(decades[0], decades[1], points)
    q = -ps
    values = np.exp(c) * q ** s * np.where(k > 0, (-np.log(q)) ** k, 1.0)
    return SweepResult(ps, values)


def test_fit_recovers_exact_model():
    for s, k, c in ((-0.5, 0.0, 0.3), (0.0, 2.0, -1.0), (-2.0 / 3.0, 1.0, 0.0)):
        fit = fit_loglog(_synthetic(s, k, c))
        assert abs(fit.s - s) < 1e-6
        assert abs(fit.k - k) < 1e-6
        assert abs(fit.c - c) < 1e-5
        assert fit.residual < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-1.0, 0.0),
    st.integers(0, 3),
    st.floats(-2.0, 2.0),
)
def test_fit_exactness_property(s, k, c):
    fit = fit_loglog(_synthetic(s, float(k), c))
    assert abs(fit.s - s) < 1e-6
    assert abs(fit.k - k) < 1e-6


def test_fit_default_window_uses_smallest_decades():
    # corrupt the large-q half; the default window must ignore it
    sweep = _synthetic(-0.5, 0.0, 0.0, decades=(-8, -2), points=24)
    values = np.array(sweep.values, copy=True)
    mask = -np.asarray(sweep.ps) > 1e-6
    values[mask] *= 5.0
    fit = fit_loglog(SweepResult(sweep.ps, values))
    assert abs(fit.s + 0.5) < 1e-6


def test_fit_explicit_window():
    sweep = _synthetic(-0.5, 0.0, 0.0)
    fit = fit_loglog(sweep, window=(1e-6, 1e-3))
    assert abs(fit.s + 0.5) < 1e-6


def test_fit_needs_enough_small_p_points():
    ps = log_spaced_p(-4, -2, 7)
    with pytest.raises(ValueError):
        fit_loglog(SweepResult(ps, np.ones(7)))
    bad = SweepResult((-3.0, -2.0, -1.5), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        fit_loglog(bad)


def test_fit_result_formatting():
    fit = FitResult(-0.5, 0.0, 1.0, 1e-9, 0.01, 0.02)
    text = str(fit)
    assert "-0.5" in text and "+-" in text


def test_classify_snaps_to_catalog():
    assert classify(-0.497, 0.02) == ScalingLaw(-0.5, 0, False)
    assert classify(-0.9, -0.01) == ScalingLaw(-0.9, 0, False)
    assert classify(0.01, 1.98) == ScalingLaw(0.0, 2, False)
    assert classify(0.0, 0.0) == ScalingLaw.bounded()
    assert classify(-0.43, 0.0) is None
    assert classify(-0.5, 0.4) is None


def test_classify_custom_candidates():
    got = classify(-0.335, 0.0, candidates=[-1.0 / 3.0], tol=0.01)
    assert got == ScalingLaw(-1.0 / 3.0, 0, False)
    assert classify(-0.335, 0.0, candidates=[-0.25], tol=0.01) is None


def test_default_candidates_include_tool_rates():
    cands = default_exponent_candidates()
    assert 0.0 in cands and -1.0 in cands
    assert any(math.isclose(c, -0.5) for c in cands)
    assert any(math.isclose(c, -1.0 + 1.0 / 12.0) for c in cands)
