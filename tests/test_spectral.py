"""Frequency-space variance routes and their predicted laws."""
import math

import numpy as np
import pytest
from scipy import integrate

from ewslab.quadrature import Disc, IndicatorBox, PowerIndicator, QuarterDisc, VarianceQuery
from ewslab.scaling import fit_loglog, log_spaced_p, predicted_law
from ewslab.spectral import predicted_spectral_law, spectral_sweep, variance_spectral
from ewslab.symbols import (
    ConvolutionKernel,
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
    polynomial_law,
)

PI_SQ_HALF = math.pi ** 2 / 2.0  # 4.934802200544679


def _kernel_with_multiplier(values_of_k):
    n, dx = 128, 0.25
    k = 2 * math.pi * np.fft.fftfreq(n, d=dx)
    samples = np.real(np.fft.ifft(values_of_k(k))) / dx
    return ConvolutionKernel(samples, dx)


def test_factory_builds_each_kind():
    assert isinstance(Symbol.build({"kind": "power2m", "m": 2}), PowerWavenumber)
    assert isinstance(Symbol.build({"kind": "swift_hohenberg_1d"}), SwiftHohenberg1D)
    assert isinstance(Symbol.build({"kind": "swift_hohenberg_2d"}), SwiftHohenberg2D)
    ker = Symbol.build({"kind": "convolution", "samples": np.full(8, -1.0), "spacing": 0.5})
    assert isinstance(ker, ConvolutionKernel)
    with pytest.raises(ValueError):
        Symbol.build({"kind": "tool"})


def test_query_validation():
    g = IndicatorBox(-1.0, 1.0)
    with pytest.raises(ValueError):
        VarianceQuery(PowerWavenumber(1), g, 0.0, 1.0)
    with pytest.raises(TypeError, match="frequency"):
        variance_spectral(VarianceQuery(ToolAlpha(2.0), g, -1.0, 1.0))
    with pytest.raises(ValueError):
        VarianceQuery(SwiftHohenberg2D(), g, -1.0, 1.0)  # needs a disc window
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            VarianceQuery(SwiftHohenberg2D(), Disc(2.0), -1.0, bad)


def test_zero_set_coverage_rules():
    # a window that covers the zero set gives the kind's law, one that misses it a bounded law
    half, bounded = ScalingLaw(-0.5, 0), ScalingLaw.bounded()
    assert predicted_law(PowerWavenumber(1), IndicatorBox(-1.0, 1.0)) == half
    assert predicted_law(PowerWavenumber(1), IndicatorBox(0.5, 1.0)) == bounded
    assert predicted_law(SwiftHohenberg1D(), IndicatorBox(-2.0, 2.0)) == half
    assert predicted_law(SwiftHohenberg1D(), IndicatorBox(-0.5, 0.5)) == bounded
    assert predicted_law(SwiftHohenberg2D(), Disc(1.5)) == half
    assert predicted_law(SwiftHohenberg2D(), Disc(0.5)) == bounded
    crossing = _kernel_with_multiplier(lambda k: -(k ** 2 - 1.0))
    with pytest.raises(LawUnavailableError, match="^sampled kernels have no expansion"):
        predicted_law(crossing, IndicatorBox(-3.0, 3.0))
    assert predicted_law(crossing, IndicatorBox(2.0, 3.0)) == bounded
    assert predicted_law(ToolAlpha(1.0), PowerIndicator(0.25, 1.0)) == half
    assert predicted_law(ToolAlpha(1.0, root=-0.5), PowerIndicator(0.25, 1.0)) == bounded
    assert predicted_law(SwiftHohenberg2D(), QuarterDisc(2.0)) == half
    assert predicted_law(SwiftHohenberg2D(), QuarterDisc(0.5)) == bounded
    # a zero on the window's edge is reached
    assert predicted_law(SwiftHohenberg2D(), Disc(1.0)) == half
    assert predicted_law(SwiftHohenberg1D(), IndicatorBox(1.0, 2.0)) == half


def test_power_multiplier_variance_brute_force():
    for m in (1, 2):
        q = 1e-5
        got = variance_spectral(
            VarianceQuery(PowerWavenumber(m), IndicatorBox(-1.0, 1.0), -q, 1.0))
        want = 0.5 * integrate.quad(
            lambda k: 1.0 / (k ** (2 * m) + q), -1.0, 1.0,
            points=[0.0], epsabs=1e-13, epsrel=1e-11,
        )[0]
        assert math.isclose(got, want, rel_tol=1e-8)


def test_sh1d_variance_brute_force():
    q = 1e-4
    got = variance_spectral(
        VarianceQuery(SwiftHohenberg1D(), IndicatorBox(-2.0, 2.0), -q, 1.0))
    want = 0.5 * integrate.quad(
        lambda k: 1.0 / ((1.0 - k ** 2) ** 2 + q), -2.0, 2.0,
        points=[-1.0, 1.0], epsabs=1e-13, epsrel=1e-11, limit=300,
    )[0]
    assert math.isclose(got, want, rel_tol=1e-7)


def test_sh2d_closed_form_value():
    # at p=-1 with sigma=sqrt(2) and radius sqrt(2) the polar reduction
    # collapses to pi * integral of 1/(u^2+1) over [-1, 1] = pi^2 / 2
    got = variance_spectral(
        VarianceQuery(SwiftHohenberg2D(), Disc(math.sqrt(2.0)), -1.0,
                      math.sqrt(2.0)))
    assert math.isclose(got, PI_SQ_HALF, rel_tol=1e-12)


def test_sh2d_variance_polar_brute_force():
    q = 1e-3
    got = variance_spectral(
        VarianceQuery(SwiftHohenberg2D(), Disc(1.5), -q, 1.0))
    want = 0.5 * 2.0 * math.pi * integrate.quad(
        lambda r: r / ((1.0 - r ** 2) ** 2 + q), 0.0, 1.5,
        points=[1.0], epsabs=1e-13, epsrel=1e-11, limit=300,
    )[0]
    assert math.isclose(got, want, rel_tol=1e-8)


def test_kernel_variance_flat_multiplier():
    ker = _kernel_with_multiplier(lambda k: np.full(k.shape, -1.0))
    got = variance_spectral(VarianceQuery(ker, IndicatorBox(-1.0, 1.0), -0.5, 1.0))
    assert math.isclose(got, 0.5 * 2.0 / 1.5, rel_tol=1e-12)


def test_kernel_variance_interpolated_oracle():
    ker = _kernel_with_multiplier(lambda k: -(k ** 2 - 1.0) ** 2)
    q = 1e-2
    got = variance_spectral(VarianceQuery(ker, IndicatorBox(-3.0, 3.0), -q, 1.0))
    grid, mult = ker.freq_grid, ker.multiplier
    kinks = [k for k in grid if -3.0 < k < 3.0]
    want = 0.5 * integrate.quad(
        lambda k: 1.0 / (q - np.interp(k, grid, mult)), -3.0, 3.0,
        points=kinks, epsabs=1e-13, epsrel=1e-10, limit=400,
    )[0]
    assert math.isclose(got, want, rel_tol=1e-8)


def test_kernel_variance_rejects_unstable_multiplier():
    ker = _kernel_with_multiplier(lambda k: -(k ** 2 - 1.0))
    with pytest.raises(ValueError):
        variance_spectral(VarianceQuery(ker, IndicatorBox(-3.0, 3.0), -0.01, 1.0))


def test_predicted_laws():
    g = IndicatorBox(-1.0, 1.0)
    assert predicted_spectral_law(PowerWavenumber(1), g) == ScalingLaw(-0.5, 0, False)
    assert predicted_spectral_law(PowerWavenumber(2), g) == ScalingLaw(-0.75, 0, False)
    assert predicted_spectral_law(SwiftHohenberg1D(),
                                  IndicatorBox(-2.0, 2.0)) == ScalingLaw(-0.5, 0, False)
    assert predicted_spectral_law(SwiftHohenberg2D(), Disc(2.0)) == ScalingLaw(-0.5, 0, False)


def test_predicted_law_away_from_zero_set_is_bounded():
    assert predicted_spectral_law(PowerWavenumber(1),
                                  IndicatorBox(0.5, 1.0)) == ScalingLaw.bounded()
    assert predicted_spectral_law(SwiftHohenberg2D(), Disc(0.5)) == ScalingLaw.bounded()


def test_predicted_law_is_window_aware():
    assert predicted_law(ToolAlpha(1.0), PowerIndicator(0.25, 1.0)) == ScalingLaw(-0.5, 0)
    assert predicted_law(ToolAlpha(2.0), IndicatorBox(-0.5, 0.5)) == ScalingLaw(-0.5, 0)
    # the window is smooth at a root inside it: the plain tool-1 logarithm
    assert predicted_law(ToolAlpha(1.0, root=0.5), PowerIndicator(0.25, 1.0)) == ScalingLaw(0.0, 1)
    assert predicted_law(ToolAlpha(2.0), IndicatorBox(0.5, 1.0)) == ScalingLaw.bounded()
    assert predicted_law(PowerWavenumber(1), IndicatorBox(0.5, 1.0)) == ScalingLaw.bounded()
    line = Polynomial({(1,): 1.0, (3,): 2.0})
    assert predicted_law(line, PowerIndicator(0.25, 1.0)) == ScalingLaw(-0.5, 0)
    assert predicted_law(line, IndicatorBox(0.5, 1.0)) == ScalingLaw.bounded()
    plane = Polynomial({(2, 0): 1.0, (0, 4): 1.0})
    assert predicted_law(plane, IndicatorBox((0.0, 0.0), (1.0, 1.0))) == polynomial_law(plane.coeffs)
    for symbol in (Radial2D(2.0), Piecewise(ToolAlpha(1.0), ToolAlpha(2.0))):
        with pytest.raises(LawUnavailableError):
            predicted_law(symbol)
    # the one kind check of the frequency entry points, with its one message
    with pytest.raises(TypeError, match="^symbol must be one of the frequency multiplier kinds$"):
        predicted_spectral_law(ToolAlpha(2.0))


@pytest.mark.parametrize("symbol, window, integrand, lo, hi", [
    (PowerWavenumber(1), IndicatorBox(0.5, 1.0), lambda k, q: 1.0 / (k ** 2 + q), 0.5, 1.0),
    # polar form of the disc integral
    (SwiftHohenberg2D(), Disc(0.5),
     lambda r, q: 2.0 * math.pi * r / ((1.0 - r ** 2) ** 2 + q), 0.0, 0.5),
    (SwiftHohenberg2D(), QuarterDisc(0.5),
     lambda r, q: 0.5 * math.pi * r / ((1.0 - r ** 2) ** 2 + q), 0.0, 0.5),
])
def test_window_off_the_zero_set_matches_brute_force(symbol, window, integrand, lo, hi):
    for q in (1e-5, 1e-8, 1e-10, 1e-16):
        got = variance_spectral(VarianceQuery(symbol, window, -q))
        want = 0.5 * integrate.quad(integrand, lo, hi, args=(q,), epsabs=0.0, epsrel=1e-13)[0]
        assert math.isclose(got, want, rel_tol=1e-10), q


def test_kernel_law_is_declared_unavailable():
    crossing = _kernel_with_multiplier(lambda k: -(k ** 2 - 1.0))
    with pytest.raises(LawUnavailableError):
        predicted_spectral_law(crossing, IndicatorBox(-3.0, 3.0))
    flat = _kernel_with_multiplier(lambda k: np.full(k.shape, -1.0))
    assert predicted_spectral_law(flat, IndicatorBox(-1.0, 1.0)) == ScalingLaw.bounded()


def test_sh1d_sweep_shows_square_root_rate():
    ps = log_spaced_p(-8, -4, 20)
    sweep = spectral_sweep(SwiftHohenberg1D(), IndicatorBox(-2.0, 2.0), ps)
    assert sweep.source == "spectral"
    fit = fit_loglog(sweep)
    assert abs(fit.s + 0.5) < 0.01
