"""Variance laws for drifts given as Fourier multipliers.

When the drift is a Fourier multiplier m(k) (a constant-coefficient
operator, or convolution with a kernel), the stationary variance of a
frequency-window observable is the same resolvent integral as in
physical space, taken over wavenumbers:

    (sigma**2 / 2) * integral ghat(k)**2 / (-m(k) - p) dk.

The divergence as p -> 0- is controlled by the zero set of m, which
for the pattern-forming families sits on |k| = 1 rather than at the
origin, and only enters when the window covers it.  The integral goes
through :func:`variance_quadrature` like any other; this module holds
the frequency entry points and the law of a symbol seen through a
window.
"""

from __future__ import annotations

import numpy as np

from .quadrature import (
    Disc,
    IndicatorBox,
    PowerIndicator,
    QuarterDisc,
    TestFunction,
    VarianceQuery,
    variance_quadrature,
)
from .scaling import ScalingLaw, SweepResult, law_1d, law_analytic_1d, polynomial_law
from .symbols import (
    ConvolutionKernel,
    Polynomial,
    PowerWavenumber,
    SwiftHohenberg1D,
    SwiftHohenberg2D,
    Symbol,
    ToolAlpha,
)

REL_TOL_SPECTRAL = 1e-8

FREQUENCY_KINDS = (PowerWavenumber, SwiftHohenberg1D, SwiftHohenberg2D, ConvolutionKernel)


class LawUnavailableError(RuntimeError):
    """No closed-form law for this symbol; fit a sweep instead."""


def covers_zero_set(symbol: Symbol, ghat: TestFunction) -> bool:
    """Whether the window touches the symbol's zero set.

    If it does not, the resolvent integrand stays bounded as p -> 0-
    and the variance converges regardless of the divergence law the
    family would otherwise follow.  One-dimensional symbols take box or
    power windows and report their zeros in the window's interval; the
    planar pattern multiplier takes a disc or a quarter disc, which meets
    |k| = 1 once its radius reaches 1.
    """
    if symbol.dim == 1 and isinstance(ghat, (IndicatorBox, PowerIndicator)):
        lo, hi = (0.0, ghat.eps) if isinstance(ghat, PowerIndicator) else (ghat.lo[0], ghat.hi[0])
        return len(symbol.zeros_in(float(lo), float(hi))) > 0
    if isinstance(symbol, SwiftHohenberg2D) and isinstance(ghat, (Disc, QuarterDisc)):
        return ghat.radius >= 1.0
    raise ValueError(f"no zero-set rule for a {symbol.kind} symbol with a {ghat.kind} window")


def variance_spectral(query: VarianceQuery, rel_tol: float | None = None) -> float:
    """Stationary variance of a frequency-window observable.

    The multiplier is the same resolvent integral as a physical-space
    drift, so this is :func:`variance_quadrature` at the spectral
    default tolerance.  The query's symbol must be a frequency kind.
    """
    if not isinstance(query.symbol, FREQUENCY_KINDS):
        raise TypeError("symbol must be one of the frequency multiplier kinds")
    return variance_quadrature(query, rel_tol=rel_tol if rel_tol is not None else REL_TOL_SPECTRAL)


def predicted_law(symbol: Symbol, g: TestFunction | None = None) -> ScalingLaw:
    """Catalog law for a symbol seen through a window.

    Polynomials in several variables take the corner law of their
    coefficient map.  In one dimension a window that misses the zero
    set keeps the variance bounded; otherwise the tool family, the
    power multiplier -k**(2m) (alpha = 2m) and polynomials (alpha = the
    least order) follow the one-dimensional law, with the exponent
    gamma of a power window whose singular end x = 0 is the root.  The
    planar ring multiplier is bounded on a disc of radius below 1.
    Both pattern-forming multipliers vanish quadratically across their
    zero set, and integrating across it (after the radial reduction in
    the plane) gives the square-root divergence.  Sampled kernels carry
    no expansion around their zeros and the remaining kinds no catalog
    row, so no law is offered; fit a sweep instead.
    """
    if isinstance(symbol, Polynomial) and symbol.dim > 1:
        return polynomial_law(symbol.coeffs)
    if not isinstance(symbol, (ToolAlpha, Polynomial) + FREQUENCY_KINDS):
        raise LawUnavailableError(f"no catalog law for {symbol.kind} symbols")
    if g is not None and not covers_zero_set(symbol, g):
        return ScalingLaw.bounded()
    # x**(-gamma) shifts the law only where its singular end meets the root
    gamma = g.gamma if isinstance(g, PowerIndicator) and symbol.root[0] == 0.0 else 0.0
    if isinstance(symbol, Polynomial):
        return law_analytic_1d(symbol.coeffs, gamma)
    if isinstance(symbol, ToolAlpha):
        return law_1d(symbol.alpha, gamma)
    if isinstance(symbol, ConvolutionKernel):
        raise LawUnavailableError(
            "sampled kernels have no expansion around their zero set; "
            "run a sweep and use fit_loglog"
        )
    return ScalingLaw(-0.5, 0)


def predicted_spectral_law(symbol: Symbol, ghat: TestFunction | None = None) -> ScalingLaw:
    """:func:`predicted_law` for the frequency families only."""
    if not isinstance(symbol, FREQUENCY_KINDS):
        raise TypeError("not a frequency symbol")
    return predicted_law(symbol, ghat)


def spectral_sweep(
    symbol: Symbol,
    ghat: TestFunction,
    ps,
    sigma: float = 1.0,
    rel_tol: float | None = None,
) -> SweepResult:
    """Evaluate the spectral variance on a grid of p values."""
    ps = np.asarray(ps, dtype=float)
    values = [
        variance_spectral(VarianceQuery(symbol, ghat, p, sigma), rel_tol=rel_tol) for p in ps
    ]
    return SweepResult(ps, values, source="spectral")
