"""Frequency entry points for drifts given as Fourier multipliers.

When the drift is a Fourier multiplier m(k) (a constant-coefficient
operator, or convolution with a kernel), the stationary variance of a
frequency-window observable is the same resolvent integral as in
physical space, taken over wavenumbers:

    (sigma**2 / 2) * integral ghat(k)**2 / (-m(k) - p) dk.

The divergence as p -> 0- is controlled by the zero set of m, which
for the pattern-forming families sits on |k| = 1 rather than at the
origin, and only enters when the window covers it.  The integral goes
through :func:`variance_quadrature` like any other and the law through
:func:`ewslab.scaling.predicted_law`; this module holds the entry points
restricted to the frequency kinds.
"""

from __future__ import annotations

import numpy as np

from .quadrature import TestFunction, VarianceQuery, variance_quadrature, variance_values
from .scaling import SweepResult, predicted_law
from .symbols import FREQUENCY_KINDS, ScalingLaw, Symbol

REL_TOL_SPECTRAL = 1e-8


def variance_spectral(query: VarianceQuery, rel_tol: float | None = None) -> float:
    """Stationary variance of a frequency-window observable.

    The multiplier is the same resolvent integral as a physical-space
    drift, so this is :func:`variance_quadrature` at the spectral
    default tolerance.  The query's symbol must be a frequency kind.
    """
    _check_frequency_kind(query.symbol)
    return variance_quadrature(query, rel_tol=rel_tol if rel_tol is not None else REL_TOL_SPECTRAL)


def _check_frequency_kind(symbol):
    if not isinstance(symbol, FREQUENCY_KINDS):
        raise TypeError("symbol must be one of the frequency multiplier kinds")


def predicted_spectral_law(symbol: Symbol, ghat: TestFunction | None = None) -> ScalingLaw:
    """:func:`predicted_law` for the frequency families only."""
    _check_frequency_kind(symbol)
    return predicted_law(symbol, ghat)


def spectral_sweep(
    symbol: Symbol,
    ghat: TestFunction,
    ps,
    sigma: float = 1.0,
    rel_tol: float | None = None,
) -> SweepResult:
    """Evaluate the spectral variance on a grid of p values, all p at once
    (``variance_values``); each value is ``variance_spectral`` at its p."""
    ps = np.asarray(ps, dtype=float)
    if len(ps):
        # the first p's own error comes before the kind's, as in variance_spectral
        _check_frequency_kind(VarianceQuery(symbol, ghat, ps[0], sigma).symbol)
    values = variance_values(symbol, ghat, ps, sigma,
                             rel_tol if rel_tol is not None else REL_TOL_SPECTRAL)
    return SweepResult(ps, values, source="spectral")
