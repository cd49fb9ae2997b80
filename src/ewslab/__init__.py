"""Numerical laboratory for early-warning-sign scaling laws.

For the stable linear equation du = (f(x) + p) u dt + sigma dW with a
multiplication-operator drift, the stationary variance of a window
observable diverges at a family-specific rate as p approaches 0 from
below.  The package evaluates that variance three independent ways
(closed-form quadrature, catalog laws, lattice simulation) so the
predicted rates can be cross-checked against each other.
"""

from .symbols import (
    ConvolutionKernel,
    CustomSymbol,
    LawUnavailableError,
    MultiIndex,
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
    as_multi_index,
    best_upper_bound,
    law_1d,
    law_analytic_1d,
    law_upper_bound,
    minimal_support,
    polynomial_law,
    predicts_convergence,
    real_part_symbol,
)
from .quadrature import (
    Disc,
    IndicatorBox,
    PowerIndicator,
    QuadratureError,
    QuarterDisc,
    TestFunction,
    VarianceQuery,
    appendix_c_integral,
    monomial_integral,
    variance_quadrature,
)
from .scaling import (
    FitResult,
    SweepResult,
    classify,
    default_exponent_candidates,
    fit_loglog,
    log_spaced_p,
    predicted_law,
    quadrature_sweep,
)
from .noise import (
    NoiseModel,
    build_noise_model,
    noise_increment,
    sample_eigenvalues,
    sample_haar_basis,
)
from .simulate import (
    Mesh,
    SimConfig,
    VarianceEstimate,
    predict_discrete_variance,
    projection_weights,
    run,
    run_sweep,
)
from .spectral import predicted_spectral_law, spectral_sweep, variance_spectral

__version__ = "0.1.0"
