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
    MultiIndex,
    Piecewise,
    Polynomial,
    PowerWavenumber,
    Radial2D,
    SwiftHohenberg1D,
    SwiftHohenberg2D,
    Symbol,
    ToolAlpha,
    Zero,
    as_multi_index,
    minimal_support,
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
    LawUnavailableError,
    ScalingLaw,
    SweepResult,
    best_upper_bound,
    classify,
    covers_zero_set,
    default_exponent_candidates,
    fit_loglog,
    law_1d,
    law_analytic_1d,
    law_upper_bound,
    log_spaced_p,
    polynomial_law,
    predicted_law,
    predicts_convergence,
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
    step,
)
from .spectral import predicted_spectral_law, spectral_sweep, variance_spectral

__version__ = "0.1.0"
