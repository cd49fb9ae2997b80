"""Divergence-rate catalog, sweeps and log-log fitting.

As p approaches 0 from below, the stationary variance either stays
bounded or diverges like (-p)**s * (-log(-p))**k.  This module is the
one place that decides a law: the catalog of predicted pairs (s, k) for
the structured drift families, the convergence and corner rules of
polynomial coefficient maps, and the law of a symbol seen through a
window.  It also generates variance sweeps over p grids, fits the
two-slope log-log model to sweep data and snaps fitted exponents back
onto the catalog.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .quadrature import (
    Disc,
    IndicatorBox,
    PowerIndicator,
    TestFunction,
    variance_values,
)
from .symbols import (
    FREQUENCY_KINDS,
    ConvolutionKernel,
    Polynomial,
    SwiftHohenberg2D,
    Symbol,
    ToolAlpha,
    as_coefficient_map,
    as_finite,
    as_multi_index,
    as_positive,
    minimal_support,
)


@dataclass(frozen=True)
class ScalingLaw:
    """Asymptotic rate V(p) ~ (-p)**s * (-log(-p))**k, or boundedness.

    ``s`` lies in [-1, 0] and ``k`` is a nonnegative integer.  A
    convergent law has s = k = 0 and means the variance stays bounded;
    the divergent pair (0, 0) does not occur, logarithms are the
    slowest divergence in the catalog.
    """

    s: float
    k: int
    convergent: bool = False

    def __post_init__(self):
        if self.convergent:
            if self.s != 0.0 or self.k != 0:
                raise ValueError("a convergent law must have s = 0 and k = 0")
            return
        if not -1.0 <= self.s <= 0.0:
            raise ValueError("the divergence exponent s must lie in [-1, 0]")
        if self.k < 0 or self.k != int(self.k):
            raise ValueError("the log power k must be a nonnegative integer")
        if self.s == 0.0 and self.k == 0:
            raise ValueError("the pair (0, 0) is reserved for convergent laws")

    @classmethod
    def bounded(cls) -> "ScalingLaw":
        return cls(0.0, 0, convergent=True)


def law_1d(alpha: float, gamma: float = 0.0) -> ScalingLaw:
    """Catalog law for f = -|x|**alpha observed through x**(-gamma) on [0, eps].

    The balance parameter is 2*gamma + alpha: below 1 the variance
    stays bounded, at 1 it diverges logarithmically, above 1 it runs
    like a power with exponent -1 + (1 - 2*gamma)/alpha.
    """
    alpha = as_positive(alpha, "alpha")
    gamma = as_finite(gamma, "gamma")
    if not 0.0 <= gamma < 0.5:
        raise ValueError("gamma must lie in [0, 1/2)")
    balance = 2.0 * gamma + alpha
    if balance < 1.0:
        return ScalingLaw.bounded()
    if balance == 1.0:
        return ScalingLaw(0.0, 1)
    return ScalingLaw(-1.0 + (1.0 - 2.0 * gamma) / alpha, 0)


def law_analytic_1d(coeffs: Mapping, gamma: float = 0.0) -> ScalingLaw:
    """Law for an analytic one-dimensional drift -sum a_m x**m.

    Only the least order m with a nonzero coefficient matters: near the
    root the drift behaves like -a_m x**m, so the rate is the tool-law
    with alpha = m (and the window exponent ``gamma``).
    """
    terms = as_coefficient_map(coeffs)
    if len(next(iter(terms))) != 1:
        raise ValueError("the analytic law applies to one-dimensional coefficient maps")
    if terms.get((0,), 0.0) != 0.0:
        raise ValueError("constant terms are not allowed, f must vanish at the root")
    nonzero = [j[0] for j, a in terms.items() if a != 0.0]
    if not nonzero:
        raise ValueError("coefficient map has no nonzero entries")
    return law_1d(float(min(nonzero)), gamma)


def law_upper_bound(j) -> ScalingLaw:
    """Corner upper bound for the monomial drift -x**j on [0, eps]**N.

    Zero components integrate out and are dropped; the all-zero index
    has no bifurcation and raises ValueError.  Sorting the remaining
    components ascending, the dominant exponent is the largest one: the
    bound is (-p)**(-1 + 1/i_max) with one logarithm per additional
    repeat of i_max.  The all-ones index degenerates to a pure
    logarithmic power N, and a single component gives the
    one-dimensional law of :func:`law_1d`.
    """
    comps = sorted(c for c in as_multi_index(j) if c > 0)
    if not comps:
        raise ValueError(
            "no bifurcation: the zero multi-index keeps the variance bounded, "
            "report a convergent law"
        )
    i_max = comps[-1]
    if i_max == 1:
        return ScalingLaw(0.0, len(comps))
    repeats = comps.count(i_max)
    return ScalingLaw(-1.0 + 1.0 / i_max, repeats - 1)


def _law_sort_key(law: ScalingLaw):
    # tightest bound first: largest s, then fewest logarithms
    return (law.s, -law.k)


def best_upper_bound(cplus: Iterable) -> ScalingLaw:
    """Tightest corner bound over a minimal support set.

    Every member of the minimal support provides a valid upper bound,
    so the slowest-growing :func:`law_upper_bound` wins.  The all-zero
    index contributes a bounded law.
    """
    laws = [law_upper_bound(j) if any(as_multi_index(j)) else ScalingLaw.bounded()
            for j in cplus]
    if not laws:
        raise ValueError("empty minimal support")
    return max(laws, key=_law_sort_key)


def predicts_convergence(coeffs: Mapping) -> bool:
    """Convergence test for multi-variable polynomial drifts.

    Returns True when at least two distinct unit multi-indices (a single
    1, all other components 0) carry strictly positive coefficients.
    Two independent linear directions of contact are enough to keep the
    stationary variance bounded as p approaches 0 from below, whatever
    the remaining terms do.
    """
    terms = as_coefficient_map(coeffs)
    if len(next(iter(terms))) < 2:
        raise ValueError("the convergence test needs at least two variables")
    return sum(1 for j, a in terms.items() if sum(j) == 1 and a > 0.0) >= 2


def polynomial_law(coeffs: Mapping) -> ScalingLaw:
    """Predicted law for a polynomial drift from its coefficient map.

    One-dimensional maps use the analytic least-order law.  In several
    dimensions, two positive linear directions force boundedness and
    override the corner bounds; otherwise the tightest corner bound
    over the minimal support is returned (an upper bound, not always
    attained).
    """
    terms = as_coefficient_map(coeffs)
    if len(next(iter(terms))) == 1:
        return law_analytic_1d(terms)
    if predicts_convergence(terms):
        return ScalingLaw.bounded()
    return best_upper_bound(minimal_support(terms))


# ---------------------------------------------------------------------------
# the law of a symbol seen through a window


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
    if isinstance(symbol, SwiftHohenberg2D) and isinstance(ghat, Disc):
        return ghat.radius >= 1.0
    raise ValueError(f"no zero-set rule for a {symbol.kind} symbol with a {ghat.kind} window")


def predicted_law(symbol: Symbol, g: TestFunction | None = None) -> ScalingLaw:
    """Catalog law for a symbol seen through a window.

    Polynomials in several variables take the corner law of their
    coefficient map, which holds on a box whose closed extent holds the
    root; any other window has no catalog law.  In one dimension a
    window that misses the zero set keeps the variance bounded;
    otherwise the tool family, the power multiplier -k**(2m) (alpha =
    2m) and polynomials (alpha = the least order) follow the
    one-dimensional law, with the exponent gamma of a power window whose
    singular end x = 0 is the root.  The planar ring multiplier is
    bounded on a disc of radius below 1.  Both pattern-forming
    multipliers vanish quadratically across their zero set, and
    integrating across it (after the radial reduction in the plane)
    gives the square-root divergence.  Sampled kernels carry no
    expansion around their zeros and the remaining kinds no catalog
    row, so no law is offered; fit a sweep instead.
    """
    if isinstance(symbol, Polynomial) and symbol.dim > 1:
        if g is not None and not (isinstance(g, IndicatorBox) and g(symbol.root) > 0):
            raise LawUnavailableError(
                "the corner law of a polynomial needs a box window that holds its root; "
                "run a sweep and use fit_loglog"
            )
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


# ---------------------------------------------------------------------------
# sweeps


SOURCES = ("quadrature", "simulation", "spectral")


class SweepResult:
    """A variance curve sampled on a grid of negative p values."""

    def __init__(self, ps, values, stderrs=None, source: str = "quadrature"):
        ps = np.asarray(ps, dtype=float)
        values = np.asarray(values, dtype=float)
        if ps.ndim != 1 or ps.shape != values.shape:
            raise ValueError("ps and values must be equal-length vectors")
        if np.any(ps >= 0):
            raise ValueError("all p values must be negative")
        if np.any(np.diff(ps) <= 0):
            raise ValueError("p values must increase strictly toward 0")
        if stderrs is None:
            stderrs = np.zeros_like(values)
        else:
            stderrs = np.asarray(stderrs, dtype=float)
            if stderrs.shape != values.shape:
                raise ValueError("stderrs must match values")
        if source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}")
        self.ps = ps
        self.values = values
        self.stderrs = stderrs
        self.source = source

    def __len__(self):
        return len(self.ps)

    def to_csv(self) -> str:
        """Serialize as ``p,value,stderr,source`` rows."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["p", "value", "stderr", "source"])
        for p, v, e in zip(self.ps, self.values, self.stderrs):
            writer.writerow([repr(float(p)), repr(float(v)), repr(float(e)), self.source])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "SweepResult":
        """Parse the text that :meth:`to_csv` writes (not a path)."""
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0][:4] != ["p", "value", "stderr", "source"]:
            raise ValueError("expected a header row p,value,stderr,source")
        ps, values, stderrs, sources = [], [], [], set()
        for i, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            try:
                ps.append(float(row[0]))
                values.append(float(row[1]))
                stderrs.append(float(row[2]))
                sources.add(row[3])
            except (ValueError, IndexError) as exc:
                raise ValueError(f"malformed sweep row {i}: {row!r}") from exc
        if len(sources) > 1:
            raise ValueError("mixed sources in one sweep file")
        source = sources.pop() if sources else "quadrature"
        order = np.argsort(ps)
        ps = np.asarray(ps)[order]
        return cls(ps, np.asarray(values)[order], np.asarray(stderrs)[order], source)


def log_spaced_p(decade_lo: float, decade_hi: float, points: int) -> np.ndarray:
    """Negative p grid with -p log-spaced between 10**decade_lo and 10**decade_hi."""
    if points < 2:
        raise ValueError("need at least two grid points")
    if decade_lo >= decade_hi:
        raise ValueError("decade_lo must be below decade_hi")
    qs = np.logspace(decade_lo, decade_hi, points)
    return -qs[::-1]


def quadrature_sweep(
    symbol: Symbol,
    g: TestFunction,
    ps,
    sigma: float = 1.0,
    threads: int = 1,
    rel_tol: float | None = None,
    dt: float = 0.0,
) -> SweepResult:
    """Evaluate the variance quadrature on a grid of p values.

    All p go through their route at once (``variance_values``); with
    ``threads`` > 1 each thread takes one contiguous chunk of the grid.
    The values are those of ``variance_quadrature`` at each p alone, for
    any number of threads.
    """
    ps = np.asarray(ps, dtype=float)

    def chunk_values(chunk):
        return variance_values(symbol, g, chunk, sigma, rel_tol, dt)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            chunks = pool.map(chunk_values, np.array_split(ps, int(threads)))
            values = np.concatenate(list(chunks))
    else:
        values = chunk_values(ps)
    return SweepResult(ps, values, source="quadrature")


# ---------------------------------------------------------------------------
# fitting


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of log V = c + s log(-p) + k log(-log(-p))."""

    s: float
    k: float
    c: float
    residual: float
    s_err: float
    k_err: float

    def __str__(self):
        return (
            f"s={self.s:+.4f} (+-{self.s_err:.4f})  k={self.k:+.4f} (+-{self.k_err:.4f})  "
            f"c={self.c:+.4f}  residual={self.residual:.2e}"
        )


def fit_loglog(sweep: SweepResult, window: tuple[float, float] | None = None) -> FitResult:
    """Fit the two-exponent model to a sweep.

    ``window`` bounds -p inclusively; the default keeps the two
    smallest decades of -p present in the sweep.  At least 8 points
    must fall inside the window.  All points must satisfy -p < 1 so
    the iterated logarithm is defined.
    """
    qs = -sweep.ps
    if window is None:
        q_lo = float(np.min(qs))
        window = (q_lo, q_lo * 100.0)
    lo, hi = float(window[0]), float(window[1])
    sel = (qs >= lo * (1 - 1e-12)) & (qs <= hi * (1 + 1e-12))
    if int(np.sum(sel)) < 8:
        raise ValueError(f"fit window [{lo:g}, {hi:g}] holds {int(np.sum(sel))} points, need >= 8")
    q = qs[sel]
    v = sweep.values[sel]
    if np.any(q >= 1.0):
        raise ValueError("fit window must satisfy -p < 1 so log(-log(-p)) is defined")
    if np.any(v <= 0):
        raise ValueError("variance values must be positive to fit in log coordinates")
    design = np.column_stack([np.ones_like(q), np.log(q), np.log(-np.log(q))])
    target = np.log(v)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    dof = max(len(q) - 3, 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return FitResult(
        s=float(coef[1]),
        k=float(coef[2]),
        c=float(coef[0]),
        residual=math.sqrt(float(np.mean(resid**2))),
        s_err=math.sqrt(max(cov[1, 1], 0.0)),
        k_err=math.sqrt(max(cov[2, 2], 0.0)),
    )


def default_exponent_candidates() -> tuple[float, ...]:
    """Catalog exponents: 0, -1 and -1 + 1/n for n up to 12."""
    vals = {0.0, -1.0}
    vals.update(-1.0 + 1.0 / n for n in range(1, 13))
    return tuple(sorted(vals))


def classify(
    s_hat: float,
    k_hat: float,
    candidates: Sequence[float] | None = None,
    tol: float = 0.05,
) -> ScalingLaw | None:
    """Snap fitted exponents onto the catalog; None when unclassified.

    ``k_hat`` is rounded to the nearest integer in [0, 3] and ``s_hat``
    to the nearest candidate exponent; both must land within ``tol``.
    """
    cands = tuple(candidates) if candidates is not None else default_exponent_candidates()
    if not cands:
        raise ValueError("candidate exponent set is empty")
    k_snap = int(min(max(round(k_hat), 0), 3))
    if abs(k_hat - k_snap) > tol:
        return None
    s_snap = min(cands, key=lambda s: abs(s - s_hat))
    if abs(s_hat - s_snap) > tol:
        return None
    if s_snap == 0.0 and k_snap == 0:
        return ScalingLaw.bounded()
    return ScalingLaw(s_snap, k_snap)
