"""Divergence-rate catalog, sweeps and log-log fitting.

As p approaches 0 from below, the stationary variance either stays
bounded or diverges like (-p)**s * (-log(-p))**k.  This module holds
the catalog of predicted pairs (s, k) for the structured drift
families, generates variance sweeps over p grids, fits the two-slope
log-log model to sweep data and snaps fitted exponents back onto the
catalog.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .quadrature import TestFunction, VarianceQuery, variance_quadrature, dimension_reduce
from .symbols import MultiIndex, Symbol, as_multi_index, minimal_support, predicts_convergence


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

    def describe(self) -> str:
        if self.convergent:
            return "bounded as p -> 0-"
        pieces = []
        if self.s != 0.0:
            pieces.append(f"(-p)**({self.s:g})")
        if self.k:
            pieces.append(f"(-log(-p))**{self.k}")
        return " * ".join(pieces)


def law_1d(alpha: float, gamma: float = 0.0) -> ScalingLaw:
    """Catalog law for f = -|x|**alpha observed through x**(-gamma) on [0, eps].

    The balance parameter is 2*gamma + alpha: below 1 the variance
    stays bounded, at 1 it diverges logarithmically, above 1 it runs
    like a power with exponent -1 + (1 - 2*gamma)/alpha.
    """
    alpha = float(alpha)
    gamma = float(gamma)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0.0 <= gamma < 0.5:
        raise ValueError("gamma must lie in [0, 1/2)")
    balance = 2.0 * gamma + alpha
    if balance < 1.0:
        return ScalingLaw.bounded()
    if balance == 1.0:
        return ScalingLaw(0.0, 1)
    return ScalingLaw(-1.0 + (1.0 - 2.0 * gamma) / alpha, 0)


def law_1d_case(alpha: float, gamma: float = 0.0) -> str:
    """Catalog row identifier matching :func:`law_1d`."""
    balance = 2.0 * gamma + alpha
    family = "one-dim power window" if gamma > 0 else "one-dim tool family"
    if balance < 1.0:
        return f"{family}, 2*gamma+alpha < 1 (bounded)"
    if balance == 1.0:
        return f"{family}, 2*gamma+alpha = 1 (log divergence)"
    return f"{family}, 2*gamma+alpha > 1 (power divergence)"


def law_analytic_1d(coeffs: Mapping) -> ScalingLaw:
    """Law for an analytic one-dimensional drift -sum a_m x**m.

    Only the least order m with a nonzero coefficient matters: near the
    root the drift behaves like -a_m x**m, so the rate is the tool-law
    with alpha = m.
    """
    orders = {}
    for key, a in coeffs.items():
        idx = as_multi_index(key)
        if len(idx) != 1:
            raise ValueError("the analytic law applies to one-dimensional coefficient maps")
        if idx[0] == 0 and float(a) != 0.0:
            raise ValueError("constant terms are not allowed, f must vanish at the root")
        orders[idx[0]] = float(a)
    nonzero = [m for m, a in orders.items() if a != 0.0]
    if not nonzero:
        raise ValueError("coefficient map has no nonzero entries")
    return law_1d(float(min(nonzero)))


def law_upper_bound(j) -> ScalingLaw:
    """Corner upper bound for the monomial drift -x**j on [0, eps]**N.

    Sorting the components ascending, the dominant exponent is the
    largest one: the bound is (-p)**(-1 + 1/i_max) with one logarithm
    per additional repeat of i_max.  The all-ones index degenerates to
    a pure logarithmic power N.
    """
    idx = as_multi_index(j)
    if any(c == 0 for c in idx):
        idx, _ = dimension_reduce(idx)
    comps = sorted(idx)
    n = len(comps)
    i_max = comps[-1]
    if i_max == 1:
        return ScalingLaw(0.0, n)
    repeats = comps.count(i_max)
    return ScalingLaw(-1.0 + 1.0 / i_max, repeats - 1)


def law_upper_bound_case(j) -> str:
    idx = as_multi_index(j)
    comps = sorted(c for c in idx if c > 0)
    if not comps:
        return "no bifurcation (bounded)"
    i_max = comps[-1]
    if i_max == 1:
        return f"corner bound, all indices 1 (log power {len(comps)})"
    repeats = comps.count(i_max)
    if repeats == 1:
        return f"corner bound, distinct top index {i_max}"
    return f"corner bound, top index {i_max} repeated {repeats} times"


def _law_sort_key(law: ScalingLaw):
    # tightest bound first: largest s, then fewest logarithms
    return (law.s, -law.k)


def best_upper_bound(cplus: Iterable, eps: float = 1.0) -> ScalingLaw:
    """Tightest corner bound over a minimal support set.

    Each minimal multi-index is dimension-reduced and bounded on its
    own; the slowest-growing bound wins because every member of the
    minimal support provides a valid upper bound.  Indices that reduce
    to nothing contribute a bounded law.
    """
    laws = []
    for j in cplus:
        idx = as_multi_index(j)
        try:
            reduced, _ = dimension_reduce(idx, eps)
        except ValueError:
            laws.append(ScalingLaw.bounded())
            continue
        if len(reduced) == 1:
            laws.append(law_1d(float(reduced[0])))
        else:
            laws.append(law_upper_bound(reduced))
    if not laws:
        raise ValueError("empty minimal support")
    return max(laws, key=_law_sort_key)


def polynomial_law(coeffs: Mapping, eps: float = 1.0) -> ScalingLaw:
    """Predicted law for a polynomial drift from its coefficient map.

    One-dimensional maps use the analytic least-order law.  In several
    dimensions, two positive linear directions force boundedness and
    override the corner bounds; otherwise the tightest corner bound
    over the minimal support is returned (an upper bound, not always
    attained).
    """
    keys = [as_multi_index(k) for k in coeffs]
    if not keys:
        raise ValueError("coefficient map is empty")
    dim = len(keys[0])
    if dim == 1:
        return law_analytic_1d(coeffs)
    if predicts_convergence(coeffs):
        return ScalingLaw.bounded()
    return best_upper_bound(minimal_support(coeffs), eps)


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

    def to_csv(self, path=None) -> str:
        """Serialize as ``p,value,stderr,source`` rows; optionally write a file."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["p", "value", "stderr", "source"])
        for p, v, e in zip(self.ps, self.values, self.stderrs):
            writer.writerow([repr(float(p)), repr(float(v)), repr(float(e)), self.source])
        text = buf.getvalue()
        if path is not None:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_csv(cls, path_or_text) -> "SweepResult":
        if "\n" in str(path_or_text) or "," in str(path_or_text):
            text = str(path_or_text)
        else:
            with open(path_or_text) as fh:
                text = fh.read()
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
    """Evaluate the variance quadrature on a grid of p values."""
    ps = np.asarray(ps, dtype=float)

    def one(p):
        return variance_quadrature(VarianceQuery(symbol, g, p, sigma), rel_tol=rel_tol, dt=dt)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            values = list(pool.map(one, ps))
    else:
        values = [one(p) for p in ps]
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
