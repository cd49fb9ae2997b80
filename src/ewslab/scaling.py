"""Predicted laws, sweeps and log-log fitting.

As p approaches 0 from below, the stationary variance either stays
bounded or diverges like (-p)**s * (-log(-p))**k.  The catalog of
pairs (s, k) lives with the symbols (``Symbol.law``); this module gives
the law of a symbol seen through a window, generates variance sweeps
over p grids, fits the two-slope log-log model to sweep data and snaps
fitted exponents back onto the catalog.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .quadrature import TestFunction, route_of, variance_values
from .symbols import ScalingLaw, Symbol


def predicted_law(symbol: Symbol, g: TestFunction | None = None) -> ScalingLaw:
    """Catalog law of a symbol seen through a window: ``route_of(symbol, g).law()``.

    Without a window it is ``symbol.law()``, the law of the symbol alone.
    The catalog is ``Symbol.law``, one method per kind, and ``route_of``
    says whether the window reaches the zero set.  A pair that
    ``route_of`` refuses raises its ValueError; a kind without a law
    raises LawUnavailableError.
    """
    return symbol.law() if g is None else route_of(symbol, g).law()


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


def quadrature_sweep(symbol: Symbol, g: TestFunction, ps, sigma: float = 1.0, threads: int = 1,
                     dt: float = 0.0) -> SweepResult:
    """Evaluate the variance quadrature on a grid of p values.

    All p go through their route at once (``variance_values``); with
    ``threads`` > 1 each thread takes one contiguous chunk of the grid.
    The values are those of ``variance_quadrature`` at each p alone, for
    any number of threads.
    """
    ps = np.asarray(ps, dtype=float)

    def chunk_values(chunk):
        return variance_values(symbol, g, chunk, sigma, dt)

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


_CLASSIFY_TOL = 0.05


def classify(s_hat: float, k_hat: float) -> ScalingLaw | None:
    """Snap fitted exponents onto the catalog; None when unclassified.

    ``k_hat`` is rounded to the nearest integer in [0, 3] and ``s_hat``
    to the nearest of ``default_exponent_candidates``; both must land
    within ``_CLASSIFY_TOL``.
    """
    k_snap = int(min(max(round(k_hat), 0), 3))
    if abs(k_hat - k_snap) > _CLASSIFY_TOL:
        return None
    s_snap = min(default_exponent_candidates(), key=lambda s: abs(s - s_hat))
    if abs(s_hat - s_snap) > _CLASSIFY_TOL:
        return None
    if s_snap == 0.0 and k_snap == 0:
        return ScalingLaw.bounded()
    return ScalingLaw(s_snap, k_snap)
