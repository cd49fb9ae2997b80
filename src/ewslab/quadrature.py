"""Closed-form variance evaluation by adaptive quadrature.

For the stable linear equation du = (f(x) + p) u dt + sigma dW with
p < 0, the stationary variance observed through a window g is

    (sigma**2 / 2) * integral g(x)**2 / (-f(x) - p) dx.

The integrand develops a boundary layer of width ``root_scale(-p)``
around the zero set of f as p approaches 0 from below, which is exactly
the regime of interest.  The integrators here resolve that layer by an
explicit change of variables for the power-law families (so the
transformed integrand is O(1) uniformly in p) and by geometrically
graded panels anchored at the zeros for everything else.  Tensorized
versions with per-axis grading handle boxes in two and three
dimensions.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special

from .symbols import (
    ConvolutionKernel,
    Piecewise,
    Polynomial,
    PowerWavenumber,
    Radial2D,
    Symbol,
    SwiftHohenberg1D,
    ToolAlpha,
    Zero,
    as_multi_index,
)

REL_TOL_1D = 1e-8
REL_TOL_ND = 1e-6
EVAL_CAP = 2**24


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be resolved to the requested tolerance."""


# ---------------------------------------------------------------------------
# test functions


class TestFunction:
    """Observation window g; subclasses define the support and the profile."""

    dim: int


class IndicatorBox(TestFunction):
    """g = 1 on the closed box [lo, hi], 0 outside."""

    kind = "box"

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box corners must be vectors of equal length")
        if np.any(hi <= lo):
            raise ValueError("box must have positive extent on every axis")
        self.lo = lo
        self.hi = hi
        self.dim = lo.size

    @classmethod
    def cube(cls, eps: float, dim: int = 1) -> "IndicatorBox":
        """The box [0, eps]**dim."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        return cls(np.zeros(dim), np.full(dim, float(eps)))

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        if self.dim == 1:
            return ((arr >= self.lo[0]) & (arr <= self.hi[0])).astype(float)
        inside = np.all((arr >= self.lo) & (arr <= self.hi), axis=-1)
        return inside.astype(float)

    def __repr__(self):
        return f"IndicatorBox(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


class PowerIndicator(TestFunction):
    """g(x) = x**(-gamma) on (0, eps], 0 elsewhere (one dimension).

    gamma must lie in [0, 1/2) so that g stays square integrable; at
    gamma >= 1/2 the variance integral is infinite for every p and the
    query is rejected outright.
    """

    kind = "power"

    def __init__(self, gamma: float, eps: float = 1.0):
        gamma = float(gamma)
        eps = float(eps)
        if not 0.0 <= gamma < 0.5:
            raise ValueError("gamma must lie in [0, 1/2) for a square-integrable window")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.gamma = gamma
        self.eps = eps
        self.dim = 1

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        inside = (arr > 0) & (arr <= self.eps)
        out[inside] = arr[inside] ** (-self.gamma)
        return out

    def __repr__(self):
        return f"PowerIndicator(gamma={self.gamma}, eps={self.eps})"


class QuarterDisc(TestFunction):
    """g = 1 on the quarter disc of given radius in the positive quadrant."""

    kind = "quarter_disc"

    def __init__(self, radius: float):
        radius = float(radius)
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = radius
        self.dim = 2

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        r2 = arr[..., 0] ** 2 + arr[..., 1] ** 2
        inside = (arr[..., 0] >= 0) & (arr[..., 1] >= 0) & (r2 <= self.radius**2)
        return inside.astype(float)

    def __repr__(self):
        return f"QuarterDisc(radius={self.radius})"


class Disc(TestFunction):
    """g = 1 on the full disc of given radius centered at the origin."""

    kind = "disc"

    def __init__(self, radius: float):
        radius = float(radius)
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = radius
        self.dim = 2

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        r2 = arr[..., 0] ** 2 + arr[..., 1] ** 2
        return (r2 <= self.radius**2).astype(float)

    def __repr__(self):
        return f"Disc(radius={self.radius})"


def test_function_to_dict(g: TestFunction) -> dict:
    if isinstance(g, IndicatorBox):
        return {"kind": "box", "lo": g.lo.tolist(), "hi": g.hi.tolist()}
    if isinstance(g, PowerIndicator):
        return {"kind": "power", "gamma": g.gamma, "eps": g.eps}
    if isinstance(g, QuarterDisc):
        return {"kind": "quarter_disc", "radius": g.radius}
    if isinstance(g, Disc):
        return {"kind": "disc", "radius": g.radius}
    raise TypeError(f"unknown test function {g!r}")


def test_function_from_dict(data) -> TestFunction:
    kind = data.get("kind")
    if kind == "box":
        return IndicatorBox(data["lo"], data["hi"])
    if kind == "power":
        return PowerIndicator(data["gamma"], data.get("eps", 1.0))
    if kind == "quarter_disc":
        return QuarterDisc(data["radius"])
    if kind == "disc":
        return Disc(data["radius"])
    raise ValueError(f"unknown test function kind: {kind!r}")


class VarianceQuery:
    """One stationary-variance evaluation: symbol, window, p < 0 and sigma."""

    def __init__(self, symbol: Symbol, test_function: TestFunction, p: float, sigma: float = 1.0):
        if not isinstance(symbol, Symbol):
            raise TypeError("symbol must be a Symbol instance")
        p = float(p)
        sigma = float(sigma)
        if not (math.isfinite(p) and math.isfinite(sigma)):
            raise ValueError("p and sigma must be finite")
        if p >= 0:
            raise ValueError("p must be negative, the equation is only stable for p < 0")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if symbol.dim != test_function.dim:
            raise ValueError(
                f"symbol dimension {symbol.dim} does not match window dimension {test_function.dim}"
            )
        self.symbol = symbol
        self.test_function = test_function
        self.p = p
        self.sigma = sigma

    def __repr__(self):
        return (
            f"VarianceQuery(symbol={self.symbol!r}, g={self.test_function!r}, "
            f"p={self.p}, sigma={self.sigma})"
        )


# ---------------------------------------------------------------------------
# scalar quadrature helpers


@lru_cache(maxsize=64)
def _gl_nodes(n: int):
    x, w = leggauss(n)
    return x, w


def _quad(fn, a, b, epsrel, points=None):
    """scipy.integrate.quad wrapper returning (value, abserr)."""
    out = integrate.quad(
        fn, a, b, epsabs=0.0, epsrel=max(epsrel, 1e-13), limit=300, points=points, full_output=1
    )
    value, abserr = out[0], out[1]
    return value, abserr


def _side_integral(alpha, length, q, phi, gamma, epsrel):
    """integral_0^length x**(-2 gamma) phi(q + x**alpha) dx.

    Uses y = x * q**(-1/alpha), under which the resolvent part becomes
    q * (1 + y**alpha) and loses its p dependence, so the accuracy is
    uniform down to arbitrarily small q.  The tail beyond y = 2 is
    integrated in log coordinates.
    """
    if length <= 0:
        return 0.0, 0.0
    y_max = length * q ** (-1.0 / alpha)
    scale = q ** ((1.0 - 2.0 * gamma) / alpha)

    def head(y):
        w = y ** (-2.0 * gamma) if gamma > 0 else 1.0
        return w * phi(q * (1.0 + y**alpha))

    y_split = min(y_max, 2.0)
    val, err = _quad(head, 0.0, y_split, epsrel)
    if y_max > y_split:
        def tail(u):
            try:
                grow = math.exp(alpha * u)
            except OverflowError:
                return 0.0
            t = q * (1.0 + grow)
            if not math.isfinite(t):
                return 0.0
            return math.exp((1.0 - 2.0 * gamma) * u) * phi(t)

        v2, e2 = _quad(tail, math.log(y_split), math.log(y_max), epsrel)
        val += v2
        err += e2
    return scale * val, scale * err


def _offset_integral(alpha, d1, d2, q, phi, epsrel):
    """integral over [d1, d2] of phi(q + x**alpha) dx for 0 <= d1 < d2."""
    if d2 - d1 < 0.1 * max(d1, q ** (1.0 / alpha)):
        # no boundary layer inside the interval, integrate directly
        return _quad(lambda x: phi(q + x**alpha), d1, d2, epsrel)
    v2, e2 = _side_integral(alpha, d2, q, phi, 0.0, epsrel)
    v1, e1 = _side_integral(alpha, d1, q, phi, 0.0, epsrel)
    return v2 - v1, e2 + e1


def _ladder_edges(a, b, anchors, floor, ratio=2.0):
    """Panel edges on [a, b], geometrically graded toward each anchor."""
    edges = {a, b}
    span = b - a
    floor = max(floor, span * 1e-15)
    for z in anchors:
        if a < z < b:
            edges.add(z)
        dmax = max(abs(b - z), abs(a - z))
        d = floor
        while d < dmax:
            for cand in (z - d, z + d):
                if a < cand < b:
                    edges.add(cand)
            d *= ratio
    return sorted(edges)


def _ladder_quad_1d(fn, a, b, anchors, floor, rel_tol, singular_points=()):
    """Adaptive panel quadrature of fn over [a, b] with graded panels."""
    edges = _ladder_edges(a, b, anchors, floor)
    for s in singular_points:
        if a < s < b and s not in edges:
            edges.append(s)
    edges = sorted(set(edges))
    total = 0.0
    err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _quad(fn, lo, hi, rel_tol * 0.01)
        total += v
        err += e
    if err > 10 * rel_tol * max(abs(total), 1e-300):
        raise QuadratureError(
            f"one-dimensional quadrature error estimate {err:.2e} exceeds tolerance "
            f"for value {total:.6e}"
        )
    return total


# ---------------------------------------------------------------------------
# vectorized resolvent profile (used by the nested monomial integrator)


def _profile(alpha: float, y):
    """J(y) = integral_0^y du / (1 + u**alpha), vectorized over y.

    Exact logarithm and arctangent forms cover alpha in {1, 2}; other
    exponents go through the Gauss hypergeometric function, with series
    and tail expansions guarding the extreme arguments.
    """
    y = np.asarray(y, dtype=float)
    if alpha == 1.0:
        return np.log1p(y)
    if alpha == 2.0:
        return np.arctan(y)
    out = np.empty_like(y)
    small = y < 1e-8
    # beyond this point y**alpha overflows or degrades hyp2f1
    big = (alpha * np.log10(np.maximum(y, 1e-300))) > 100.0
    mid = ~(small | big)
    out[small] = y[small]
    if np.any(mid):
        ym = y[mid]
        out[mid] = ym * special.hyp2f1(1.0, 1.0 / alpha, 1.0 + 1.0 / alpha, -(ym**alpha))
    if np.any(big):
        if alpha <= 1.0:
            raise QuadratureError("resolvent profile diverges too strongly to expand the tail")
        j_inf = math.pi / (alpha * math.sin(math.pi / alpha))
        yb = y[big]
        # next order of the tail integral, enough at y > 1e20
        out[big] = j_inf - yb ** (1.0 - alpha) / (alpha - 1.0)
    return out


def _box_resolvent(alpha: float, upper: float, q):
    """integral_0^upper dx / (x**alpha + q), vectorized over q."""
    q = np.asarray(q, dtype=float)
    if alpha == 1.0:
        return np.log1p(upper / q)
    if alpha == 2.0:
        rq = np.sqrt(q)
        return np.arctan(upper / rq) / rq
    y = upper * q ** (-1.0 / alpha)
    return q ** (1.0 / alpha - 1.0) * _profile(alpha, y)


# ---------------------------------------------------------------------------
# 1-D variance dispatch


def _phi_factory(dt: float) -> Callable:
    if not (math.isfinite(dt) and dt >= 0):
        raise ValueError("dt must be finite and nonnegative")
    if dt == 0.0:
        return lambda t: 1.0 / t
    half = 0.5 * dt
    return lambda t: 1.0 / (t + half * t * t)


def _variance_1d(symbol, g, q, rel_tol, phi):
    if isinstance(g, PowerIndicator):
        root = float(symbol.root[0])
        if isinstance(symbol, (ToolAlpha, PowerWavenumber)) and abs(root) < 1e-300:
            alpha = symbol.alpha
            val, err = _side_integral(alpha, g.eps, q, phi, g.gamma, rel_tol)
            if err > 10 * rel_tol * max(abs(val), 1e-300):
                raise QuadratureError("power-window quadrature did not reach tolerance")
            return val
        anchors = set(symbol.zeros_in(-g.eps, 2 * g.eps)) | {0.0}
        fn = lambda x: (x ** (-2.0 * g.gamma) if x > 0 else 0.0) * phi(q - float(symbol(x)))
        floor = symbol.root_scale(q) / 4.0
        return _ladder_quad_1d(fn, 0.0, g.eps, sorted(anchors), floor, rel_tol)

    if not isinstance(g, IndicatorBox):
        raise ValueError(f"unsupported window {g!r} for a one-dimensional symbol")
    a, b = float(g.lo[0]), float(g.hi[0])

    if isinstance(symbol, Piecewise):
        root = float(symbol.root[0])
        total = 0.0
        if a < root:
            left_box = IndicatorBox(a, min(b, root))
            total += _variance_1d(symbol.left, left_box, q, rel_tol, phi)
        if b > root:
            right_box = IndicatorBox(max(a, root), b)
            total += _variance_1d(symbol.right, right_box, q, rel_tol, phi)
        return total

    if isinstance(symbol, (ToolAlpha, PowerWavenumber)):
        alpha = symbol.alpha
        root = float(symbol.root[0])
        total = 0.0
        tol_err = 0.0
        # left and right pieces measured as distances from the root
        if a < root:
            d1, d2 = max(root - b, 0.0), root - a
            v, e = _offset_integral(alpha, d1, d2, q, phi, rel_tol)
            total += v
            tol_err += e
        if b > root:
            d1, d2 = max(a - root, 0.0), b - root
            v, e = _offset_integral(alpha, d1, d2, q, phi, rel_tol)
            total += v
            tol_err += e
        if tol_err > 10 * rel_tol * max(abs(total), 1e-300):
            raise QuadratureError("power-law quadrature did not reach tolerance")
        return total

    # generic one-dimensional route: graded panels anchored at the zeros
    margin = b - a
    anchors = list(symbol.zeros_in(a - margin, b + margin))
    floor = symbol.root_scale(q)
    if not math.isfinite(floor):
        floor = margin
    fn = lambda x: phi(q - float(symbol(x)))
    return _ladder_quad_1d(fn, a, b, anchors, floor / 4.0, rel_tol)


# ---------------------------------------------------------------------------
# tensorized quadrature on boxes (2-D and 3-D)


def _axis_floors(symbol, q, dim):
    if isinstance(symbol, Polynomial):
        amax = max(abs(a) for a in symbol.coeffs.values() if a)
        floors = []
        for d in range(dim):
            degs = [j[d] for j, a in symbol.coeffs.items() if a and j[d] > 0]
            floors.append((q / amax) ** (1.0 / min(degs)) / 64.0 if degs else math.inf)
        return floors
    if isinstance(symbol, Radial2D):
        return [q ** (1.0 / symbol.exponent) / 64.0] * dim
    if isinstance(symbol, Zero):
        return [math.inf] * dim
    return [max(symbol.root_scale(q), q) / 64.0] * dim


def _axis_intervals(lo, hi, r):
    """Split [lo, hi] at the root coordinate; tag each piece with its anchor."""
    if lo < r < hi:
        return [(lo, r, r), (r, hi, r)]
    return [(lo, hi, r)]


def _axis_rule(c0, c1, anchor, floor, ratio, n_gl):
    """Graded panel nodes and weights on [c0, c1], refined toward the anchor."""
    edges = _ladder_edges(c0, c1, [anchor], floor, ratio)
    gx, gw = _gl_nodes(n_gl)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(half * gx + 0.5 * (lo + hi))
        weights.append(half * gw)
    return np.concatenate(nodes), np.concatenate(weights)


def _tensor_level(symbol, lo, hi, q, phi, floors, ratio, n_gl, budget):
    dim = symbol.dim
    per_axis = []
    for d in range(dim):
        pieces = _axis_intervals(lo[d], hi[d], float(symbol.root[d]))
        nodes = []
        weights = []
        for c0, c1, anchor in pieces:
            n, w = _axis_rule(c0, c1, anchor, floors[d], ratio, n_gl)
            nodes.append(n)
            weights.append(w)
        per_axis.append((np.concatenate(nodes), np.concatenate(weights)))
    counts = [len(n) for n, _ in per_axis]
    n_evals = int(np.prod(counts))
    if n_evals > budget:
        raise QuadratureError(
            f"tensor quadrature needs {n_evals} evaluations, over the remaining budget {budget}"
        )
    if dim == 2:
        (x0, w0), (x1, w1) = per_axis
        pts = np.stack(np.meshgrid(x0, x1, indexing="ij"), axis=-1)
        t = q - symbol(pts)
        total = float(np.einsum("i,j,ij->", w0, w1, phi(t)))
    else:
        (x0, w0), (x1, w1), (x2, w2) = per_axis
        base = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1)
        total = 0.0
        for i, xv in enumerate(x0):
            pts = np.concatenate(
                [np.full(base.shape[:-1] + (1,), xv), base], axis=-1
            )
            t = q - symbol(pts)
            total += w0[i] * float(np.einsum("j,k,jk->", w1, w2, phi(t)))
    return total, n_evals


def _variance_tensor(symbol, g, q, rel_tol, phi):
    lo = np.asarray(g.lo, dtype=float)
    hi = np.asarray(g.hi, dtype=float)
    floors = _axis_floors(symbol, q, symbol.dim)
    floors = [f if math.isfinite(f) else float(np.max(hi - lo)) for f in floors]
    levels = [(4.0, 10), (4.0, 14), (2.0, 14)] if symbol.dim == 3 else [
        (4.0, 12),
        (4.0, 20),
        (2.0, 16),
        (2.0, 24),
    ]
    budget = EVAL_CAP
    prev = None
    for ratio, n_gl in levels:
        total, used = _tensor_level(symbol, lo, hi, q, phi, floors, ratio, n_gl, budget)
        budget -= used
        if prev is not None and abs(total - prev) <= rel_tol * max(abs(total), 1e-300):
            return total
        prev = total
    raise QuadratureError(
        "tensor quadrature did not converge within the evaluation budget; "
        f"last two values {prev:.9e}"
    )


# ---------------------------------------------------------------------------
# public entry points


def variance_quadrature(query: VarianceQuery, rel_tol: float | None = None, dt: float = 0.0) -> float:
    """Stationary variance of the window observable by direct quadrature.

    Evaluates (sigma**2/2) * integral g**2 / (-f - p) dx for the query.
    With ``dt > 0`` the integrand is replaced by the stationary variance
    of the implicit Euler chain with that step, sigma**2 * g**2 /
    (2|f+p| + (f+p)**2 dt), which is the right reference when comparing
    against discretized simulations.
    """
    q = -query.p
    symbol = query.symbol
    g = query.test_function
    phi = _phi_factory(dt)
    if symbol.dim == 1:
        tol = rel_tol if rel_tol is not None else REL_TOL_1D
        value = _variance_1d(symbol, g, q, tol, phi)
    elif isinstance(g, (QuarterDisc, Disc)) and isinstance(symbol, Radial2D):
        tol = rel_tol if rel_tol is not None else REL_TOL_ND
        angle = math.pi / 2.0 if isinstance(g, QuarterDisc) else 2.0 * math.pi
        # polar coordinates and u = r**2 turn the disc integral into a
        # one-dimensional resolvent integral with exponent beta/2
        alpha = symbol.exponent / 2.0
        val, err = _side_integral(alpha, g.radius**2, q, phi, 0.0, tol)
        if err > 10 * tol * max(abs(val), 1e-300):
            raise QuadratureError("radial quadrature did not reach tolerance")
        value = 0.5 * angle * val
    elif isinstance(g, IndicatorBox) and symbol.dim in (2, 3):
        tol = rel_tol if rel_tol is not None else REL_TOL_ND
        value = _variance_tensor(symbol, g, q, tol, phi)
    else:
        raise ValueError(
            f"unsupported combination of symbol {symbol!r} and window {g!r}"
        )
    return 0.5 * query.sigma**2 * value


def dimension_reduce(j, eps: float = 1.0) -> tuple[tuple[int, ...], float]:
    """Strip zero components from a monomial multi-index.

    Axes with exponent zero integrate out to a plain factor eps per
    axis, leaving a lower-dimensional monomial.  The all-zero index is
    rejected: the drift has no bifurcation in that case and the caller
    must report a convergent law instead.
    """
    idx = as_multi_index(j)
    eps = float(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    reduced = tuple(c for c in idx if c > 0)
    if not reduced:
        raise ValueError(
            "no bifurcation: the zero multi-index keeps the variance bounded, "
            "report a convergent law"
        )
    return reduced, eps ** (len(idx) - len(reduced))


def _mono_2d(i1, i2, eps, q, ratio, n_gl):
    """Nested rule for integral over [0,eps]^2 of 1/(x1**i1 x2**i2 + q).

    The inner axis (larger exponent) is the exact vectorized resolvent;
    the outer axis uses graded panels from the crossover scale where the
    inner integral saturates up to eps.
    """
    io, ii = min(i1, i2), max(i1, i2)
    x_star = (q / eps**ii) ** (1.0 / io)
    nodes, weights = _axis_rule(0.0, eps, 0.0, max(x_star * 1e-2, 1e-280), ratio, n_gl)
    pow_out = nodes**io
    inner = _box_resolvent(float(ii), eps, q / pow_out) / pow_out
    return float(np.sum(weights * inner))


def _mono_3d(idx, eps, q, ratio, n_gl):
    i1, i2, i3 = sorted(idx)
    floor1 = max((q / eps ** (i2 + i3)) ** (1.0 / i1) * 1e-2, 1e-280)
    floor2 = max((q / eps ** (i1 + i3)) ** (1.0 / i2) * 1e-2, 1e-280)
    n1, w1 = _axis_rule(0.0, eps, 0.0, floor1, ratio, n_gl)
    n2, w2 = _axis_rule(0.0, eps, 0.0, floor2, ratio, n_gl)
    pow1 = n1**i1
    pow2 = n2**i2
    prod = np.outer(pow1, pow2)
    inner = _box_resolvent(float(i3), eps, q / prod) / prod
    return float(np.einsum("i,j,ij->", w1, w2, inner))


def monomial_integral(j, eps: float = 1.0, q: float = 1e-4, rel_tol: float = 1e-9) -> float:
    """integral over [0, eps]**N of dx / (x**j + q) for a monomial index j.

    Zero components reduce out as powers of eps.  Up to three active
    axes are supported, which covers the catalog of corner bounds.
    """
    idx = as_multi_index(j)
    q = float(q)
    eps = float(eps)
    if q <= 0:
        raise ValueError("q must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if all(c == 0 for c in idx):
        return eps ** len(idx) / q
    reduced, prefactor = dimension_reduce(idx, eps)
    if len(reduced) == 1:
        value = float(_box_resolvent(float(reduced[0]), eps, q))
        return prefactor * value
    if len(reduced) == 2:
        coarse = _mono_2d(reduced[0], reduced[1], eps, q, 2.0, 24)
        fine = _mono_2d(reduced[0], reduced[1], eps, q, math.sqrt(2.0), 32)
    elif len(reduced) == 3:
        coarse = _mono_3d(reduced, eps, q, 2.0, 12)
        fine = _mono_3d(reduced, eps, q, math.sqrt(2.0), 16)
    else:
        raise ValueError("monomial integrals support at most three active axes")
    if abs(fine - coarse) > 50 * rel_tol * max(abs(fine), 1e-300):
        raise QuadratureError(
            f"nested monomial quadrature did not converge: {coarse!r} vs {fine!r}"
        )
    return prefactor * fine


def appendix_c_integral(m: int, q: float, rel_tol: float = 1e-8) -> float:
    """integral_0^(1/q) z * log(z)**m / (z+1)**2 dz.

    The inner workhorse behind the logarithmic divergence rates: as q
    drops to 0, with L = log(1/q), the value obeys the two-term law

        L**(m+1) / (m+1) + K_m + O(q * L**m),

    where K_m = -2 * m! * eta(m) for even m and -2 * m! * eta(m+1) for
    odd m, eta being the Dirichlet eta function with eta(0) = 1/2; so
    K_0 = -1, K_1 = -pi**2/6 and K_2 = -pi**2/3.  The piece beyond
    z = 1 is integrated in log coordinates, where the integrand is
    u**m / (1 + exp(-u))**2, up to log(1/q), taken as -log(q) where 1/q
    overflows; the value is finite for every positive double q.
    """
    m = int(m)
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    q = float(q)
    if q <= 0:
        raise ValueError("q must be positive")
    upper = 1.0 / q
    epsrel = min(rel_tol * 1e-2, 1e-10)

    def head(z):
        if z <= 0.0:
            return 0.0
        return z * math.log(z) ** m / (z + 1.0) ** 2

    if upper <= 1.0:
        val, err = _quad(head, 0.0, upper, epsrel)
    else:
        val, err = _quad(head, 0.0, 1.0, epsrel)

        def tail(u):
            # ez / (ez + 1) rounds to 1 once exp(-u) < 2**-53 (u > 36.8);
            # the clamp keeps ez * ez finite (it overflows past u = 354.9)
            ez = math.exp(min(u, 40.0))
            return ez * ez * u**m / (ez + 1.0) ** 2

        # log(1/q), not -log(q): at q = 1e-2 the two differ by one ulp,
        # which moves the integral in its last bits; where 1/q overflows
        # (q below 5.6e-309) only -log(q) is finite
        log_upper = math.log(upper) if upper < math.inf else -math.log(q)
        v2, e2 = _quad(tail, 0.0, log_upper, epsrel)
        val += v2
        err += e2
    if err > 10 * rel_tol * max(abs(val), 1e-300):
        raise QuadratureError("log-power integral did not reach tolerance")
    return val
