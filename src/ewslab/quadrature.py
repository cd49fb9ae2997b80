"""Closed-form variance evaluation by graded Gauss-Legendre quadrature.

For the stable linear equation du = (f(x) + p) u dt + sigma dW with
p < 0, the stationary variance observed through a window g is

    (sigma**2 / 2) * integral g(x)**2 / (-f(x) - p) dx.

The integrand develops a boundary layer of width ``root_scale(-p)``
around the zero set of f as p approaches 0 from below, which is exactly
the regime of interest.  Every route is a sequence of composite
Gauss-Legendre levels, each evaluated on one node array and accepted by
``_settled`` once two successive levels agree.  Every one-dimensional
query but a sampled kernel takes one rule (``_offset_rule``): the window
is cut at the zeros of f, at the midpoints between them and, for a power
window x**(-gamma), at its singular point 0; each piece is taken in the
offset y = |x - c| from its center c, f as ``Symbol.offset_value``, which
is exact in y for the closed kinds, and in v = log y with the integrand
in logs, so the weight is the term -2 gamma v; the panels grade away
from the layer log root_scale(q) (``_log_levels``), and all pieces are
one node array.  A power law |x - root|**alpha (``ToolAlpha``, a radial
or ring disc after u = r**2) takes it with t = q + e**(alpha v) in logs
(``_power_law``), which reaches every positive q.  On boxes in two and
three dimensions, a sum of one-axis powers c_k (x_k - r_k)**a_k with c_k > 0,
each term nonnegative on the box, reduces exactly to one integral in
s = log t of exp(-q t) times a product of per-axis incomplete gamma
functions (``_separable_reduction``), on the levels of ``_log_levels``.
Every other box query takes the tensorized route: each axis is one
graded rule (``_axis_rule``) toward the root coordinate, its smallest
panel the layer width of the axis's lowest power for a ``Polynomial``
and ``root_scale / 64`` otherwise, and a level evaluates the symbol on
the product grid of its axis rules (``Symbol.on_grid``) one slab of
first-axis nodes at a time and contracts each slab with the weights.

A sweep (``variance_values``) takes every p of its grid through the
route at once, and ``variance_quadrature`` is the sweep of one p.  A
level is one node array over the panels of every p still open, each
p's totals come from its own panels with the arithmetic it has alone,
and each p is accepted on its own and then leaves the later levels, so
every value of a sweep has the bits of its p alone.  Only the tensor
route evaluates one p at a time, its levels already large.  Where any p
fails, the grid is taken again one p at a time, so that the first
failing p in grid order raises its own error.

With dt > 0 the router alone takes the implicit Euler chain's resolvent
1/(t + dt t**2/2) = 1/t - 1/(t + 2/dt), as V(q) - V(q + 2/dt) from one pass
of the route of dt = 0, each term to a tolerance tightened by their
cancellation, or QuadratureError past a floor (``_scheme_corrected``).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import groupby

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

from .symbols import (
    ConvolutionKernel,
    Piecewise,
    Polynomial,
    Radial2D,
    Registered,
    SwiftHohenberg2D,
    Symbol,
    ToolAlpha,
    as_finite,
    as_multi_index,
    as_positive,
    split_square,
)

REL_TOL_1D = 1e-8
REL_TOL_ND = 1e-6
EVAL_CAP = 2**24
# the smallest inner tolerance of the scheme correction: R up to 4096 at rel_tol 1e-8
_CANCEL_FLOOR = 1e-12
# grid points per slab of a tensor level: each temporary stays near 256 kB
_SLAB_POINTS = 1 << 15
# logs of 45, above which P(1/a, z) rounds to 1, and of 750, above which exp(-z) underflows
_LOG_45 = math.log(45.0)
_LOG_750 = math.log(750.0)
_LOG_MAX = math.log(sys.float_info.max)
_TINY = sys.float_info.min


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be resolved to the requested tolerance."""


# ---------------------------------------------------------------------------
# test functions


class TestFunction(Registered):
    """Observation window g; subclasses define the support and the profile."""

    dim: int
    kinds = {}


class IndicatorBox(TestFunction):
    """g = 1 on the closed box [lo, hi], 0 outside."""

    kind = "box"
    fields = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.atleast_1d(as_finite(lo, "box corners"))
        hi = np.atleast_1d(as_finite(hi, "box corners"))
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
        return cls(np.zeros(dim), np.full(dim, as_positive(eps, "eps")))

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
    fields = ("gamma", "eps")

    def __init__(self, gamma: float, eps: float = 1.0):
        gamma = as_finite(gamma, "gamma")
        if not 0.0 <= gamma < 0.5:
            raise ValueError("gamma must lie in [0, 1/2) for a square-integrable window")
        self.gamma = gamma
        self.eps = as_positive(eps, "eps")
        self.dim = 1

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        inside = (arr > 0) & (arr <= self.eps)
        out[inside] = arr[inside] ** (-self.gamma)
        return out

    def __repr__(self):
        return f"PowerIndicator(gamma={self.gamma}, eps={self.eps})"


class Disc(TestFunction):
    """g = 1 on the full disc of given radius centered at the origin."""

    kind = "disc"
    fields = ("radius",)
    angle = 2.0 * math.pi  # of the sector the window covers

    def __init__(self, radius: float):
        self.radius = as_positive(radius, "radius")
        self.dim = 2

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        r2 = arr[..., 0] ** 2 + arr[..., 1] ** 2
        return (r2 <= self.radius**2).astype(float)

    def __repr__(self):
        return f"{type(self).__name__}(radius={self.radius})"


class QuarterDisc(Disc):
    """g = 1 on the quarter disc of given radius in the closed positive quadrant."""

    kind = "quarter_disc"
    fields = ("radius",)
    angle = math.pi / 2.0

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        return super().__call__(arr) * ((arr[..., 0] >= 0) & (arr[..., 1] >= 0))


class VarianceQuery:
    """One stationary-variance evaluation: symbol, window, p < 0 and sigma."""

    def __init__(self, symbol: Symbol, test_function: TestFunction, p: float, sigma: float = 1.0):
        if not isinstance(symbol, Symbol):
            raise TypeError("symbol must be a Symbol instance")
        p = as_finite(p, "p")
        sigma = as_positive(sigma, "sigma")
        if p >= 0:
            raise ValueError("p must be negative, the equation is only stable for p < 0")
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
# Gauss-Legendre levels


@lru_cache(maxsize=64)
def _gl_nodes(n: int):
    x, w = leggauss(n)
    return x, w


def _check_rel_tol(rel_tol):
    """ValueError unless ``rel_tol`` is None or a number in (0, 1); NaN and infinity fail."""
    if rel_tol is not None and not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be a finite number in (0, 1), got {rel_tol!r}")


def _ladders(ends, z, owner, floor, ratio):
    """Panel edges on every span [a, b] of ``ends``, geometrically graded toward its anchors.

    ``z`` holds the anchors of all spans and ``owner`` the span of each.
    The edges of a span are a, b, each anchor z inside it and each z - d
    and z + d inside it, where d starts at max(floor, 4 ulps of z) and
    takes the steps d *= ratio while below the farther end from z: one
    running product (``np.multiply.accumulate``, the same bits as the
    loop) serves every anchor with the same first step.  Returns the
    sorted edges of every span, span after span, and how many each has.
    """
    a, b = ends[owner].T
    dmax = np.maximum(np.abs(b - z), np.abs(a - z))
    # no panel under 4 ulps of z; a floor that underflowed to 0 still climbs
    first = np.maximum(np.maximum(floor, 4.0 * np.spacing(np.abs(z))), _TINY)
    points, owners = [z], [owner]
    for d0 in set(first.tolist()):
        mine = first == d0
        top = float(dmax[mine].max())
        # d0 ratio**k for k up to 2 past log(top / d0) / log(ratio), which passes top
        steps = np.full(3 + max(0, int((math.log(top) - math.log(d0)) / math.log(ratio))), ratio)
        steps[0] = d0
        np.multiply.accumulate(steps, out=steps)
        # the steps below each anchor's farther end, anchor after anchor
        n = steps.searchsorted(dmax[mine])
        d = steps[np.arange(n.sum()) - (n.cumsum() - n).repeat(n)]
        z_d, owner_d = z[mine].repeat(n), owner[mine].repeat(n)
        points += [z_d - d, z_d + d]
        owners += [owner_d, owner_d]
    x, span = np.concatenate(points), np.concatenate(owners)
    inside = (ends[:, 0][span] < x) & (x < ends[:, 1][span])
    x = np.concatenate([ends.ravel(), x[inside]])
    span = np.concatenate([np.arange(len(ends)).repeat(2), span[inside]])
    # by value, then stably by span: a radix sort where span numbers fit 16 bits
    order = x.argsort()
    narrow = span[order].astype(np.int16 if len(ends) < 1 << 15 else int)
    order = order[narrow.argsort(kind="stable")]
    x, span = x[order], span[order]
    fresh = np.ones(x.size, dtype=bool)
    fresh[1:] = (x[1:] != x[:-1]) | (span[1:] != span[:-1])
    return x[fresh], np.bincount(span[fresh], minlength=len(ends))


def _ladder_edges(a, b, anchors, floor, ratio):
    """Panel edges on [a, b], geometrically graded toward each anchor (``_ladders``)."""
    return _ladders(np.array([(a, b)], dtype=float), np.array(anchors, dtype=float),
                    np.zeros(len(anchors), dtype=int), floor, ratio)[0]


def _axis_rule(c0, c1, anchors, floor, ratio, n_gl):
    """Nodes and weights of a graded panel Gauss-Legendre rule on [c0, c1] toward each anchor."""
    edges = np.array(_ladder_edges(c0, c1, anchors, floor, ratio))
    half = 0.5 * (edges[1:] - edges[:-1])
    gx, gw = _gl_nodes(n_gl)
    return ((half[:, None] * gx + (0.5 * (edges[:-1] + edges[1:]))[:, None]).ravel(),
            (half[:, None] * gw).ravel())


def _settled(levels, n, rel_tol, what):
    """Per p of ``n``, the first level value within ``rel_tol`` of the one before it.

    ``levels(todo)`` yields each level's totals, indexed by p, for the p
    in the list ``todo``, from which each p is removed as it settles, so
    that later levels leave it out.  A p still open when the levels run
    out raises QuadratureError.
    """
    value = [None] * n
    prev = [None] * n
    todo = list(range(n))
    for totals in levels(todo):
        for i in todo:
            total = totals[i]
            if prev[i] is not None and abs(total - prev[i]) <= rel_tol * max(abs(total), 1e-300):
                value[i] = total
            prev[i] = total
        todo[:] = [i for i in todo if value[i] is None]
        if not todo:
            return value
    raise QuadratureError(f"{what} did not converge; last two values {prev[todo[0]]:.9e}")


def _gl_blocks(levels):
    """Per grading ratio of the (ratio, points) ``levels``: the ratio, the nodes
    of its levels' rules side by side, as fractions of a panel, and a matrix
    whose column k holds level k's weights per unit panel width on its rows."""
    blocks = []
    for ratio, group in groupby(levels, key=lambda level: level[0]):
        rules = [_gl_nodes(n_gl) for _, n_gl in group]
        gw = np.zeros((sum(x.size for x, _ in rules), len(rules)))
        start = 0
        for k, (x, w) in enumerate(rules):
            gw[start:start + x.size, k] = 0.5 * w
            start += x.size
        blocks.append((ratio, 0.5 * (1.0 + np.concatenate([x for x, _ in rules])), gw))
    return tuple(blocks)


# the levels of _log_levels and of the corner reduction: the first two share
# their panels, so the first, there only to be compared with the second, has
# few points
_LOG_LEVELS = _gl_blocks(((2.0, 8), (2.0, 16), (1.5, 24), (1.25, 32)))


def _panels(spans, todo, first, ratio):
    """One level's panels over the spans of every p in ``todo``.

    ``spans`` is ``(lo, hi, anchors)``: the ends of span j of p i at
    [i, j] and its anchors along the last axis of ``anchors`` (an anchor
    may repeat).  Returns the lower edges and widths of the panels, the
    columns ``rows`` of each panel's p and span index, and the (start,
    stop) rows of each p.  The spans of one p are one edge array whose
    panel from one span's end to the next span's start has width 0; no
    panel joins two p.
    """
    lo, hi, anchors = (x[todo] for x in spans)
    m, n_spans, n_anchors = anchors.shape
    # an anchor outside its span stands at the nearer end
    z = np.minimum(np.maximum(anchors, lo[..., None]), hi[..., None]).ravel()
    edges, counts = _ladders(np.stack([lo, hi], axis=-1).reshape(-1, 2), z,
                             np.arange(m * n_spans).repeat(n_anchors), first, ratio)
    seg_stop = counts.cumsum()
    width = edges[1:] - edges[:-1]
    # the panels from the last edge of a span to the next edge: width 0 within a p, none between p
    width[seg_stop[:-1] - 1] = 0.0
    p_stop = seg_stop[n_spans - 1::n_spans]
    keep = np.ones(width.size, dtype=bool)
    keep[p_stop[:-1] - 1] = False
    seg = np.arange(m * n_spans).repeat(counts)[:-1][keep]
    stops = (p_stop - np.arange(1, m + 1)).tolist()
    rows = (np.asarray(todo)[seg // n_spans][:, None], (seg % n_spans)[:, None])
    return edges[:-1][keep], width[keep], rows, list(zip([0] + stops[:-1], stops))


def _one_span(lo, hi, anchors):
    """The spans of ``_panels`` for one p with the one span [lo, hi]."""
    return np.array([[lo]]), np.array([[hi]]), np.array([[anchors]], dtype=float)


def _log_levels(log_fn, spans, first, rel_tol, what):
    """Per p, integral of exp(log_fn) over each of its spans, on the _LOG_LEVELS levels,
    until two agree.

    ``spans`` holds the spans of every p (``_panels``).  On a span the
    panels grade by the level's ratio away from each anchor, from panels
    ``first`` wide; an anchor outside the span stands at its nearer end.
    Where the integrand behaves like e**(r s) between two anchors, the
    panel at distance d from the larger end holds about e**(-r d) of
    it, and on a panel d wide the n-point rule misses
    (n!)**4 (r d)**(2n) / ((2n + 1) ((2n)!)**3) of its part: at ratio 2
    that is at most 5.8e-10 of the integral at 8 points and 1.9e-19 at
    16.  The levels of one ratio share their panels and one evaluation of
    log_fn, over the spans of every p still open (``_panels``):
    log_fn(v, rows) takes the nodes v, one row per panel, and ``rows``,
    the columns of each row's p and span index.  Each p's totals come
    from its own rows, as they would alone: one matrix product over the
    rows of every p would round differently.  Each p is accepted by
    ``_settled``.  A level that is not a finite double raises
    OverflowError.
    """

    def levels(todo):
        for ratio, frac, gw in _LOG_LEVELS:
            lo, width, rows, bounds = _panels(spans, todo, first, ratio)
            values = np.exp(log_fn(lo[:, None] + width[:, None] * frac, rows))
            block = {i: (width[start:stop] @ (values[start:stop] @ gw)).tolist()
                     for i, (start, stop) in zip(todo, bounds)}
            for k in range(gw.shape[1]):
                totals = {i: block[i][k] for i in todo}
                if not all(map(math.isfinite, totals.values())):
                    raise OverflowError
                yield totals

    return np.array(_settled(levels, len(spans[0]), rel_tol, what))


# ---------------------------------------------------------------------------
# 1-D variance dispatch


def _offset_pieces(a, b, centers):
    """[a, b] cut at every center inside it and at the midpoints between
    the sorted ``centers``, each piece in the offset from its nearest
    center c: a piece (c, s, lo, hi) is x = c + s y for y in [lo, hi],
    whose lo is exact in doubles where it is small (Sterbenz)."""
    if len(centers) == 1:
        (c,) = centers
        if a < c < b:
            return [(c, -1.0, 0.0, c - a), (c, 1.0, 0.0, b - c)]
        return [(c, 1.0, a - c, b - c) if c <= a else (c, -1.0, c - b, c - a)]
    mids = [0.5 * (z0 + z1) for z0, z1 in zip(centers, centers[1:])]
    cuts = [a, *sorted(x for x in centers + mids if a < x < b), b]
    return [_offset_pieces(x0, x1, [centers[bisect_right(mids, x0)]])[0]
            for x0, x1 in zip(cuts, cuts[1:])]


def _offset_rule(log_t, pieces, layers, order, gamma, rel_tol, what):
    """Per p, the sum over ``pieces`` of integral |x|**(-2 gamma) / t dy, each in v = log y.

    A piece (c, s, lo, hi) of ``_offset_pieces`` is x = c + s y, y in
    [lo, hi], from a zero c of f or from c = 0, where the weight is
    singular; log_t(v, rows) is log t = log(q - f(x)) on the nodes v,
    one row per panel, of the p and pieces ``rows``.  The integrand e**v
    |x|**(-2 gamma) / t is taken in logs on one node array
    (``_log_levels``), graded away from the layer of its p, ``layers[i]``
    that of p i.  Where
    f = -|y|**order about c, the poles sit pi / order off the axis, so
    the first panels are 4 / order wide, and the integrand grows like
    e**(beta v), beta = 1 - 2 gamma at c = 0 and 1 elsewhere, below the
    layer, losing ``order`` of that rate past it: the panels also
    grade away from an upper end it grows toward.
    Without an ``order`` the first panels are 1 wide, which resolves a
    polynomial of degree up to 6 with positive coefficients (its poles
    lie pi / 6 or more off the axis), and every upper end is an anchor:
    the integrand may grow toward the next zero, and a polynomial's poles
    may sit anywhere between its layer and its end.  A piece from y = 0
    starts ``depth`` below min(layer, log hi), where -f has fallen to
    about e**-40 q; one from c = 0 with gamma > 0 adds the rest in closed
    form, e**(beta v) / (t beta) at its start, nearly all the value at
    gamma one double below 1/2, from the one node of each p.  A
    non-finite value raises OverflowError.
    """
    depth = 40.0 / min(order, 1.0) if order and gamma else 40.0
    beta = 1.0 - 2.0 * gamma
    # the spans of p i at [i, j], piece j
    v_hi = np.array([math.log(hi) for _, _, _, hi in pieces])
    v_lo = np.array([math.log(lo) if lo > 0.0 else math.nan for _, _, lo, _ in pieces])
    v_lo = np.where(np.isnan(v_lo), np.minimum(layers[:, None], v_hi) - depth, v_lo)
    rate = np.array([beta if c == 0.0 else 1.0 for c, _, _, _ in pieces])
    grows = rate > order * (layers[:, None] <= v_hi) if order else np.ones(v_lo.shape, dtype=bool)
    # where it does not grow, the upper end repeats the layer, which adds no edge
    end = np.where(grows, v_hi, layers[:, None])
    anchors = np.stack([np.broadcast_to(layers[:, None], end.shape), end], axis=-1)
    spans = (v_lo, np.tile(v_hi, (len(v_lo), 1)), anchors)
    # log |x|, from v itself where c = 0 so that no x underflows
    log_x = lambda v, rows: v
    if gamma and any(p[0] for p in pieces):
        centers_signs = np.array([p[:2] for p in pieces]).T

        def log_x(v, rows):
            c, s = centers_signs[:, rows[1]]
            return np.where(c == 0.0, v, np.log(np.abs(c + s * np.exp(v))))

    def log_fn(v, rows):
        out = v - log_t(v, rows)
        return out - 2.0 * gamma * log_x(v, rows) if gamma else out

    total = _log_levels(log_fn, spans, 4.0 / order if order else 1.0, rel_tol, what)
    for j, (c, _, lo, _) in enumerate(pieces) if gamma else ():
        if lo == 0.0 and c == 0.0:
            for i, start in enumerate(v_lo[:, j].tolist()):
                log_head = float(log_fn(start, (i, j)))
                total[i] += (math.exp(log_head) if log_head < _LOG_MAX else math.inf) / beta
    return total


def _power_law(alpha, pieces, q, rel_tol, what, gamma=0.0):
    """Per q, the sum over ``pieces`` of integral |y|**(-2 gamma) / (q + |y|**alpha) dy,
    by ``_offset_rule``.

    t = q + e**(alpha v) is taken in logs, so every positive q is reached
    unless the value itself overflows (QuadratureError).  The layer sits
    at v0 = log(q) / alpha.
    """
    if len(pieces) == 2 and pieces[0][2:] == pieces[1][2:]:
        # a box centred on the root holds the same side twice
        return 2.0 * _power_law(alpha, pieces[:1], q, rel_tol, what, gamma)
    log_q = np.array([math.log(x) for x in q.tolist()])
    log_t = lambda v, rows: np.logaddexp(log_q[rows[0]], alpha * v)
    try:
        return _offset_rule(log_t, pieces, log_q / alpha, alpha, gamma, rel_tol, what)
    except OverflowError:
        raise QuadratureError(f"side integral of |x|**{alpha} overflows at q = {q.item(0)}") from None


def _stable(t):
    """``t = q - f`` at one point; ValueError where f + p is not negative there."""
    if t <= 0:
        raise ValueError("drift + p is not negative on the window")
    return t


def _kernel_variance(symbol, g, a, b, q):
    """Per q, the exact integral over [a, b] of the resolvent of the piecewise-linear
    multiplier interpolant.

    On each grid segment the resolvent of a linear function integrates
    to a logarithm, which stays finite as long as q > 0, so no special
    treatment of near-zero multiplier values is needed.  Accuracy is
    limited by the kernel's sample resolution, not by this step.  The
    window must be a box: the interpolant has a kink at every node, which
    a weighted window's graded rule would not put a panel edge on.  Only
    t = q - f depends on q: each q is one row of the segment sums.
    """
    if not isinstance(g, IndicatorBox):
        raise ValueError(f"unsupported combination of symbol {symbol!r} and window {g!r}")
    grid = symbol.freq_grid
    if a < grid[0] or b > grid[-1]:
        raise ValueError("window exceeds the kernel's resolved frequency range")
    ks = np.unique(np.concatenate([grid[(grid > a) & (grid < b)], [a, b]]))
    tvals = q[:, None] - np.interp(ks, grid, symbol.multiplier)
    if np.any(tvals <= 0):
        raise ValueError("kernel multiplier is positive inside the window, no stable regime")
    dk = np.diff(ks)
    t1, t2 = tvals[:, :-1], tvals[:, 1:]
    close = np.abs(t2 - t1) <= 1e-12 * np.maximum(t1, t2)
    seg = np.where(close, dk * 2.0 / (t1 + t2), dk * np.log(t2 / t1) / (t2 - t1))
    return seg.sum(axis=1)


def _variance_1d(symbol, g, a, b, q, rel_tol):
    """Per q, integral over [a, b] of g**2 / (q - f), for g a box or the power window
    x**(-gamma).

    A ``Piecewise`` symbol splits at its root, each side on its own route;
    a ``ToolAlpha`` takes ``_power_law`` unless a power window's 0 is not
    its root; every other symbol but a sampled kernel takes
    ``_offset_rule`` from the zeros of f near [a, b] (its root without
    any) and, for gamma > 0, from 0, with its layer at log root_scale(q).
    """
    root = float(symbol.root[0])
    if isinstance(symbol, Piecewise):
        total = 0.0
        if a < root:
            total += _variance_1d(symbol.left, g, a, min(b, root), q, rel_tol)
        if b > root:
            total += _variance_1d(symbol.right, g, max(a, root), b, q, rel_tol)
        return total
    if isinstance(symbol, ConvolutionKernel):
        return _kernel_variance(symbol, g, a, b, q)
    gamma = g.gamma if isinstance(g, PowerIndicator) else 0.0
    if isinstance(symbol, ToolAlpha) and (root == 0.0 or not gamma):
        return _power_law(symbol.alpha, _offset_pieces(a, b, [root]), q, rel_tol,
                          "power-law quadrature", gamma)

    margin = b - a
    zeros = {*symbol.zeros_in(a - margin, b + margin)} or {root}
    pieces = _offset_pieces(a, b, sorted(zeros | {0.0} if gamma else zeros))
    centers_signs = np.array([p[:2] for p in pieces]).T
    layers = np.array([math.log(max(symbol.root_scale(x), _TINY)) for x in q.tolist()])

    def log_t(v, rows):
        c, s = centers_signs[:, rows[1]]
        t = q[rows[0]] - symbol.offset_value(c, s * np.exp(v))
        _stable(t.min())
        return np.log(t)

    try:
        return _offset_rule(log_t, pieces, layers, None, gamma, rel_tol,
                            "one-dimensional quadrature")
    except OverflowError:
        raise QuadratureError(f"one-dimensional quadrature overflows at q = {q.item(0)}") from None


# ---------------------------------------------------------------------------
# tensorized quadrature on boxes (2-D and 3-D)


def _axis_floors(symbol, q):
    """Smallest panel of each axis: the layer width of the axis's lowest power, or root_scale."""
    if isinstance(symbol, Polynomial):
        amax = max(abs(a) for a in symbol.coeffs.values() if a)
        floors = []
        for d in range(symbol.dim):
            degs = [j[d] for j, a in symbol.coeffs.items() if a and j[d] > 0]
            floors.append((q / amax) ** (1.0 / min(degs)) / 64.0 if degs else math.inf)
        return floors
    return [symbol.root_scale(q) / 64.0] * symbol.dim


def _tensor_level(symbol, lo, hi, q, floors, ratio, n_gl, budget):
    """One graded product Gauss-Legendre level, evaluated ``on_grid`` in first-axis slabs.

    Each axis is one rule graded toward the root coordinate; a root inside
    the axis is an edge, with panels graded out to both ends.
    """
    per_axis = [_axis_rule(lo[d], hi[d], [float(symbol.root[d])], floors[d], ratio, n_gl)
                for d in range(symbol.dim)]
    counts = [len(n) for n, _ in per_axis]
    n_evals = int(np.prod(counts))
    if n_evals > budget:
        raise QuadratureError(
            f"tensor quadrature needs {n_evals} evaluations, over the remaining budget {budget}"
        )
    (x0, w0), *rest = per_axis
    rest_nodes = [x for x, _ in rest]
    inner = reduce(np.multiply.outer, [w for _, w in rest]).ravel()
    step = max(1, _SLAB_POINTS // inner.size)
    total = 0.0
    for start in range(0, len(x0), step):
        sl = slice(start, start + step)
        t = q - symbol.on_grid([x0[sl], *rest_nodes])
        _stable(t.min())
        total += float(w0[sl] @ ((1.0 / t).reshape(-1, inner.size) @ inner))
    return total, n_evals


def _variance_tensor(symbol, g, q, rel_tol):
    """Per q, the tensorized box integral; each q has its own levels and evaluation budget."""
    lo, hi, qs = np.asarray(g.lo, dtype=float), np.asarray(g.hi, dtype=float), q.tolist()
    floors = [[f if math.isfinite(f) else float(np.max(hi - lo)) for f in _axis_floors(symbol, x)]
              for x in qs]
    plan = ([(4.0, 10), (4.0, 14), (2.0, 14)] if symbol.dim == 3
            else [(4.0, 12), (4.0, 20), (2.0, 16), (2.0, 24)])

    def levels(todo):
        totals, budget = [None] * len(qs), [EVAL_CAP] * len(qs)
        for ratio, n_gl in plan:
            for i in todo:
                totals[i], used = _tensor_level(symbol, lo, hi, qs[i], floors[i], ratio, n_gl,
                                                budget[i])
                budget[i] -= used
            yield totals

    return np.array(_settled(levels, len(qs), rel_tol, "tensor quadrature"))


# ---------------------------------------------------------------------------
# separable sums of one-axis powers on boxes (2-D and 3-D)


def _separable_axes(symbol, g):
    """Per-axis ``(c, a)`` of f = -sum_k c_k (x_k - r_k)**a_k, None on an axis without a term.

    None instead, for the tensor route, unless f is a ``Polynomial`` with
    c_k > 0, at most one term per axis and every term nonnegative on the
    box g (a_k even, or the box above the root on that axis).
    """
    if not isinstance(symbol, Polynomial):
        return None
    axes = [None] * symbol.dim
    for j, c in symbol.coeffs.items():
        if not c:
            continue
        active = [d for d, e in enumerate(j) if e]
        if len(active) != 1 or c < 0 or axes[active[0]] is not None:
            return None
        d = active[0]
        if j[d] % 2 and g.lo[d] < symbol.root[d]:
            return None
        axes[d] = (c, j[d])
    return axes


def _incomplete_gamma(a):
    """Regularized lower and upper incomplete gamma functions of shape 1/a, on arrays of z."""
    if a == 1:
        return (lambda z: -np.expm1(-z)), (lambda z: np.exp(-z))
    if a == 2:
        return (lambda z: special.erf(np.sqrt(z))), (lambda z: special.erfc(np.sqrt(z)))
    shape = 1.0 / a
    return (lambda z: special.gammainc(shape, z)), (lambda z: special.gammaincc(shape, z))


def _axis_weight(c, a, lo, hi, r):
    """F(t) = integral_lo^hi exp(-t c |x - r|**a) dx as Gamma(1 + 1/a) (t c)**(-1/a) w.

    Returns ``(w, near, settle, turns)``.  With z = t c d**a at distance d
    from the root, w(log t), for an array of log t, sums P(1/a, z) over
    the ``near`` sides that start at the root and P(1/a, z2) - P(1/a, z1)
    over a side [d1, d2] that does not, taken as Q(1/a, z1) - Q(1/a, z2)
    once z1 >= 1 so that the tail difference stays accurate.  Beyond
    log t = ``settle`` every P is 1 and every such difference has
    underflowed, so w is ``near``.  ``turns`` are the log t where some
    z is 1.
    """
    lower, upper = _incomplete_gamma(a)
    d_lo, d_hi = lo - r, hi - r
    if d_lo < 0.0 < d_hi:
        near, far = [-d_lo, d_hi], []
    else:
        d1, d2 = sorted((abs(d_lo), abs(d_hi)))
        near, far = ([d2], []) if d1 == 0.0 else ([], [(d1, d2)])
    # log z = log t + log(c d**a)
    log_c = math.log(c)
    near = [log_c + a * math.log(d) for d in near]
    far = [(log_c + a * math.log(d1), log_c + a * math.log(d2)) for d1, d2 in far]
    settle = max([_LOG_45 - lz for lz in near] + [_LOG_750 - lz1 for lz1, _ in far])

    def w(s):
        total = np.zeros_like(s)
        for lz in near:
            total += lower(np.exp(s + lz))
        for lz1, lz2 in far:
            z1, z2 = np.exp(np.minimum(s + lz1, _LOG_750)), np.exp(np.minimum(s + lz2, _LOG_750))
            total += np.where(z1 < 1.0, lower(z2) - lower(z1), upper(z1) - upper(z2))
        return total

    return w, len(near), settle, [-lz for lz in near] + [-lz for pair in far for lz in pair]


def _separable_reduction(axes, lo, hi, root, q, rel_tol):
    """Per q, integral over the box [lo, hi] of 1 / (q + sum_k c_k |x_k - r_k|**a_k), exactly
    in 1-D.

    With 1/lam = integral_0^inf exp(-lam t) dt the box integral factorizes
    into integral_0^inf exp(-q t) prod_k F_k(t) dt, F_k from
    ``_axis_weight`` and an axis without a term giving its length.  The
    integral runs in s = log t on the levels of ``_log_levels``, in logs
    so that every positive q is reached, graded away from log(1/q) and
    each log t where an axis weight turns.  It starts 40 below the first
    of these, where the integrand is the box volume times e**s, and ends
    where exp(-q t) underflows.  Past ``settle`` no gamma function is
    evaluated.  Only exp(-q t) depends on q.
    """
    log_const = 0.0  # log prod_k Gamma(1 + 1/a_k) c_k**(-1/a_k), times the free lengths
    decay = 0.0  # sum_k 1/a_k, the power of 1/t in prod_k F_k
    weights = []
    near = 1  # prod_k w_k beyond log t = settle
    settle = -math.inf
    turns = []
    for term, c0, c1, r in zip(axes, lo, hi, root):
        if term is None:
            log_const += math.log(c1 - c0)
            continue
        c, a = term
        log_const += math.lgamma(1.0 + 1.0 / a) - math.log(c) / a
        decay += 1.0 / a
        w, n, s_k, axis_turns = _axis_weight(c, a, float(c0), float(c1), float(r))
        weights.append(w)
        near *= n
        settle = max(settle, s_k)
        turns += axis_turns
    log_near = math.log(near) if near else -math.inf
    log_q = [math.log(x) for x in q.tolist()]
    anchors = np.array([[-lq, *turns] for lq in log_q])
    log_q = np.array(log_q)
    spans = ((anchors.min(axis=1) - 40.0)[:, None], (_LOG_750 - log_q)[:, None], anchors[:, None])

    def log_fn(s, rows):
        log_w = np.full_like(s, log_near)
        busy = s < settle
        log_w[busy] = sum(np.log(weight(s[busy])) for weight in weights)
        return s * (1.0 - decay) + log_const + log_w - np.exp(s + log_q[rows[0]])

    try:
        return _log_levels(log_fn, spans, 2.0, rel_tol, "separable reduction")
    except OverflowError:
        raise QuadratureError(f"separable reduction overflows at q = {q.item(0)}") from None


# ---------------------------------------------------------------------------
# public entry points


def variance_values(symbol: Symbol, g: TestFunction, ps, sigma: float = 1.0,
                    rel_tol: float | None = None, dt: float = 0.0) -> np.ndarray:
    """``variance_quadrature`` at every p of the grid ``ps``, all p through their route at once.

    Every value is the one ``variance_quadrature`` gives for its p alone:
    each p's level totals come from its own panels and each p is accepted
    on its own, so a settled p leaves the later levels.  Where any p
    fails, the p are taken one at a time, so that the first failing p in
    grid order raises its own error.
    """
    try:
        query = VarianceQuery(symbol, g, ps[0], sigma)
        q = -np.asarray(ps, dtype=float)
        # the check of VarianceQuery on the other p: where one fails, the loop raises its error
        if q.ndim == 1 and np.all(q > 0.0) and np.all(np.isfinite(q)):
            return _variance(query, q, rel_tol, dt)
    except Exception:
        pass  # whatever failed, and for whichever p, the loop below raises that p's own error
    return np.array([variance_quadrature(VarianceQuery(symbol, g, p, sigma), rel_tol, dt)
                     for p in ps])


def variance_quadrature(query: VarianceQuery, rel_tol: float | None = None, dt: float = 0.0) -> float:
    """Stationary variance of the window observable by direct quadrature.

    Evaluates (sigma**2/2) * integral g**2 / (-f - p) dx for the query.
    With ``dt > 0`` the integrand is replaced by the stationary variance
    of the implicit Euler chain with that step, sigma**2 * g**2 /
    (2|f+p| + (f+p)**2 dt), which is the right reference when comparing
    against discretized simulations (``_scheme_corrected``).

    Physical and frequency symbols alike take the one router, here on one
    p (``variance_values`` is it on a grid); sampled kernels, alone or as
    a ``Piecewise`` side, take the exact integral of their interpolant, on
    box windows only.
    """
    return float(_variance(query, np.array([-query.p]), rel_tol, dt)[0])


def _variance(query, q, rel_tol, dt):
    """The router, and the one place that knows ``dt``: the variance of ``query`` at
    every q = -p of the array ``q``, with floating-point warnings off."""
    _check_rel_tol(rel_tol)
    if as_finite(dt, "dt") < 0:
        raise ValueError("dt must be nonnegative")
    symbol, g = query.symbol, query.test_function
    tol = rel_tol if rel_tol is not None else REL_TOL_1D if symbol.dim == 1 else REL_TOL_ND
    # 2/dt overflows for dt below about 1.1e-308, where the correction is 0
    shift = 2.0 / dt if dt > 0 else math.inf
    with np.errstate(all="ignore"):
        value = (_scheme_corrected(symbol, g, q, shift, tol) if shift < math.inf
                 else _route(symbol, g, q, tol))
        square, k = split_square(query.sigma)
        value = np.ldexp(0.5 * square * value, k)
    for x, v in zip(q.tolist(), value.tolist()):
        if not 0.0 < v < math.inf:
            raise QuadratureError(f"the variance at p = {-x!r} is {v!r}, not a positive double")
    return value


def _route(symbol, g, q, tol):
    """Per q of the array ``q``, integral g**2 / (q - f) dx by the route of (symbol, g)."""
    if symbol.dim == 1:
        if isinstance(g, PowerIndicator):
            return _variance_1d(symbol, g, 0.0, g.eps, q, tol)
        if isinstance(g, IndicatorBox):
            return _variance_1d(symbol, g, float(g.lo[0]), float(g.hi[0]), q, tol)
        raise ValueError(f"unsupported window {g!r} for a one-dimensional symbol")
    if isinstance(g, Disc) and isinstance(symbol, (Radial2D, SwiftHohenberg2D)):
        # polar coordinates and u = r**2 turn the disc integral into the one-dimensional
        # power law |u - root|**alpha on [0, R**2]: the radial drift has alpha = beta/2 and
        # its root at 0, the planar ring multiplier alpha = 2 and its root at 1; a disc that
        # ends before the root (R < 1) is a box off the root
        alpha, root = ((symbol.exponent / 2.0, 0.0) if isinstance(symbol, Radial2D)
                       else (2.0, 1.0))
        pieces = _offset_pieces(0.0, g.radius**2, [root])
        return 0.5 * g.angle * _power_law(alpha, pieces, q, tol, "polar quadrature")
    if (isinstance(g, IndicatorBox) and symbol.dim in (2, 3)
            and not isinstance(symbol, SwiftHohenberg2D)):
        # the tensor panels grade toward the root, not toward a ring
        axes = _separable_axes(symbol, g)
        if axes is None:
            return _variance_tensor(symbol, g, q, tol)
        return _separable_reduction(axes, g.lo, g.hi, symbol.root, q, tol)
    raise ValueError(f"unsupported combination of symbol {symbol!r} and window {g!r}")


def _scheme_corrected(symbol, g, q, shift, tol):
    """Per q, V(q) - V(q + shift) to ``tol``, V by ``_route`` and shift = 2/dt.

    The difference may lose R = (V(q) + V(q + shift)) / (V(q) - V(q + shift))
    <= 1 + dt max(q - f) times the tolerance of its terms.  One pass takes both
    terms of every p at ``tol``; a p whose R rounds to 1 keeps it, its V(q) that
    of dt = 0.  Each other p is taken again at tol / 2**k, 2**k >= 2 R, the p of
    one k in one pass, and its new R must be at most 2**k.  Where that fails, or
    tol / 2**k < ``_CANCEL_FLOOR``, QuadratureError names the cancellation.
    """

    def corrected(x, inner):
        if not np.all(np.isfinite(x + shift)):
            raise QuadratureError(f"q + 2/dt overflows at q = {x.item(0)}")
        v, v_shift = np.split(_route(symbol, g, np.concatenate([x, x + shift]), inner), 2)
        diff = v - v_shift
        return diff, np.where(diff > 0.0, (v + v_shift) / diff, math.inf)

    value, ratio = corrected(q, tol)
    k = np.where(ratio > 1.0, np.ceil(np.log2(2.0 * ratio)), 0.0)
    for k_i in sorted(set(k[k > 0.0].tolist())):
        idx = np.flatnonzero(k == k_i)
        inner = tol * 2.0**-k_i
        try:
            if inner < _CANCEL_FLOOR:
                raise QuadratureError(f"past the smallest inner tolerance {_CANCEL_FLOOR:g}")
            value[idx], again = corrected(q[idx], inner)
            if not np.all(again <= 2.0**k_i):
                raise QuadratureError(f"still above {2.0**k_i:g} at inner tolerance {inner:.3g}")
        except QuadratureError as err:
            raise QuadratureError(f"the dt correction V(q) - V(q + 2/dt) cancels at p = "
                                  f"{-q.item(idx[0])!r}: R = {ratio[idx[0]]:.3g}, {err}") from None
    return value


# share of the corner value the tail beyond the last panel may hold; the
# resolvent's poles at log(1/q) +- i pi are the only ones near the axis, so
# the panels of the corner ladder widen geometrically away from log(1/q)
_CORNER_TAIL = 1e-20


@lru_cache(maxsize=256)
def _gamma_mixture(idx):
    """The density of S = sum_k idx_k E_k, E_k i.i.d. Exp(1), once per index.

    Its Laplace transform prod_k (1 + idx_k z)**-1 splits into partial
    fractions sum c (1 + a z)**-m, so the density is sum c * Gamma(shape
    m, scale a).  An exponent a repeated r times gives m = 1..r; with
    u = 1 + a z, c is the exact u**(r - m) coefficient of the other
    factors (1 - b/a + u b/a)**-s.  Returns arrays (w, a, k) with the
    density sum w s**k exp(-s/a), k = m - 1; the terms of ``_corner_end``;
    and n eps sum |c|, the bound on the relative rounding loss of the
    signed sum.
    """
    terms = []
    for a in sorted(set(idx)):
        r = idx.count(a)
        series = [Fraction(1)] + [Fraction(0)] * (r - 1)
        for b in set(idx) - {a}:
            s = idx.count(b)
            factor = [Fraction(a, a - b) ** s * Fraction(b, b - a) ** n * math.comb(s + n - 1, n)
                      for n in range(r)]
            series = [sum(series[i] * factor[n - i] for i in range(n + 1)) for n in range(r)]
        terms += [(float(series[r - m]), float(a), m - 1) for m in range(1, r + 1)]
    c, a, k = map(np.array, zip(*terms))
    k_factorial = np.array([math.factorial(n) for n in k], dtype=float)
    w = c / (a ** (k + 1) * k_factorial)
    # every caller shares the cached arrays
    for arr in (w, a, k):
        arr.flags.writeable = False
    # the R of _corner_end less its q-dependent part, per term
    tail = tuple((a_i, k_i, math.log(4.0 * len(c) * abs(c_i) / f) - math.log(_CORNER_TAIL))
                 for c_i, a_i, k_i, f in zip(c.tolist(), a.tolist(), k.tolist(), k_factorial)
                 if c_i)
    loss = len(c) * np.finfo(float).eps * float(np.sum(np.abs(c)))
    return w, a, k, tail, loss


def _corner_end(tail, split):
    """A point T past ``split`` = max(log(1/q), 0) beyond which the corner
    integral, in units where eps = 1, holds at most _CORNER_TAIL of its value:
    the last edge of the corner ladder (``_corner_edges``).

    Beyond T the integrand is at most sum |w| s**k exp(-s/a) / q, whose
    integral is sum |c| Gamma(k + 1, T/a) / (k! q), and Gamma(k + 1, x)
    <= 2 x**k exp(-x) once x >= 2 k.  The value is at least
    P(S > split) / (2 q) >= exp(-split / max a) / (2 q), since S >= a_max E
    and the resolvent exceeds 1/(2 q) past split.  So x = T/a with
    x - k log x >= R = log(4 n |c| / k!) + split / max a + log(1/_CORNER_TAIL)
    is enough for each of the n terms ``tail`` = (a, k, R less split / max a)
    of ``_gamma_mixture``; by the tangent of log at x0 = max(R, 2 k, 1),
    x = (R + k (log x0 - 1)) / (1 - k / x0) meets it.
    """
    shift = split / max(a for a, _, _ in tail)
    end = split
    for a, k, r in tail:
        r += shift
        x0 = max(r, 2.0 * k, 1.0)
        end = max(end, a * max(x0, (r + k * (math.log(x0) - 1.0)) / (1.0 - k / x0)))
    return end


def _corner_edges(split, end, ratio):
    """Panel edges on [0, end]: ``split`` and each split -+ 2 ratio**i inside
    (0, end), so the panels are 2 wide at ``split`` and widen by ``ratio``
    away from it on both sides."""
    n = 2 + max(0, math.ceil(math.log(max(split, end - split) / 2.0, ratio)))
    d = [2.0 * ratio**i for i in range(n)]
    inner = [split - x for x in d[::-1]] + [split] + [split + x for x in d]
    # a few dozen edges: a list costs half what numpy does
    return np.array([0.0, *(x for x in inner if 0.0 < x < end), end])


def monomial_integral(j, eps: float = 1.0, q: float = 1e-4, rel_tol: float = 1e-9) -> float:
    """integral over [0, eps]**N of dx / (x**j + q) for a monomial index j, any N.

    Zero components reduce out as powers of eps, and x -> eps x leaves
    eps**(N - |j|) I_j(q / eps**|j|).  With x uniform on the unit cube,
    S = -log x**j is a sum of independent exponentials and I_j(q) =
    E[1 / (exp(-S) + q)], one integral in s against the density of S
    (``_gamma_mixture``), taken on the Gauss-Legendre levels of
    ``_corner_reduction``, whose panels widen geometrically away from
    s = log(1/q), and accepted by ``_settled``.  S dominates each
    Gamma term's variable, so no term integrates to more than I_j and
    rounding in their signed sum loses at most about n * eps_machine *
    sum |c|; above rel_tol, as for clustered exponents, QuadratureError
    is raised.
    """
    idx = as_multi_index(j)
    q = as_positive(q, "q")
    eps = as_positive(eps, "eps")
    _check_rel_tol(rel_tol)
    # zero components only scale the value, which is done in logs
    reduced = tuple(c for c in idx if c > 0)
    try:
        if reduced:
            value = _corner_reduction(reduced, len(idx), eps, q, rel_tol)
        else:
            value = eps ** len(idx) / q
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise QuadratureError(f"monomial integral of {idx} overflows at q = {q!r}")
    return value


def _corner_reduction(reduced, n, eps, q, rel_tol):
    """``monomial_integral`` over [0, eps]**n of an index without zero components.

    Each level is one composite Gauss-Legendre rule in s = -log x**j on
    [0, ``_corner_end``], and the levels of one ratio of ``_LOG_LEVELS``
    share one node array and one evaluation (``_corner_edges``): the
    panels are 2 wide at s = log(1/q), where the resolvent's poles at
    log(1/q) +- i pi sit, and widen by the ratio away from it, as the
    distance to those poles, which sets the Gauss-Legendre error, grows.
    A level that is not a finite double raises OverflowError.
    """
    w, a, k, tail, loss = _gamma_mixture(reduced)
    if loss > rel_tol:
        raise QuadratureError(f"signed terms of {reduced} cancel: rounding may lose {loss:.1e}")
    # logs of q / eps**|j| and eps**(n - |j|), which as numbers may overflow
    log_q = math.log(q) - sum(reduced) * math.log(eps)
    log_scale = (n - sum(reduced)) * math.log(eps)
    split = max(-log_q, 0.0)
    end = _corner_end(tail, split)
    repeated = k.any()

    def levels(_):
        for ratio, frac, gw in _LOG_LEVELS:
            edges = _corner_edges(split, end, ratio)
            panels = edges[1:] - edges[:-1]
            s = (edges[:-1, None] + panels[:, None] * frac).ravel()
            # eps**(n - |j|) times the density of S times 1 / (exp(-s) + q)
            terms = np.exp(log_scale - s / a[:, None] - np.logaddexp(-s, log_q))
            # s**k is 1 but where an exponent repeats
            if repeated:
                terms *= s ** k[:, None]
            for total in (panels @ ((w @ terms).reshape(panels.size, -1) @ gw)).tolist():
                if not math.isfinite(total):
                    raise OverflowError
                yield (total,)

    with np.errstate(all="ignore"):
        return _settled(levels, 1, rel_tol, "monomial reduction")[0]


def appendix_c_integral(m: int, q: float, rel_tol: float = 1e-8) -> float:
    """integral_0^(1/q) z * log(z)**m / (z+1)**2 dz.

    The inner workhorse behind the logarithmic divergence rates: as q
    drops to 0, with L = log(1/q), the value obeys the two-term law

        L**(m+1) / (m+1) + K_m + O(q * L**m),

    where K_m = -2 * m! * eta(m) for even m and -2 * m! * eta(m+1) for
    odd m, eta being the Dirichlet eta function with eta(0) = 1/2; so
    K_0 = -1, K_1 = -pi**2/6 and K_2 = -pi**2/3.  With z = e**-u below
    z = min(1, 1/q) and z = e**u above it, the pieces are (-1)**m
    integral u**m e**(-2u) / (1 + e**-u)**2 du from max(0, log q) on,
    cut at 64 beyond its start where it has lost e**-128, and integral
    u**m / (1 + e**-u)**2 du from 0 to L = -log(q), so the value is
    finite for every positive double q.  Each is
    taken in logs on the levels of ``_log_levels``, with panels at most 2
    wide at u = 0, where the poles sit at +- i pi, doubling away from it.
    """
    m = int(m)
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    q = as_positive(q, "q")
    _check_rel_tol(rel_tol)
    big_l = -math.log(q)
    start = max(0.0, -big_l)
    what = "log-power integral"
    with np.errstate(all="ignore"):
        head = _log_levels(lambda u, _: special.xlogy(m, u) - 2.0 * u - 2.0 * np.log1p(np.exp(-u)),
                           _one_span(start, start + 64.0, [0.0, start]), 2.0, rel_tol, what)
        value = (-1) ** m * float(head[0])
        if big_l > 0.0:
            tail = _log_levels(lambda u, _: special.xlogy(m, u) - 2.0 * np.log1p(np.exp(-u)),
                               _one_span(0.0, big_l, [0.0, big_l]), 2.0, rel_tol, what)
            value += float(tail[0])
    return value
