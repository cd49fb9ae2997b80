"""Drift symbols for the scalar stability equation.

The equation under study is du = (f(x) + p) u dt + sigma dW, where the
drift acts as multiplication by f(x) + p.  A symbol is the function f:
real valued, nonpositive on its domain, vanishing where the
deterministic part loses stability.  This module holds the structured
symbol families that the quadrature, scaling and simulation layers
accept, plus inspection helpers for polynomial coefficient maps.

Spatial kinds (``ToolAlpha``, ``Polynomial``, ``Piecewise``,
``Radial2D``, ``Zero``) vanish at a designated root.  Frequency kinds
(``PowerWavenumber``, ``SwiftHohenberg1D``, ``SwiftHohenberg2D``,
``ConvolutionKernel``) act as Fourier multipliers and may vanish on a
set away from the origin, so only the nonpositivity half of the
stability check applies to them.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

MultiIndex = tuple[int, ...]

_ZERO_TOL = 1e-12


def as_multi_index(value) -> MultiIndex:
    """Coerce ``value`` to a tuple of nonnegative integer exponents.

    Accepts a bare integer (treated as one-dimensional) or any sequence
    of integers.  Raises ValueError for negative or fractional entries.
    """
    try:
        components = tuple(value)
    except TypeError:
        components = (value,)
    if not components:
        raise ValueError("multi-index needs at least one component")
    out = []
    for c in components:
        ci = int(c)
        if ci != c or ci < 0:
            raise ValueError(
                f"multi-index components must be nonnegative integers, got {value!r}"
            )
        out.append(ci)
    return tuple(out)


def as_finite(value, name: str):
    """``value`` as a float (a float array for sequences); NaN or infinity raises ValueError."""
    if isinstance(value, (int, float, np.floating)):
        # a scalar skips the array round trip, which costs 20 times the check
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        return value
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr if arr.ndim else float(arr)


def as_positive(value, name: str) -> float:
    """``value`` as a finite float above 0; anything else raises ValueError."""
    value = as_finite(value, name)
    if not (isinstance(value, float) and value > 0):
        raise ValueError(f"{name} must be positive")
    return value


def power(x: float, e: float) -> float:
    """``x**e`` for x >= 0, or inf where it overflows: Python's float power
    raises OverflowError there, and callers take the inf as a value past
    every double."""
    try:
        return x**e
    except OverflowError:
        return math.inf


def split_square(x: float) -> tuple[float, int]:
    """``x**2`` as (s, k) with x**2 = s * 2**k: (x**2, 0) wherever that is
    a finite double, so ``np.ldexp(s * y, k)`` is the product as written
    bit for bit, and (m**2, 2 e) for x = m 2**e where x**2 overflows, so a
    product such as the variance sigma**2 y overflows only with its value."""
    square = power(x, 2)
    if square < math.inf:
        return square, 0
    m, e = math.frexp(x)
    return m * m, 2 * e


def as_coefficient_map(coeffs: Mapping) -> dict[MultiIndex, float]:
    """``coeffs`` as {multi-index: finite float}; every reader of coefficient maps uses it.

    Keys go through :func:`as_multi_index`; the map must be nonempty,
    name each multi-index once and give every one the same length.
    """
    terms = {}
    for j, a in coeffs.items():
        idx = as_multi_index(j)
        a = as_finite(a, "coefficients")
        if idx in terms:
            raise ValueError(f"duplicate multi-index {idx}")
        terms[idx] = a
    if not terms:
        raise ValueError("coefficient map is empty")
    if len({len(j) for j in terms}) != 1:
        raise ValueError("all multi-indices must have the same number of components")
    return terms


def _as_point(value, dim: int) -> np.ndarray:
    arr = np.atleast_1d(as_finite(value, "coordinates"))
    if arr.shape != (dim,):
        raise ValueError(f"expected a point with {dim} coordinates, got shape {arr.shape}")
    return arr


def _as_box(domain, lo, hi, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``domain``, or the default corners ``lo, hi`` when it is None, as a box of points."""
    if domain is not None:
        lo, hi = domain
    lo = _as_point(lo, dim)
    hi = _as_point(hi, dim)
    if np.any(hi <= lo):
        raise ValueError("domain box must have positive extent on every axis")
    return lo, hi


def _plain(value):
    """JSON-ready form of a stored constructor argument."""
    if isinstance(value, Registered):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


class Registered:
    """Kind registry and dictionary form shared by symbols and windows.

    A base class that sets ``kinds = {}`` starts a registry.  Every
    subclass that defines its own ``fields``, the names of its
    constructor arguments (stored under the same attribute names), is
    entered in it under its ``kind``; classes without ``fields`` have no
    serialized form.  Subclasses whose stored form differs from their
    constructor arguments override ``to_dict`` and ``from_dict``.
    """

    kind = "abstract"
    kinds: dict[str, type]
    fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "fields" in cls.__dict__:
            cls.kinds[cls.kind] = cls

    def to_dict(self) -> dict:
        if self.kinds.get(self.kind) is not type(self):
            raise TypeError(f"{type(self).__name__} has no serialized form")
        return {"kind": self.kind, **{name: _plain(getattr(self, name)) for name in self.fields}}

    @classmethod
    def from_dict(cls, data: Mapping):
        return cls(**{name: data[name] for name in cls.fields if name in data})

    @classmethod
    def build(cls, data: Mapping):
        """Rebuild an instance of any kind in this registry from its dictionary."""
        if not isinstance(data, Mapping):
            raise ValueError(f"a {cls.__name__} description must be a JSON object")
        kind = data.get("kind")
        if kind not in cls.kinds:
            raise ValueError(f"unknown {cls.__name__} kind: {kind!r}")
        try:
            return cls.kinds[kind].from_dict(data)
        except KeyError as exc:
            raise ValueError(f"{kind} description lacks the entry {exc}") from exc


class Symbol(Registered):
    """Common interface for drift multipliers f(x).

    Subclasses evaluate elementwise on scalars or arrays when ``dim`` is
    1, and on arrays whose last axis holds the coordinates when ``dim``
    is 2 or more.  ``sign_ok`` records whether the strict stability
    check passed: f <= 0 everywhere on the domain and f < 0 away from
    the zero set the family is allowed to have.
    """

    dim: int
    root: np.ndarray
    domain: tuple[np.ndarray, np.ndarray]
    sign_ok: bool
    kinds = {}

    def __call__(self, x):
        raise NotImplementedError

    def on_grid(self, axes) -> np.ndarray:
        """f on the product grid of per-axis node arrays, shape ``tuple(len(a) for a in axes)``."""
        if self.dim == 1:
            return self(np.asarray(axes[0], dtype=float))
        return self(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))

    def _coerce(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if self.dim == 1:
            return arr
        if arr.ndim == 0 or arr.shape[-1] != self.dim:
            raise ValueError(
                f"a {self.dim}-dimensional symbol expects points whose last axis "
                f"has length {self.dim}"
            )
        return arr

    def root_scale(self, q: float) -> float:
        """Estimated width of the boundary layer of 1/(q - f) at the root."""
        return float(q)

    def zeros_in(self, lo: float, hi: float) -> tuple[float, ...]:
        """Zeros of f inside [lo, hi], for one-dimensional symbols."""
        if self.dim != 1:
            raise ValueError("zeros_in applies to one-dimensional symbols only")
        r = float(self.root[0])
        return (r,) if lo <= r <= hi else ()

    def offset_value(self, z, y):
        """f(z + y) in one dimension, z and y broadcast; the closed kinds form no z + y,
        so that at a zero z the value is exact in y however small y is."""
        return self(np.asarray(z) + y)


def _lattice(domain, dim):
    lo, hi = domain
    per_axis = {1: 1001, 2: 101, 3: 31}.get(dim, 11)
    axes = [np.linspace(lo[d], hi[d], per_axis) for d in range(dim)]
    if dim == 1:
        return axes[0]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _check_sign(symbol: Symbol, strict: bool = True) -> bool:
    """Sampled stability check.

    Verifies f <= 0 on a lattice over the domain, f(root) = 0, and
    strict negativity away from the coordinate hyperplanes through the
    root (in one dimension, away from the root itself).  Hyperplane
    contact is allowed because monomial drifts with several variables
    vanish wherever one factor does.
    """
    pts = _lattice(symbol.domain, symbol.dim)
    vals = np.asarray(symbol(pts), dtype=float)
    if np.max(vals) > _ZERO_TOL:
        if strict:
            raise ValueError(
                f"{symbol.kind} symbol is positive somewhere on the sampled lattice"
            )
        return False
    at_root = float(np.asarray(symbol(symbol.root if symbol.dim > 1 else symbol.root[0])))
    if abs(at_root) > _ZERO_TOL:
        if strict:
            raise ValueError(f"{symbol.kind} symbol does not vanish at its root")
        return False
    lo, hi = symbol.domain
    if symbol.dim == 1:
        spacing = (hi[0] - lo[0]) / (len(pts) - 1)
        off = np.abs(pts - symbol.root[0]) > 2 * spacing
    else:
        spacing = np.max(hi - lo) / 20.0
        off = np.min(np.abs(pts - symbol.root), axis=-1) > spacing
    if np.any(vals[off] >= 0.0):
        if strict:
            raise ValueError(
                f"{symbol.kind} symbol vanishes away from its admissible zero set"
            )
        return False
    return True


class ToolAlpha(Symbol):
    """f(x) = -|x - root|**alpha on an interval around the root."""

    kind = "tool_alpha"
    fields = ("alpha", "root", "domain")

    def __init__(self, alpha: float, root: float = 0.0, domain=None):
        self.alpha = as_positive(alpha, "alpha")
        self.dim = 1
        self.root = _as_point(root, 1)
        self.domain = _as_box(domain, self.root - 1.0, self.root + 1.0, 1)
        self.sign_ok = True

    def __call__(self, x):
        arr = self._coerce(x)
        return -np.abs(arr - self.root[0]) ** self.alpha

    def offset_value(self, z, y):
        return -np.abs((z - self.root[0]) + y) ** self.alpha

    def root_scale(self, q: float) -> float:
        return power(float(q), 1.0 / self.alpha)

    def to_dict(self) -> dict:
        lo, hi = (float(v[0]) for v in self.domain)
        return {**super().to_dict(), "root": float(self.root[0]), "domain": [lo, hi]}

    def __repr__(self):
        return f"ToolAlpha(alpha={self.alpha}, root={self.root[0]})"


class Polynomial(Symbol):
    """f(x) = -sum_j a_j (x - root)**j for a multi-index coefficient map.

    Coefficients are real; the constructor samples the domain and
    rejects maps that go positive or fail to vanish at the root.
    """

    kind = "polynomial"
    fields = ("coeffs", "root", "domain")

    def __init__(self, coeffs: Mapping, root=None, domain=None):
        terms = as_coefficient_map(coeffs)
        self.dim = len(next(iter(terms)))
        if all(a == 0.0 for a in terms.values()):
            raise ValueError("coefficient map has no nonzero entries")
        if any(sum(j) == 0 for j in terms):
            raise ValueError("constant terms are not allowed, f must vanish at the root")
        self.coeffs = dict(sorted(terms.items()))
        self.root = _as_point(root if root is not None else np.zeros(self.dim), self.dim)
        self.domain = _as_box(domain, self.root, self.root + 1.0, self.dim)
        self.sign_ok = _check_sign(self, strict=True)

    def __call__(self, x):
        arr = self._coerce(x)
        if self.dim == 1:
            return self._terms([arr - self.root[0]], arr.shape)
        shifted = arr - self.root
        return self._terms([shifted[..., d] for d in range(self.dim)], arr.shape[:-1])

    def on_grid(self, axes) -> np.ndarray:
        # each monomial is an outer product of per-axis powers; _terms makes
        # the products it makes for __call__, so the values match bit for bit
        along = lambda d: [-1 if k == d else 1 for k in range(self.dim)]
        shifted = [(np.asarray(a, dtype=float) - r).reshape(along(d))
                   for d, (a, r) in enumerate(zip(axes, self.root, strict=True))]
        return self._terms(shifted, tuple(s.size for s in shifted))

    def _terms(self, shifted, shape) -> np.ndarray:
        """-sum_j a_j prod_d shifted[d]**j_d on ``shape``, one fixed order of products."""
        total = np.zeros(shape)
        for j, a in self.coeffs.items():
            if not a:
                continue
            term = a
            for s, e in zip(shifted, j):
                if e:
                    term = term * s**e
            total = total + term
        return -total

    def offset_value(self, z, y):
        # at the root z - root is 0 and this is the exact shift -sum_j a_j y**j
        shifted = (z - self.root[0]) + y
        return self._terms([shifted], shifted.shape)

    def root_scale(self, q: float) -> float:
        degrees = [sum(j) for j, a in self.coeffs.items() if a]
        amax = max(abs(a) for a in self.coeffs.values())
        return (float(q) / amax) ** (1.0 / min(degrees))

    def to_dict(self) -> dict:
        coeffs = [{"index": list(j), "coeff": a} for j, a in self.coeffs.items()]
        return {**super().to_dict(), "coeffs": coeffs}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Polynomial":
        coeffs = {tuple(entry["index"]): entry["coeff"] for entry in data["coeffs"]}
        return super().from_dict({**data, "coeffs": coeffs})

    def __repr__(self):
        return f"Polynomial({self.coeffs})"


class Piecewise(Symbol):
    """Two one-sided symbols glued at a shared root (one dimension).

    ``left`` applies for x < root and ``right`` for x >= root, so the
    local order of contact may differ between the sides.
    """

    kind = "piecewise"
    fields = ("left", "right")

    def __init__(self, left: Symbol, right: Symbol):
        if left.dim != 1 or right.dim != 1:
            raise ValueError("piecewise symbols are one-dimensional")
        if abs(left.root[0] - right.root[0]) > _ZERO_TOL:
            raise ValueError("both sides must share the same root")
        self.left = left
        self.right = right
        self.dim = 1
        self.root = left.root.copy()
        self.domain = (left.domain[0].copy(), right.domain[1].copy())
        self.sign_ok = left.sign_ok and right.sign_ok

    def __call__(self, x):
        arr = self._coerce(x)
        return np.where(arr < self.root[0], self.left(arr), self.right(arr))

    def root_scale(self, q: float) -> float:
        return min(self.left.root_scale(q), self.right.root_scale(q))

    @classmethod
    def from_dict(cls, data: Mapping) -> "Piecewise":
        return cls(Symbol.build(data["left"]), Symbol.build(data["right"]))

    def __repr__(self):
        return f"Piecewise(left={self.left!r}, right={self.right!r})"


class Radial2D(Symbol):
    """f(x) = -(x1**2 + x2**2)**(exponent/2), radially symmetric in the plane."""

    kind = "radial2d"
    fields = ("exponent", "domain")

    def __init__(self, exponent: float = 2.0, domain=None):
        self.exponent = as_positive(exponent, "exponent")
        self.dim = 2
        self.root = np.zeros(2)
        self.domain = _as_box(domain, -np.ones(2), np.ones(2), 2)
        self.sign_ok = True

    def __call__(self, x):
        arr = self._coerce(x)
        r2 = arr[..., 0] ** 2 + arr[..., 1] ** 2
        return -(r2 ** (self.exponent / 2.0))

    def root_scale(self, q: float) -> float:
        return power(float(q), 1.0 / self.exponent)

    def __repr__(self):
        return f"Radial2D(exponent={self.exponent})"


class Zero(Symbol):
    """f identically zero.

    A degenerate study case: the drift reduces to the constant p, every
    point of the domain is marginal, and the strict stability check is
    impossible, so ``sign_ok`` is always False.
    """

    kind = "zero"
    fields = ("dim", "domain")

    def __init__(self, dim: int = 1, domain=None):
        self.dim = int(as_finite(dim, "dim"))
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        self.root = np.zeros(self.dim)
        self.domain = _as_box(domain, np.zeros(self.dim), np.ones(self.dim), self.dim)
        self.sign_ok = False

    def __call__(self, x):
        arr = self._coerce(x)
        shape = arr.shape if self.dim == 1 else arr.shape[:-1]
        return np.zeros(shape)

    def root_scale(self, q: float) -> float:
        return math.inf

    def zeros_in(self, lo: float, hi: float) -> tuple[float, ...]:
        return ()

    def __repr__(self):
        return f"Zero(dim={self.dim})"


class PowerWavenumber(ToolAlpha):
    """Fourier multiplier f(k) = -k**(2m) of the operator -(-Laplace)**m.

    The tool family with alpha = 2m at the origin on [-3, 3], stored by m.
    """

    kind = "power2m"
    fields = ("m",)
    to_dict = Registered.to_dict

    def __init__(self, m: int = 1):
        m = int(as_finite(m, "m"))
        if m < 1:
            raise ValueError("m must be a positive integer")
        self.m = m
        super().__init__(2.0 * m, 0.0, (-3.0, 3.0))

    def __repr__(self):
        return f"PowerWavenumber(m={self.m})"


class SwiftHohenberg1D(Symbol):
    """Fourier multiplier f(k) = -(1 - k**2)**2, vanishing at k = +-1."""

    kind = "swift_hohenberg_1d"
    fields = ()

    def __init__(self):
        self.dim = 1
        self.root = np.zeros(1)
        self.domain = _as_box(None, -3.0, 3.0, 1)
        self.sign_ok = True

    def __call__(self, x):
        arr = self._coerce(x)
        return -((1.0 - arr**2) ** 2)

    def offset_value(self, z, y):
        # 1 - (z + y)**2 = (1 - z) (1 + z) - y (2 z + y), whose first term is 0 at z = +-1
        return -(((1.0 - z) * (1.0 + z) - y * (2.0 * z + y)) ** 2)

    def root_scale(self, q: float) -> float:
        return math.sqrt(float(q)) / 2.0

    def zeros_in(self, lo: float, hi: float) -> tuple[float, ...]:
        return tuple(z for z in (-1.0, 1.0) if lo <= z <= hi)

    def __repr__(self):
        return "SwiftHohenberg1D()"


class SwiftHohenberg2D(Symbol):
    """Fourier multiplier f(k) = -(1 - |k|**2)**2, vanishing on |k| = 1."""

    kind = "swift_hohenberg_2d"
    fields = ()

    def __init__(self):
        self.dim = 2
        self.root = np.zeros(2)
        self.domain = _as_box(None, (-3.0, -3.0), (3.0, 3.0), 2)
        self.sign_ok = True

    def __call__(self, x):
        arr = self._coerce(x)
        r2 = arr[..., 0] ** 2 + arr[..., 1] ** 2
        return -((1.0 - r2) ** 2)

    def __repr__(self):
        return "SwiftHohenberg2D()"


class ConvolutionKernel(Symbol):
    """Fourier multiplier of convolution with a sampled kernel.

    The kernel values are assumed to sample f on a uniform grid with the
    given spacing.  The multiplier is the discrete Fourier transform of
    the samples scaled by the spacing, which approximates the continuum
    transform integral; its real part is kept, since only the real part
    of the spectrum controls the stationary variance.  The overall
    constant therefore follows the non-unitary integral convention, and
    evaluation between the transform's frequency nodes is linear
    interpolation, so accuracy is limited by the sample resolution.
    """

    kind = "convolution"
    fields = ("samples", "spacing")

    def __init__(self, samples, spacing: float):
        samples = np.atleast_1d(as_finite(samples, "kernel samples"))
        if samples.ndim != 1 or samples.size < 4:
            raise ValueError("kernel samples must be a vector with at least 4 entries")
        spacing = as_positive(spacing, "spacing")
        self.samples = samples
        self.spacing = spacing
        transform = np.fft.fft(samples) * spacing
        freqs = 2.0 * np.pi * np.fft.fftfreq(samples.size, d=spacing)
        order = np.argsort(freqs)
        self.freq_grid = freqs[order]
        self.multiplier = transform.real[order]
        self.dim = 1
        self.root = np.zeros(1)
        self.domain = _as_box(None, self.freq_grid[0], self.freq_grid[-1], 1)
        self.sign_ok = bool(np.max(self.multiplier) <= _ZERO_TOL)

    def __call__(self, x):
        arr = self._coerce(x)
        return np.interp(arr, self.freq_grid, self.multiplier)

    def zeros_in(self, lo: float, hi: float) -> tuple[float, ...]:
        scale = _ZERO_TOL * max(1.0, float(np.max(np.abs(self.multiplier))))
        found = []
        sel = (self.freq_grid >= lo) & (self.freq_grid <= hi)
        for k in self.freq_grid[sel][np.abs(self.multiplier[sel]) <= scale]:
            found.append(float(k))
        # Sign changes between adjacent samples locate off-grid zeros of the
        # interpolated multiplier; bisect each bracketing interval.
        vals = self.multiplier
        for i in range(self.freq_grid.size - 1):
            a, b = self.freq_grid[i], self.freq_grid[i + 1]
            if b < lo or a > hi:
                continue
            fa, fb = vals[i], vals[i + 1]
            if abs(fa) <= scale or abs(fb) <= scale or fa * fb > 0:
                continue
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = float(np.interp(mid, self.freq_grid, vals))
                if fa * fm <= 0:
                    b, fb = mid, fm
                else:
                    a, fa = mid, fm
            root = 0.5 * (a + b)
            if lo <= root <= hi:
                found.append(float(root))
        return tuple(sorted(found))

    def __repr__(self):
        return f"ConvolutionKernel(n={self.samples.size}, spacing={self.spacing})"


FREQUENCY_KINDS = (PowerWavenumber, SwiftHohenberg1D, SwiftHohenberg2D, ConvolutionKernel)


class CustomSymbol(Symbol):
    """Wrapper around an arbitrary real-valued callable.

    Used by :func:`real_part_symbol`; carries no serialized form.  The
    stability check is sampled and recorded in ``sign_ok`` instead of
    raising, so degenerate inputs stay inspectable.  ``offset_value`` forms
    z + y: the quadrature resolves no layer narrower than the ulps of z.
    """

    kind = "custom"

    def __init__(self, fn: Callable, dim: int = 1, root=None, domain=None):
        self.fn = fn
        self.dim = int(dim)
        self.root = _as_point(root if root is not None else np.zeros(self.dim), self.dim)
        self.domain = _as_box(domain, self.root - 1.0, self.root + 1.0, self.dim)
        self.sign_ok = _check_sign(self, strict=False)

    def __call__(self, x):
        arr = self._coerce(x)
        try:
            out = np.asarray(self.fn(arr), dtype=float)
        except (TypeError, ValueError):
            out = np.vectorize(lambda v: float(self.fn(v)))(arr)
        expected = arr.shape if self.dim == 1 else arr.shape[:-1]
        if out.shape != expected:
            raise ValueError("callable did not evaluate elementwise over the points")
        return out

    def __repr__(self):
        return f"CustomSymbol(dim={self.dim})"


def real_part_symbol(fn: Callable, dim: int = 1, root=None, domain=None) -> Symbol:
    """Reduce a complex-spectrum drift to the real part that drives variance.

    The imaginary part of the drift only rotates phases and drops out of
    the stationary variance, so the returned symbol evaluates Re f.  A
    real part that vanishes identically on the sampled domain collapses
    to the degenerate :class:`Zero` symbol, which carries
    ``sign_ok=False``; other sign violations are likewise flagged rather
    than raised.
    """
    symbol = CustomSymbol(lambda x: np.real(fn(x)), dim, root, domain)
    if np.max(np.abs(symbol(_lattice(symbol.domain, symbol.dim)))) <= _ZERO_TOL:
        return Zero(symbol.dim, domain=symbol.domain)
    return symbol


def minimal_support(coeffs: Mapping) -> frozenset[MultiIndex]:
    """Componentwise-minimal multi-indices among the nonzero coefficients.

    A multi-index j belongs to the result exactly when no other stored
    multi-index d with a nonzero coefficient satisfies d <= j in every
    component.  The scan sorts by total degree so one forward pass
    suffices: a dominator always has total degree at most that of the
    dominated index, and equal-degree indices never dominate each other.
    """
    entries = [j for j, a in as_coefficient_map(coeffs).items() if a != 0.0]
    if not entries:
        raise ValueError("coefficient map has no nonzero entries")
    entries.sort(key=lambda j: (sum(j), j))
    minima: list[MultiIndex] = []
    for j in entries:
        if not any(all(md <= jd for md, jd in zip(m, j)) for m in minima):
            minima.append(j)
    return frozenset(minima)
