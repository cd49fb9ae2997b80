"""Drift symbol construction, evaluation, stability checks, serialization."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewslab.symbols import (
    ConvolutionKernel,
    CustomSymbol,
    Piecewise,
    Polynomial,
    PowerWavenumber,
    Radial2D,
    SwiftHohenberg1D,
    SwiftHohenberg2D,
    Symbol,
    ToolAlpha,
    Zero,
    as_finite,
    as_multi_index,
    as_positive,
    law_1d,
    minimal_support,
    predicts_convergence,
    real_part_symbol,
    split_square,
)
from ewslab.quadrature import (
    Disc,
    IndicatorBox,
    PowerIndicator,
    QuarterDisc,
    VarianceQuery,
    appendix_c_integral,
    monomial_integral,
    route_of,
    variance_quadrature,
    variance_values,
)
from ewslab.simulate import Mesh, SimConfig


def test_as_multi_index_accepts_bare_int_and_tuples():
    assert as_multi_index(3) == (3,)
    assert as_multi_index((1, 2)) == (1, 2)
    with pytest.raises(ValueError):
        as_multi_index((1, -2))
    with pytest.raises(ValueError):
        as_multi_index((1.5,))


def test_as_positive_is_a_finite_float_above_0():
    assert as_positive(2, "x") == 2.0 and type(as_positive(2, "x")) is float
    assert as_positive(np.float32(0.5), "x") == 0.5
    assert as_positive(5e-324, "x") == 5e-324
    for bad in (0.0, -0.0, -1.0, [1.0, 2.0]):
        with pytest.raises(ValueError, match="x must be positive"):
            as_positive(bad, "x")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x must be finite"):
            as_positive(bad, "x")


def _as_finite_by_array(value, name):
    # the array route every value took before scalars got their own
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr if arr.ndim else float(arr)


@pytest.mark.parametrize("value", [
    2, -3, True, 0.25, -0.0, 5e-324, np.float64(1.5), np.float32(0.1), np.float16(-2.0),
    np.int64(7), np.array(4.0), [1.0, 2], (3,), math.nan, math.inf, -math.inf,
    np.float32(math.inf), np.float64(math.nan), [1.0, math.nan], 10 ** 400])
def test_as_finite_scalars_take_the_array_route_result(value):
    try:
        want = _as_finite_by_array(value, "x")
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)) as got:
            as_finite(value, "x")
        assert str(got.value) == str(exc)
        return
    got = as_finite(value, "x")
    assert type(got) is type(want)
    np.testing.assert_array_equal(got, want)
    assert np.signbit(got).tolist() == np.signbit(want).tolist()


def _positive_parameters():
    mesh, g = Mesh(1.0, 9), IndicatorBox(-0.5, 0.5)
    return {
        "alpha": [ToolAlpha, law_1d],
        "exponent": [Radial2D],
        "spacing": [lambda v: ConvolutionKernel(np.zeros(8), v)],
        "eps": [IndicatorBox.cube, lambda v: PowerIndicator(0.25, v),
                lambda v: monomial_integral((1, 2), v, 1e-3)],
        "radius": [Disc, QuarterDisc],
        "sigma": [lambda v: VarianceQuery(ToolAlpha(2.0), g, -1.0, v),
                  lambda v: SimConfig(ToolAlpha(2.0), g, -0.5, mesh, 0.01, 100, sigma=v)],
        "half_width": [lambda v: Mesh(v, 9)],
        "dt": [lambda v: SimConfig(ToolAlpha(2.0), g, -0.5, mesh, v, 100)],
        "q": [lambda v: monomial_integral((1, 2), 1.0, v), lambda v: appendix_c_integral(1, v)],
    }


@pytest.mark.parametrize("name", sorted(_positive_parameters()))
def test_every_positive_parameter_is_checked_by_as_positive(name):
    for build in _positive_parameters()[name]:
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                build(bad)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                build(bad)


def test_tool_alpha_evaluates_minus_abs_power():
    f = ToolAlpha(2.0)
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(f(x), -np.abs(x) ** 2)
    assert f(0.0) == 0.0
    assert f.dim == 1


def test_tool_alpha_rejects_bad_exponent():
    with pytest.raises(ValueError):
        ToolAlpha(0.0)
    with pytest.raises(ValueError):
        ToolAlpha(-1.0)


def test_tool_alpha_root_scale_is_boundary_layer_width():
    f = ToolAlpha(2.0)
    assert math.isclose(f.root_scale(1e-4), 1e-2)
    f = ToolAlpha(0.5)
    assert math.isclose(f.root_scale(1e-4), 1e-8)


def test_tool_alpha_shifted_root():
    f = ToolAlpha(1.0, root=0.25)
    assert f(0.25) == 0.0
    assert f(1.25) == -1.0
    assert f.zeros_in(0.0, 1.0) == (0.25,)


def test_polynomial_matches_manual_sum():
    f = Polynomial({(2, 0): 1.0, (0, 2): 1.0, (1, 1): 0.5})
    pts = np.array([[0.5, 0.25], [1.0, 1.0]])
    want = -(pts[:, 0] ** 2 + pts[:, 1] ** 2 + 0.5 * pts[:, 0] * pts[:, 1])
    np.testing.assert_allclose(f(pts), want)


def _grid_cases(dim):
    # no constant index; the all-ones index gets a zero coefficient in the test
    index = st.tuples(*[st.integers(0, 4)] * dim).filter(lambda j: any(j) and set(j) != {1})
    return st.tuples(
        st.dictionaries(index, st.floats(0.1, 10.0), min_size=1, max_size=5),
        st.tuples(*[st.floats(-1.0, 1.0)] * dim),
        st.tuples(*[st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6)] * dim),
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 3).flatmap(_grid_cases))
def test_polynomial_on_grid_is_call_on_the_meshgrid_bitwise(case):
    coeffs, root, axes = case
    coeffs = {**coeffs, (1,) * len(root): 0.0}
    f = Polynomial(coeffs, root=root)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    grid = f.on_grid([np.array(a) for a in axes])
    assert grid.shape == tuple(len(a) for a in axes)
    assert np.array_equal(grid, f(pts))
    # the pointwise loop, in sorted index order, as the reference
    shifted = pts - np.asarray(root)
    want = np.zeros(grid.shape)
    for j, a in sorted(coeffs.items()):
        if a:
            term = np.full(grid.shape, a)
            for d, e in enumerate(j):
                if e:
                    term = term * shifted[..., d] ** e
            want = want + term
    assert np.array_equal(grid, -want)


def test_base_on_grid_evaluates_the_meshgrid():
    f = Radial2D(3.0)
    x, y = np.array([0.0, 0.5, -1.0]), np.array([0.25, 2.0])
    pts = np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1)
    assert np.array_equal(f.on_grid([x, y]), f(pts))
    assert np.array_equal(Zero(3).on_grid([x, y, x]), np.zeros((3, 2, 3)))


def test_polynomial_rejects_degenerate_maps():
    with pytest.raises(ValueError):
        Polynomial({})
    with pytest.raises(ValueError):
        Polynomial({(0, 0): 1.0})
    with pytest.raises(ValueError):
        Polynomial({(1,): 1.0, (1, 1): 1.0})


def test_polynomial_rejects_sign_violation():
    # a negative coefficient makes -f negative somewhere inside the corner
    with pytest.raises(ValueError):
        Polynomial({(2,): 1.0, (1,): -3.0})


def test_polynomial_root_scale_uses_least_total_degree():
    f = Polynomial({(1, 2): 2.0, (4, 4): 1.0})
    # least total degree 3, largest coefficient max 2
    assert math.isclose(f.root_scale(1e-6), (1e-6 / 2.0) ** (1.0 / 3.0))


def test_piecewise_switches_at_root():
    f = Piecewise(ToolAlpha(1.0), ToolAlpha(2.0))
    x = np.array([-0.5, 0.0, 0.5])
    np.testing.assert_allclose(f(x), [-0.5, 0.0, -0.25])


def test_radial2d_is_rotation_invariant():
    f = Radial2D(3.0)
    a = f(np.array([[0.3, 0.4]]))
    b = f(np.array([[0.5, 0.0]]))
    np.testing.assert_allclose(a, b)
    np.testing.assert_allclose(a, [-0.5 ** 3])


def test_zero_symbol_flags_marginal_stability():
    f = Zero(2)
    assert f.root_scale(1e-8) == math.inf
    assert f.zeros_in(-1.0, 1.0) == ()
    np.testing.assert_array_equal(f(np.zeros((4, 2))), np.zeros(4))


def test_power_wavenumber_equals_even_power():
    f = PowerWavenumber(2)
    k = np.array([-1.5, 0.0, 0.5])
    np.testing.assert_allclose(f(k), -(k ** 4))
    assert f.alpha == 4.0
    # the tool family at alpha = 2m, bit for bit, stored by m
    x = np.random.default_rng(0).uniform(-3.0, 3.0, 10_000)
    for m in range(1, 5):
        f, tool = PowerWavenumber(m), ToolAlpha(2 * m, 0.0)
        assert isinstance(f, ToolAlpha)
        np.testing.assert_array_equal(f(x), tool(x))
        assert f.alpha == tool.alpha and f.root_scale(1e-6) == tool.root_scale(1e-6)
        assert f.to_dict() == {"kind": "power2m", "m": m}


def test_swift_hohenberg_1d_values_and_zeros():
    f = SwiftHohenberg1D()
    assert f(np.array([1.0]))[0] == 0.0
    assert f(np.array([-1.0]))[0] == 0.0
    assert f(np.array([0.0]))[0] == -1.0
    assert f.zeros_in(-2.0, 2.0) == (-1.0, 1.0)
    assert f.zeros_in(0.0, 2.0) == (1.0,)


def test_swift_hohenberg_2d_vanishes_on_unit_circle():
    f = SwiftHohenberg2D()
    theta = np.linspace(0.0, 2 * math.pi, 7)
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    np.testing.assert_allclose(f(ring), np.zeros(7), atol=1e-14)
    assert f(np.array([[0.0, 0.0]]))[0] == -1.0


def test_convolution_kernel_flat_multiplier():
    # a discrete delta of weight -1 transforms to the constant -1
    n, dx = 64, 0.5
    samples = np.zeros(n)
    samples[0] = -1.0 / dx
    f = ConvolutionKernel(samples, dx)
    k = np.linspace(-2.0, 2.0, 9)
    np.testing.assert_allclose(f(k), -np.ones(9), atol=1e-12)
    assert f.zeros_in(-2.0, 2.0) == ()


def test_convolution_kernel_locates_sign_change_zeros():
    n, dx = 128, 0.25
    k = 2 * math.pi * np.fft.fftfreq(n, d=dx)
    samples = np.real(np.fft.ifft(-(k ** 2 - 1.0))) / dx
    f = ConvolutionKernel(samples, dx)
    zeros = f.zeros_in(-3.0, 3.0)
    assert len(zeros) == 2
    assert zeros[0] == -zeros[1]
    # the linear root sits on the interpolated multiplier's zero
    assert abs(float(f(np.array([zeros[1]]))[0])) < 1e-15


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=40), st.floats(0.05, 2.0),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_kernel_zeros_are_the_roots_of_the_interpolant(samples, spacing, a, b):
    # one zero per sign-changing segment inside [lo, hi], each within a few ulps of
    # the exact root of the segment's line, and the near-zero nodes themselves
    f = ConvolutionKernel(samples, spacing)
    k, m = f.freq_grid.tolist(), f.multiplier.tolist()
    lo, hi = sorted(k[0] + (k[-1] - k[0]) * t for t in (a, b))
    scale = 1e-12 * max(1.0, max(map(abs, m)))
    want = [(Fraction(x), 0.0) for x, y in zip(k, m) if lo <= x <= hi and abs(y) <= scale]
    for k0, k1, f0, f1 in zip(k, k[1:], m, m[1:]):
        if min(abs(f0), abs(f1)) > scale and (f0 < 0) != (f1 < 0):
            k0, k1, f0, f1 = map(Fraction, (k0, k1, f0, f1))
            root = k0 + (k1 - k0) * f0 / (f0 - f1)
            if lo <= root <= hi:
                want.append((root, 4 * math.ulp(float(max(abs(k0), abs(k1))))))
    got = f.zeros_in(lo, hi)
    assert len(got) == len(want)
    for z, (root, tol) in zip(got, sorted(want)):
        assert abs(Fraction(z) - root) <= tol


def test_convolution_kernel_input_validation():
    with pytest.raises(ValueError):
        ConvolutionKernel([1.0, 2.0], 0.5)
    with pytest.raises(ValueError):
        ConvolutionKernel(np.zeros(8), 0.0)


def test_real_part_passthrough_and_zero_collapse():
    f = real_part_symbol(lambda x: -x ** 2, dim=1)
    np.testing.assert_allclose(f(np.array([2.0])), [-4.0])
    g = real_part_symbol(lambda x: 1j * x, dim=1)
    assert isinstance(g, Zero)


def test_real_part_symbol_samples_an_explicit_domain():
    f = real_part_symbol(lambda x: -x ** 2 + 0.5j * x, dim=1, root=0.5, domain=(0.5, 2.0))
    assert isinstance(f, CustomSymbol)
    assert f.root.tolist() == [0.5]
    np.testing.assert_array_equal(f(np.array([1.0, 2.0])), [-1.0, -4.0])
    # the zero collapse samples the box it is given, root - 1 to root + 1 without one:
    # Re f = min(x - 0.5, 0) vanishes on [0.5, 2] and not on [-0.5, 1.5]
    seen = []

    def fn(x):
        seen.append(np.asarray(x))
        return np.minimum(x - 0.5, 0.0) + 0.5j * x

    assert isinstance(real_part_symbol(fn, dim=1, root=0.5), CustomSymbol)
    assert (seen[0].min(), seen[0].max()) == (-0.5, 1.5)
    assert isinstance(real_part_symbol(fn, dim=1, root=0.5, domain=(0.5, 2.0)), Zero)
    assert (seen[1].min(), seen[1].max()) == (0.5, 2.0)
    # and keeps the dimension
    re_x = lambda x: np.minimum(x[..., 0], 0.0) + 1j * x[..., 1]
    assert isinstance(real_part_symbol(re_x, dim=2), CustomSymbol)
    z = real_part_symbol(re_x, dim=2, domain=((0.0, 0.0), (2.0, 3.0)))
    assert isinstance(z, Zero) and z.dim == 2
    with pytest.raises(ValueError, match="positive extent"):
        real_part_symbol(lambda x: -x ** 2, domain=(1.0, 1.0))


def test_real_part_symbol_of_a_scalar_only_callable():
    # complex() refuses arrays, so every point is evaluated on its own
    f = real_part_symbol(lambda x: complex(-x * x, x), dim=1)
    assert isinstance(f, CustomSymbol)
    np.testing.assert_array_equal(f(np.array([0.5, -2.0])), [-0.25, -4.0])
    assert float(f(3.0)) == -9.0
    z = real_part_symbol(lambda x: complex(0.0, x), dim=1)
    assert isinstance(z, Zero)


def test_custom_symbol_shape_check():
    f = CustomSymbol(lambda x: -np.abs(x), dim=1)
    np.testing.assert_allclose(f(np.array([1.0, -2.0])), [-1.0, -2.0])
    # a callable that ignores its input is refused where it is evaluated, not when
    # it is built; the zero collapse of real_part_symbol evaluates it when built
    bad = lambda x: np.zeros(3)
    f = CustomSymbol(bad, dim=1)
    with pytest.raises(ValueError, match="did not evaluate elementwise"):
        f(np.array([1.0, -2.0]))
    with pytest.raises(ValueError, match="did not evaluate elementwise"):
        variance_quadrature(VarianceQuery(f, IndicatorBox(-1.0, 1.0), -1e-2))
    with pytest.raises(ValueError, match="did not evaluate elementwise"):
        real_part_symbol(bad, dim=1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_custom_symbol_is_built_without_calling_its_callable(dim):
    calls = []

    def fn(x):
        calls.append(np.shape(x))
        return -np.sum(x ** 2, axis=-1) if dim > 1 else -x ** 2

    f = CustomSymbol(fn, dim=dim)
    assert calls == []
    points = np.zeros((4, dim)) if dim > 1 else np.zeros(4)
    np.testing.assert_array_equal(f(points), np.zeros(4))
    assert calls == [points.shape]


def test_symbol_call_checks_dimension():
    f = Polynomial({(1, 1): 1.0})
    with pytest.raises(ValueError):
        f(np.zeros((3,)))


def test_minimal_support_drops_dominated_indices():
    coeffs = {(1, 0): 1.0, (0, 1): 1.0, (1, 1): 5.0, (2, 3): 2.0}
    assert minimal_support(coeffs) == frozenset({(1, 0), (0, 1)})


def test_minimal_support_keeps_incomparable_indices():
    coeffs = {(2, 0): 1.0, (0, 3): 1.0}
    assert minimal_support(coeffs) == frozenset({(2, 0), (0, 3)})


def _brute_minimal(indices):
    out = set()
    for a in indices:
        dominated = any(
            b != a and all(bi <= ai for bi, ai in zip(b, a))
            for b in indices
        )
        if not dominated:
            out.add(a)
    return frozenset(out)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        st.floats(0.1, 10.0),
        min_size=1,
        max_size=8,
    )
)
def test_minimal_support_matches_brute_force(coeffs):
    assert minimal_support(coeffs) == _brute_minimal(set(coeffs))


def test_predicts_convergence_needs_two_distinct_unit_directions():
    assert predicts_convergence({(1, 0): 1.0, (0, 1): 2.0})
    assert not predicts_convergence({(1, 0): 1.0, (2, 0): 1.0})
    assert not predicts_convergence({(1, 0): 1.0, (0, 1): 0.0})
    assert predicts_convergence({(1, 0, 0): 1.0, (0, 0, 1): 1.0, (0, 2, 0): 4.0})
    with pytest.raises(ValueError):
        predicts_convergence({(1,): 1.0})


@pytest.mark.parametrize(
    "symbol",
    [
        ToolAlpha(2.5, root=0.5),
        Polynomial({(1, 2): 2.0, (3, 0): 1.0}),
        Piecewise(ToolAlpha(1.0), ToolAlpha(3.0)),
        Radial2D(2.0),
        Zero(3),
        PowerWavenumber(2),
        SwiftHohenberg1D(),
        SwiftHohenberg2D(),
        ConvolutionKernel(np.linspace(-1.0, -2.0, 16), 0.5),
    ],
)
def test_serialization_round_trip(symbol):
    clone = Symbol.build(symbol.to_dict())
    assert type(clone) is type(symbol)
    if symbol.dim == 1:
        pts = np.linspace(-0.9, 0.9, 7)
    else:
        pts = np.full((5, symbol.dim), 0.3)
    np.testing.assert_allclose(clone(pts), symbol(pts))


@pytest.mark.parametrize("symbol", [
    Polynomial({(2,): 1.0}, root=0.5, domain=(-1.0, 2.0)),
    Polynomial({(2, 0): 1.0, (0, 2): 1.0}, domain=((-2.0, -0.5), (3.0, 0.5))),
])
def test_custom_domain_survives_a_round_trip(symbol):
    # the polynomial's sign check samples its domain, so the stored form keeps it
    clone = Symbol.build(json.loads(json.dumps(symbol.to_dict())))
    for got, want in zip(clone.domain, symbol.domain):
        np.testing.assert_array_equal(got, want)


def test_dicts_stored_without_a_domain_load_the_default_domain():
    line = Symbol.build({"kind": "polynomial", "coeffs": [{"index": [2], "coeff": 1.0}],
                         "root": [0.5]})
    assert [v.tolist() for v in line.domain] == [[0.5], [1.5]]
    bowl = Symbol.build({"kind": "polynomial",
                         "coeffs": [{"index": [2, 0], "coeff": 1.0}, {"index": [0, 2], "coeff": 1.0}]})
    assert [v.tolist() for v in bowl.domain] == [[0.0, 0.0], [1.0, 1.0]]


def test_custom_symbol_has_no_serialized_form():
    f = CustomSymbol(lambda x: -np.abs(x), dim=1)
    with pytest.raises(TypeError):
        f.to_dict()


def test_symbol_build_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Symbol.build({"kind": "mystery"})


@pytest.mark.parametrize("data, message", [
    ([1, 2], "JSON object"),
    ({"kind": "polynomial", "coeffs": [{"index": [1, 1]}]}, "'coeff'"),
    ({"kind": "polynomial"}, "'coeffs'"),
    ({"kind": "piecewise", "left": {"kind": "tool_alpha", "alpha": 1.0}}, "'right'"),
])
def test_symbol_build_rejects_malformed_descriptions(data, message):
    with pytest.raises(ValueError, match=message):
        Symbol.build(data)


def test_registry_holds_the_serializable_kinds():
    assert Symbol.kinds == {
        "tool_alpha": ToolAlpha,
        "polynomial": Polynomial,
        "piecewise": Piecewise,
        "radial2d": Radial2D,
        "zero": Zero,
        "power2m": PowerWavenumber,
        "swift_hohenberg_1d": SwiftHohenberg1D,
        "swift_hohenberg_2d": SwiftHohenberg2D,
        "convolution": ConvolutionKernel,
    }


# The stored form of each kind, the format of poly:FILE.json files; the
# key order is part of it.
PINNED_DICTS = [
    (ToolAlpha(2.5, root=0.5), {"kind": "tool_alpha", "alpha": 2.5, "root": 0.5}),
    (Polynomial({(2, 0): 1.0, (0, 2): 0.5}),
     {"kind": "polynomial",
      "coeffs": [{"index": [0, 2], "coeff": 0.5}, {"index": [2, 0], "coeff": 1.0}],
      "root": [0.0, 0.0], "domain": [[0.0, 0.0], [1.0, 1.0]]}),
    (Piecewise(ToolAlpha(1.0), ToolAlpha(3.0)),
     {"kind": "piecewise",
      "left": {"kind": "tool_alpha", "alpha": 1.0, "root": 0.0},
      "right": {"kind": "tool_alpha", "alpha": 3.0, "root": 0.0}}),
    (Radial2D(3.0), {"kind": "radial2d", "exponent": 3.0}),
    (Zero(2), {"kind": "zero", "dim": 2}),
    (PowerWavenumber(2), {"kind": "power2m", "m": 2}),
    (SwiftHohenberg1D(), {"kind": "swift_hohenberg_1d"}),
    (SwiftHohenberg2D(), {"kind": "swift_hohenberg_2d"}),
    (ConvolutionKernel([-1.0, -2.0, -2.0, -1.0], 0.5),
     {"kind": "convolution", "samples": [-1.0, -2.0, -2.0, -1.0], "spacing": 0.5}),
]


def test_symbol_dicts_are_pinned():
    assert {type(s) for s, _ in PINNED_DICTS} == set(Symbol.kinds.values())
    for symbol, want in PINNED_DICTS:
        assert json.dumps(symbol.to_dict()) == json.dumps(want)


# Each kind of PINNED_DICTS as files written before tool_alpha, piecewise,
# radial2d and zero dropped their unread "domain" entry (custom domains
# included), with a window through which to compare the loaded and the
# fresh symbol.
_WRITTEN_WITH_A_DOMAIN = [
    ({"kind": "tool_alpha", "alpha": 2.5, "root": 0.5, "domain": [-0.5, 1.5]},
     ToolAlpha(2.5, root=0.5), IndicatorBox(-0.5, 1.0)),
    ({"kind": "tool_alpha", "alpha": 2.0, "root": 0.0, "domain": [-3.0, 0.25]},
     ToolAlpha(2.0), PowerIndicator(0.25, 1.0)),
    ({"kind": "polynomial",
      "coeffs": [{"index": [0, 2], "coeff": 0.5}, {"index": [2, 0], "coeff": 1.0}],
      "root": [0.0, 0.0], "domain": [[0.0, 0.0], [1.0, 1.0]]},
     Polynomial({(2, 0): 1.0, (0, 2): 0.5}), IndicatorBox((0.0, 0.0), (1.0, 1.0))),
    ({"kind": "piecewise",
      "left": {"kind": "tool_alpha", "alpha": 1.0, "root": 0.0, "domain": [-1.0, 1.0]},
      "right": {"kind": "tool_alpha", "alpha": 3.0, "root": 0.0, "domain": [-1.0, 1.0]}},
     Piecewise(ToolAlpha(1.0), ToolAlpha(3.0)), IndicatorBox(-1.0, 1.0)),
    ({"kind": "radial2d", "exponent": 3.0, "domain": [[-1.0, -1.0], [1.0, 1.0]]},
     Radial2D(3.0), Disc(1.5)),
    ({"kind": "radial2d", "exponent": 2.0, "domain": [[-2.0, -0.5], [3.0, 0.5]]},
     Radial2D(2.0), IndicatorBox((-0.5, 0.0), (1.0, 1.0))),
    ({"kind": "zero", "dim": 2, "domain": [[1.0, 2.0], [4.0, 3.0]]},
     Zero(2), IndicatorBox((0.0, 0.0), (1.0, 2.0))),
    ({"kind": "power2m", "m": 2}, PowerWavenumber(2), IndicatorBox(-1.0, 1.0)),
    ({"kind": "swift_hohenberg_1d"}, SwiftHohenberg1D(), IndicatorBox(-2.0, 2.0)),
    ({"kind": "swift_hohenberg_2d"}, SwiftHohenberg2D(), QuarterDisc(2.0)),
    ({"kind": "convolution", "samples": [-1.0, -2.0, -2.0, -1.0], "spacing": 0.5},
     ConvolutionKernel([-1.0, -2.0, -2.0, -1.0], 0.5), IndicatorBox(-1.0, 1.0)),
]


@pytest.mark.parametrize("data, fresh, g", _WRITTEN_WITH_A_DOMAIN,
                         ids=[data["kind"] for data, _, _ in _WRITTEN_WITH_A_DOMAIN])
def test_dicts_written_with_a_domain_still_load(data, fresh, g):
    assert {type(s) for _, s, _ in _WRITTEN_WITH_A_DOMAIN} == set(Symbol.kinds.values())
    loaded = Symbol.build(json.loads(json.dumps(data)))
    assert type(loaded) is type(fresh)
    assert json.dumps(loaded.to_dict()) == json.dumps(fresh.to_dict())
    pts = (np.linspace(-2.5, 2.5, 41) if fresh.dim == 1
           else np.stack(np.meshgrid(*[np.linspace(-2.5, 2.5, 9)] * 2), axis=-1))
    np.testing.assert_array_equal(loaded(pts), fresh(pts))
    assert route_of(loaded, g).name == route_of(fresh, g).name
    ps = [-1e-1, -1e-4, -1e-8]
    np.testing.assert_array_equal(variance_values(loaded, g, ps), variance_values(fresh, g, ps))


_finite = st.floats(-3.0, 3.0)
_positive = st.floats(0.1, 6.0)
_KIND_STRATEGIES = {
    "tool_alpha": st.builds(ToolAlpha, _positive, root=_finite),
    "polynomial": st.integers(1, 3).flatmap(lambda dim: st.builds(
        Polynomial,
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * dim).filter(any), _positive,
                        min_size=1, max_size=4),
        root=st.tuples(*[_finite] * dim))),
    "piecewise": st.builds(Piecewise, st.builds(ToolAlpha, _positive),
                           st.builds(ToolAlpha, _positive)),
    "radial2d": st.builds(Radial2D, _positive),
    "zero": st.builds(Zero, st.integers(1, 3)),
    "power2m": st.builds(PowerWavenumber, st.integers(1, 4)),
    "swift_hohenberg_1d": st.builds(SwiftHohenberg1D),
    "swift_hohenberg_2d": st.builds(SwiftHohenberg2D),
    "convolution": st.builds(ConvolutionKernel, st.lists(_finite, min_size=4, max_size=12),
                             _positive),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_KIND_STRATEGIES)).flatmap(lambda k: _KIND_STRATEGIES[k]))
def test_every_kind_survives_a_json_round_trip(symbol):
    assert set(_KIND_STRATEGIES) == set(Symbol.kinds)
    data = symbol.to_dict()
    clone = Symbol.build(json.loads(json.dumps(data)))
    assert type(clone) is type(symbol)
    assert json.dumps(clone.to_dict()) == json.dumps(data)


@pytest.mark.parametrize("build", [
    lambda: ToolAlpha(math.nan),
    lambda: ToolAlpha(2.0, root=math.inf),
    lambda: Polynomial({(2,): 1.0}, domain=(math.nan, 1.0)),
    lambda: Polynomial({(1,): math.nan}),
    lambda: Polynomial({(1, 1): 1.0}, root=(0.0, math.inf)),
    lambda: Radial2D(math.nan),
    lambda: real_part_symbol(lambda x: -np.abs(x[..., 0]), dim=2,
                             domain=((-1.0, -1.0), (1.0, math.inf))),
    lambda: Zero(math.inf),
    lambda: PowerWavenumber(math.inf),
    lambda: ConvolutionKernel([-1.0, math.nan, -1.0, -1.0], 0.5),
    lambda: ConvolutionKernel(np.full(8, -1.0), math.inf),
    lambda: CustomSymbol(lambda x: -np.abs(x), root=math.nan),
])
def test_constructors_reject_non_finite_input(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


@pytest.mark.parametrize("x, finite", [
    (1e-300, True), (0.75, True), (3.0, True), (1e154, True),
    (math.ldexp(1.0 - 2.0 ** -53, 512), True),  # the largest x whose square is a double
    (math.ldexp(1.0, 512), False), (1e155, False), (1e300, False)])
def test_split_square_is_the_square_where_it_is_a_double_and_split_past_it(x, finite):
    s, k = split_square(x)
    if finite:
        assert (s, k) == (x**2, 0)
    else:
        m, e = math.frexp(x)
        assert (s, k) == (m * m, 2 * e) and 0.25 <= s < 1.0
