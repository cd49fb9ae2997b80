"""Deterministic SVG rendering."""
import pytest

from ewslab.plotting import Series, render_loglog, sweep_series
from ewslab.scaling import SweepResult


def _demo_series():
    return Series((1e-4, 1e-3, 1e-2), (10.0, 3.0, 1.0),
                  yerr=(0.5, 0.1, 0.0), label="demo")


def test_series_validation():
    with pytest.raises(ValueError):
        Series((1.0, 2.0), (1.0,))
    with pytest.raises(ValueError):
        Series((0.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        Series((1.0, 2.0), (1.0, -1.0))
    with pytest.raises(ValueError):
        Series((1.0, 2.0), (1.0, 1.0), yerr=(0.1,))


def test_render_is_byte_deterministic():
    a = render_loglog([_demo_series()], title="t", annotations=["note"])
    b = render_loglog([_demo_series()], title="t", annotations=["note"])
    assert a == b
    assert a.startswith("<svg ")
    assert a.rstrip().endswith("</svg>")


def test_render_contains_expected_elements():
    text = render_loglog(
        [_demo_series()], title="growth",
        ref_slope=-0.5, ref_anchor=(1e-4, 10.0), ref_label="slope -1/2",
        annotations=["fitted slope -0.50 ± 0.01"],
    )
    assert "growth" in text
    assert ">-p</text>" in text and ">variance</text>" in text  # the fixed axis labels
    assert "polyline" in text
    assert "circle" in text
    assert "stroke-dasharray" in text  # the reference line
    assert "slope -1/2" in text
    assert "fitted slope -0.50" in text
    assert "1e-4" in text or "1e-3" in text  # decade tick labels
    assert "timestamp" not in text


def test_render_escapes_markup():
    s = Series((1.0,), (1.0,), label="a<b&c")
    text = render_loglog([s])
    assert "a&lt;b&amp;c" in text
    assert "a<b" not in text


def test_reference_line_needs_anchor():
    with pytest.raises(ValueError):
        render_loglog([_demo_series()], ref_slope=-0.5)
    with pytest.raises(ValueError):
        render_loglog([])


def test_sweep_series_negates_p():
    sweep = SweepResult((-1e-3, -1e-4), (1.0, 2.0), (0.1, 0.2), "simulation")
    s = sweep_series(sweep)
    assert s.x == (1e-3, 1e-4)
    assert s.label == "simulation"
    assert s.yerr == (0.1, 0.2)
    quiet = SweepResult((-1e-3, -1e-4), (1.0, 2.0))
    assert sweep_series(quiet).yerr is None
