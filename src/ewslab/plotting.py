"""Minimal SVG emitter for log-log figures.

The renderer is deliberately dependency free and deterministic: a fixed
viewport, a fixed palette, coordinates formatted to two decimals, and no
timestamps or randomized identifiers anywhere in the output.  Rendering
the same data twice yields byte-identical files, which keeps figures
diffable next to the CSVs they visualize.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Series", "render_loglog", "write_loglog", "sweep_series"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 640.0
_HEIGHT = 480.0
_MARGIN_LEFT = 72.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 44.0
_MARGIN_BOTTOM = 58.0

_XLABEL = "-p"
_YLABEL = "variance"


@dataclass(frozen=True)
class Series:
    """One plotted data set; ``x`` and ``y`` must be positive."""

    x: tuple
    y: tuple
    yerr: tuple | None = None
    label: str = ""
    line: bool = True
    markers: bool = True

    def __post_init__(self):
        x = tuple(float(v) for v in self.x)
        y = tuple(float(v) for v in self.y)
        if len(x) != len(y) or not x:
            raise ValueError("series needs matching, non-empty x and y")
        if any(v <= 0 for v in x) or any(v <= 0 for v in y):
            raise ValueError("log-log series requires strictly positive data")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.yerr is not None:
            err = tuple(float(v) for v in self.yerr)
            if len(err) != len(x) or any(v < 0 for v in err):
                raise ValueError("yerr must be non-negative and match the data length")
            object.__setattr__(self, "yerr", err)


def sweep_series(sweep, label: str = "", line: bool = True) -> Series:
    """Build a Series from a SweepResult, plotting against q = -p."""
    xs = tuple(-p for p in sweep.ps)
    err = tuple(sweep.stderrs) if any(e > 0 for e in sweep.stderrs) else None
    return Series(xs, tuple(sweep.values), yerr=err,
                  label=label or sweep.source, line=line)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _decade_ticks(lo: float, hi: float) -> list[float]:
    first = math.ceil(lo - 1e-9)
    last = math.floor(hi + 1e-9)
    ticks = [float(k) for k in range(first, last + 1)]
    if len(ticks) >= 2:
        return ticks
    span = hi - lo
    if span <= 0:
        return [lo - 0.5, lo + 0.5]
    return [lo, lo + span / 2.0, hi]


def _tick_label(t: float) -> str:
    if abs(t - round(t)) < 1e-9:
        return f"1e{int(round(t))}"
    return f"{10.0 ** t:.3g}"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def render_loglog(series: Sequence[Series], *, title: str = "",
                  ref_slope: float | None = None,
                  ref_anchor: tuple[float, float] | None = None,
                  ref_label: str = "",
                  annotations: Sequence[str] = ()) -> str:
    """Render the series to an SVG document string (log10 axes)."""
    series = list(series)
    if not series:
        raise ValueError("nothing to plot")

    xs = [math.log10(v) for s in series for v in s.x]
    ys = []
    for s in series:
        for i, v in enumerate(s.y):
            ys.append(math.log10(v))
            if s.yerr is not None and s.yerr[i] > 0:
                ys.append(math.log10(v + s.yerr[i]))
                low = v - s.yerr[i]
                if low > 0:
                    ys.append(math.log10(low))
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_pad = 0.04 * (x_hi - x_lo)
    y_pad = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(lx: float) -> float:
        return _MARGIN_LEFT + (lx - x_lo) / (x_hi - x_lo) * plot_w

    def py(ly: float) -> float:
        return _MARGIN_TOP + (y_hi - ly) / (y_hi - y_lo) * plot_h

    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" '
               'viewBox="0 0 640 480" font-family="Helvetica, Arial, sans-serif">')
    out.append('<rect x="0" y="0" width="640" height="480" fill="#ffffff"/>')
    if title:
        out.append(f'<text x="{_fmt(_WIDTH / 2)}" y="24" font-size="15" '
                   f'text-anchor="middle">{_escape(title)}</text>')

    for t in _decade_ticks(x_lo, x_hi):
        gx = px(t)
        out.append(f'<line x1="{_fmt(gx)}" y1="{_fmt(_MARGIN_TOP)}" x2="{_fmt(gx)}" '
                   f'y2="{_fmt(_MARGIN_TOP + plot_h)}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(gx)}" y="{_fmt(_MARGIN_TOP + plot_h + 18)}" '
                   f'font-size="11" text-anchor="middle">{_tick_label(t)}</text>')
    for t in _decade_ticks(y_lo, y_hi):
        gy = py(t)
        out.append(f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(gy)}" '
                   f'x2="{_fmt(_MARGIN_LEFT + plot_w)}" y2="{_fmt(gy)}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(_MARGIN_LEFT - 8)}" y="{_fmt(gy + 4)}" '
                   f'font-size="11" text-anchor="end">{_tick_label(t)}</text>')

    out.append(f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
               f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
               'fill="none" stroke="#333333" stroke-width="1"/>')
    out.append(f'<text x="{_fmt(_MARGIN_LEFT + plot_w / 2)}" y="{_fmt(_HEIGHT - 14)}" '
               f'font-size="13" text-anchor="middle">{_XLABEL}</text>')
    out.append(f'<text x="18" y="{_fmt(_MARGIN_TOP + plot_h / 2)}" font-size="13" '
               f'text-anchor="middle" transform="rotate(-90 18 '
               f'{_fmt(_MARGIN_TOP + plot_h / 2)})">{_YLABEL}</text>')

    if ref_slope is not None:
        if ref_anchor is None:
            raise ValueError("reference line needs an anchor point")
        ax, ay = math.log10(ref_anchor[0]), math.log10(ref_anchor[1])
        y_at_lo = ay + ref_slope * (x_lo - ax)
        y_at_hi = ay + ref_slope * (x_hi - ax)
        out.append(f'<line x1="{_fmt(px(x_lo))}" y1="{_fmt(py(y_at_lo))}" '
                   f'x2="{_fmt(px(x_hi))}" y2="{_fmt(py(y_at_hi))}" '
                   'stroke="#555555" stroke-width="1.5" stroke-dasharray="6,4"/>')
        if ref_label:
            out.append(f'<text x="{_fmt(px(x_lo) + 8)}" y="{_fmt(py(y_at_lo) - 6)}" '
                       f'font-size="11" fill="#555555">{_escape(ref_label)}</text>')

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = sorted(zip(s.x, s.y, s.yerr or (0.0,) * len(s.x)))
        if s.line and len(pts) > 1:
            path = " ".join(f"{_fmt(px(math.log10(x)))},{_fmt(py(math.log10(y)))}"
                            for x, y, _ in pts)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                       'stroke-width="1.5"/>')
        for x, y, err in pts:
            cx, cy = px(math.log10(x)), py(math.log10(y))
            if err > 0:
                top = py(math.log10(y + err))
                bot_val = y - err
                bot = py(math.log10(bot_val)) if bot_val > 0 else _MARGIN_TOP + plot_h
                out.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(top)}" x2="{_fmt(cx)}" '
                           f'y2="{_fmt(bot)}" stroke="{color}" stroke-width="1"/>')
                for yy in (top, bot):
                    out.append(f'<line x1="{_fmt(cx - 3)}" y1="{_fmt(yy)}" '
                               f'x2="{_fmt(cx + 3)}" y2="{_fmt(yy)}" '
                               f'stroke="{color}" stroke-width="1"/>')
            if s.markers:
                out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" '
                           f'fill="{color}"/>')

    legend_y = _MARGIN_TOP + 16.0
    for idx, s in enumerate(series):
        if not s.label:
            continue
        color = _PALETTE[idx % len(_PALETTE)]
        lx = _MARGIN_LEFT + plot_w - 150.0
        out.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(legend_y - 4)}" '
                   f'x2="{_fmt(lx + 22)}" y2="{_fmt(legend_y - 4)}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_fmt(lx + 28)}" y="{_fmt(legend_y)}" '
                   f'font-size="11">{_escape(s.label)}</text>')
        legend_y += 16.0

    note_y = _MARGIN_TOP + 16.0
    for note in annotations:
        out.append(f'<text x="{_fmt(_MARGIN_LEFT + 10)}" y="{_fmt(note_y)}" '
                   f'font-size="12">{_escape(note)}</text>')
        note_y += 16.0

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_loglog(path, series: Sequence[Series], **kwargs) -> None:
    """Render and write the figure; see render_loglog for options."""
    text = render_loglog(series, **kwargs)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
