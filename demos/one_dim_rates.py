"""Divergence rates for the one-dimensional power family.

Sweeps the stationary variance of the drift -|x|^alpha - p over a window
[0, 1] as p -> 0- for several alpha, fits log-log slopes, and compares
them with the catalog prediction:

    2 gamma + alpha < 1  ->  bounded
    2 gamma + alpha = 1  ->  single log
    2 gamma + alpha > 1  ->  power  s = -1 + (1 - 2 gamma) / alpha

Run:  python demos/one_dim_rates.py
Writes demo_output/one_dim_rates.svg
"""
import pathlib

import ewslab as ew
from ewslab.plotting import render_loglog, sweep_series

OUT = pathlib.Path("demo_output")


def main():
    ps = ew.log_spaced_p(-9, -3, 24)
    g = ew.IndicatorBox(0.0, 1.0)
    series = []

    print(f"{'alpha':>6} {'catalog':>22} {'fitted s':>9} {'fitted k':>9}")
    for alpha in (0.5, 1.0, 2.0, 5.0):
        sweep = ew.quadrature_sweep(ew.ToolAlpha(alpha), g, ps)
        law = ew.law_1d(alpha)
        fit = ew.fit_loglog(sweep)
        label = ("bounded" if law.convergent
                 else f"s={law.s:.3f}, k={law.k}")
        print(f"{alpha:>6} {label:>22} {fit.s:>9.4f} {fit.k:>9.4f}")
        series.append(sweep_series(sweep, label=f"alpha={alpha:g}"))

    OUT.mkdir(exist_ok=True)
    svg = render_loglog(series, title="one-dimensional power family",
                        ref_slope=-0.5, ref_anchor=(1e-6, 1e3),
                        ref_label="slope -1/2")
    path = OUT / "one_dim_rates.svg"
    path.write_text(svg, newline="\n")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
