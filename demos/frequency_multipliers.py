"""Scaling laws on the frequency side.

When the drift acts as a Fourier multiplier -f(k) - p, the variance
integral runs over wavenumbers and the zero set of f controls the rate:

  * f(k) = k^(2m)  (power multiplier, the tool family with alpha = 2m):
    an isolated zero of order 2m gives s = -1 + 1/(2m);
  * the one-dimensional pattern-forming multiplier (1 - k^2)^2 behaves
    like m = 1, giving s = -1/2;
  * its planar version has a whole circle of zeros and admits a polar
    reduction with a closed form at p = -1.

Run:  python demos/frequency_multipliers.py
Writes demo_output/frequency_multipliers.svg
"""
import math
import pathlib

import ewslab as ew
from ewslab.plotting import render_loglog, sweep_series

OUT = pathlib.Path("demo_output")


def main():
    ps = ew.log_spaced_p(-9, -3, 24)
    series = []

    print(f"{'multiplier':>16} {'predicted s':>12} {'fitted s':>9}")
    for m in (1, 2):
        symbol = ew.PowerWavenumber(m)
        sweep = ew.spectral_sweep(symbol, ew.IndicatorBox(-1.0, 1.0), ps)
        law = ew.predicted_spectral_law(symbol)
        fit = ew.fit_loglog(sweep)
        print(f"{f'k^{2 * m}':>16} {law.s:>12.4f} {fit.s:>9.4f}")
        series.append(sweep_series(sweep, label=f"k^{2 * m}"))

    symbol = ew.SwiftHohenberg1D()
    sweep = ew.spectral_sweep(symbol, ew.IndicatorBox(-2.0, 2.0), ps)
    law = ew.predicted_spectral_law(symbol)
    fit = ew.fit_loglog(sweep)
    print(f"{'(1-k^2)^2':>16} {law.s:>12.4f} {fit.s:>9.4f}")
    series.append(sweep_series(sweep, label="(1-k^2)^2"))

    value = ew.variance_spectral(
        ew.VarianceQuery(ew.SwiftHohenberg2D(), ew.Disc(math.sqrt(2.0)),
                         -1.0, math.sqrt(2.0)))
    print(f"\nplanar ring multiplier at p=-1, sigma=sqrt(2), R=sqrt(2):"
          f" {value:.12f}")
    print(f"closed form pi^2/2:                                          "
          f" {math.pi ** 2 / 2:.12f}")

    OUT.mkdir(exist_ok=True)
    svg = render_loglog(series, title="frequency multipliers",
                        ref_slope=-0.5, ref_anchor=(1e-6, 300.0),
                        ref_label="slope -1/2")
    path = OUT / "frequency_multipliers.svg"
    path.write_text(svg, newline="\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
