"""Monte Carlo check of the closed-form variance.

Integrates the linear stochastic PDE with drift -x^2 - p with the
implicit Euler scheme on an interior-only, uncoupled lattice (every
mesh point is its own chain), then compares three numbers at each p:

  * the Monte Carlo estimate of the windowed stationary variance,
  * the exact prediction for the discrete scheme (geometric-series sum),
  * the continuum quadrature with the step-size correction.

Run:  python demos/spde_simulation.py           (about three seconds)
"""
import ewslab as ew


def main():
    symbol = ew.ToolAlpha(2.0)
    g = ew.IndicatorBox(-0.5, 0.5)
    mesh = ew.Mesh(1.0, 199, 1)
    dt = 0.01

    print(f"{'p':>7} {'simulated':>12} {'stderr':>9} {'discrete':>12}"
          f" {'quadrature*h':>13} {'z':>6}")
    configs = [ew.SimConfig(symbol=symbol, g=g, p=p, mesh=mesh, dt=dt,
                            nt=120000, sigma=1.0, replicas=4, seed=0)
               for p in (-1.0, -0.3, -0.1, -0.03)]
    # one simulation pass for all four p, on common random numbers
    for config, estimate in zip(configs, ew.run_sweep(configs)):
        p = config.p
        predicted = ew.predict_discrete_variance(config)
        corrected = ew.variance_quadrature(
            ew.VarianceQuery(symbol, g, p, 1.0), dt=dt) * mesh.h
        z = abs(estimate.variance - predicted) / estimate.stderr
        print(f"{p:>7} {estimate.variance:>12.6f} {estimate.stderr:>9.6f}"
              f" {predicted:>12.6f} {corrected:>13.6f} {z:>6.2f}")

    print("\nthe discrete prediction and the corrected quadrature agree to"
          " a few percent;\nthe Monte Carlo estimate scatters around both"
          " within its error bars.")


if __name__ == "__main__":
    main()
