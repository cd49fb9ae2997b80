"""The benchmark's workloads: inputs, operations and correctness checks.

Each workload builds its inputs from the seed, exposes a list of
operations (closed loop: the benchmark waits for each result before it
issues the next call), and checks every result with references that do
not come from the call being checked.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random

import numpy as np
from scipy import special  # already loaded by ewslab.quadrature

import ewslab as ew

# A simulated variance is accepted when it lies inside the band whose
# tails each have probability TAIL under the Gamma law with the exact
# finite-sample mean and variance of the estimator (see window_moments).
# The estimator is a weighted sum of chi-square variables, for which this
# two-moment Gamma law is the Satterthwaite approximation; 1e-12 per tail
# keeps false alarms negligible over thousands of runs.  In units of the
# estimator's standard deviation the band is about [-2.5, +14.2] at the
# noisiest configuration (Gamma shape 6.6) and [-6.3, +7.8] at the
# steadiest (shape 430).
TAIL = 1e-12

# Recorded steps per simulated point after the burn-in: two relaxation
# times of the slowest window mode at p = -0.01.
KEPT_STEPS = 20000


class Op:
    """One closed-loop operation: a call into ewslab and its check."""

    def __init__(self, name, call, check, work=0.0):
        self.name = name
        self.call = call
        self.check = check
        self.work = work


def _finite_positive(values, what):
    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        return [f"{what}: non-finite output"]
    if np.any(arr <= 0):
        return [f"{what}: non-positive variance"]
    return []


def _jittered_grid(rng: random.Random, lo: int, hi: int, points: int) -> np.ndarray:
    """Negative p grid over [lo, hi] decades, shifted inside the decade by the seed."""
    shift = rng.uniform(0.0, 0.5)
    return -np.logspace(lo + shift, hi + shift, points)[::-1]


def burn_in_steps(config) -> int:
    """Steps until the slowest window mode has decayed to exp(2 lam t) < 1e-4."""
    drift = np.asarray(config.symbol(config.mesh.grid()), dtype=float) + config.p
    support = np.asarray(config.g(config.mesh.grid())) > 0
    lam_max = float(np.max(drift[support]))
    return int(math.ceil(math.log(1e4) / (2.0 * abs(lam_max)) / config.dt))


# ---------------------------------------------------------------------------
# exact moments of the simulated variance estimator


def window_moments(config, n: int) -> tuple[float, float, float]:
    """Exact law of one replica's sample variance of the window observable.

    Every point of the support is the AR(1) chain u' = a (u + sigma dW)
    with a = 1/(1 - lam dt), so the projection X = w.u has stationary
    autocovariance gamma(k) = sum_i beta_i a_i**k with beta = w * (S w),
    S the stationary covariance.  For n recorded steps of this Gaussian
    series the ddof=1 sample variance is a quadratic form X'AX with
    A = (I - J/n)/(n - 1), whose mean is tr(A Sigma) and variance
    2 tr(A Sigma A Sigma); both reduce to sums over gamma.  Returns
    (gamma(0), mean, standard deviation).  The burn-in leaves a relative
    deficit below 1e-4, far inside the band, and is ignored.
    """
    drift = np.asarray(config.symbol(config.mesh.grid()), dtype=float) + config.p
    grid = config.mesh.grid()
    gvals = np.asarray(config.g(grid), dtype=float)
    idx = np.nonzero(gvals > 0.0)[0]
    w = gvals[idx] if config.unweighted else config.mesh.h ** config.mesh.dim * gvals[idx]
    lam = drift[idx]
    a = 1.0 / (1.0 - lam * config.dt)
    if config.noise is None or config.noise.is_identity:
        cov = np.eye(idx.size)
    else:
        basis = config.noise.basis[idx, :]
        cov = (basis * config.noise.eigenvalues) @ basis.T
    pair = np.outer(a, a)
    stationary = config.sigma ** 2 * config.dt * cov * pair / (1.0 - pair)
    beta = w * (stationary @ w)
    log_a = np.log(a)
    gamma = np.empty(n)
    block = 4096
    for k0 in range(0, n, block):
        k = np.arange(k0, min(n, k0 + block))
        gamma[k0:k0 + k.size] = np.exp(np.outer(k, log_a)) @ beta
    g0 = gamma[0]
    lags = np.arange(1, n)
    sum_all = n * g0 + 2.0 * np.sum((n - lags) * gamma[1:])          # 1' Sigma 1
    trace_sq = n * g0 ** 2 + 2.0 * np.sum((n - lags) * gamma[1:] ** 2)  # tr Sigma^2
    cum = np.cumsum(gamma)
    t = np.arange(n)
    row_sums = cum[t] + cum[n - 1 - t] - g0                          # Sigma 1
    row_sq = float(row_sums @ row_sums)                              # 1' Sigma^2 1
    mean = (n * g0 - sum_all / n) / (n - 1)
    var = 2.0 * (trace_sq - 2.0 * row_sq / n + sum_all ** 2 / n ** 2) / (n - 1) ** 2
    return float(g0), float(mean), math.sqrt(max(var, 0.0))


def z_band(mean: float, sd: float) -> tuple[float, float]:
    """Band for z = (estimate - mean)/sd with tail probability TAIL on each side."""
    shape = (mean / sd) ** 2
    scale = mean / shape
    lo = special.gammaincinv(shape, TAIL) * scale
    hi = special.gammainccinv(shape, TAIL) * scale
    return float((lo - mean) / sd), float((hi - mean) / sd)


def check_estimate(what, value, config, n_kept, replicas, predicted=None):
    """Problems with one simulated variance against its exact law."""
    problems = _finite_positive([value], what)
    if problems:
        return problems
    g0, mean, sd = window_moments(config, n_kept)
    if predicted is not None and abs(predicted - g0) > 1e-9 * g0:
        problems.append(f"{what}: discrete prediction {predicted!r} differs from "
                        f"the stationary covariance {g0!r}")
    sd /= math.sqrt(replicas)
    z = (value - mean) / sd
    lo, hi = z_band(mean, sd)
    if not lo <= z <= hi:
        problems.append(f"{what}: estimate {value!r} is {z:+.2f} sd from the exact "
                        f"mean {mean!r}, outside the band [{lo:.2f}, {hi:+.2f}]")
    return problems


# ---------------------------------------------------------------------------
# catalog


def _fit_problems(what, fit, law, s=None, tol_s=None, k=None, tol_k=None):
    problems = []
    if not (math.isfinite(fit.s) and math.isfinite(fit.k)):
        return [f"{what}: non-finite fit"]
    if s is not None and abs(fit.s - s) > tol_s:
        problems.append(f"{what}: fitted s={fit.s:.4f}, expected {s:.4f} +- {tol_s}")
    if k is not None and abs(fit.k - k) > tol_k:
        problems.append(f"{what}: fitted k={fit.k:.4f}, expected {k:.4f} +- {tol_k}")
    if law is not None:
        got = ew.classify(fit.s, fit.k)
        if got != law:
            problems.append(f"{what}: classified as {got}, catalog law is {law}")
    return problems


def _saturates(what, ps, values, tol=0.01):
    """Bounded laws: the variance changes by less than tol over the last decade."""
    qs = -np.asarray(ps)
    last = [v for q, v in zip(qs, values) if q <= 10.0 * qs.min() * (1 + 1e-9)]
    change = abs(last[-1] - last[0]) / abs(last[-1])
    if change >= tol:
        return [f"{what}: bounded law, but the last decade changes by {change:.4f}"]
    return []


def _kernel_samples() -> tuple[np.ndarray, float]:
    """128 samples of the kernel whose multiplier is -(k**2 - 1)**2."""
    n, dx = 128, 0.25
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    return np.real(np.fft.ifft(-(k ** 2 - 1.0) ** 2)) / dx, dx


class Catalog:
    """The rate catalog through quadrature and the spectral route only."""

    name = "catalog"
    work_unit = "variance evaluations"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        unit = ew.IndicatorBox(0.0, 1.0)
        self.ops: list[Op] = []

        tool_grid = lambda: _jittered_grid(rng, -9, -3, 24)  # noqa: E731
        for alpha in (0.5, 1.0, 2.0, 5.0):
            ps = tool_grid()
            law = ew.law_1d(alpha)
            tol = {1.0: dict(s=0.0, tol_s=0.02, k=1.0, tol_k=0.05)}.get(
                alpha, dict(s=law.s, tol_s=0.02))
            self._sweep(f"tool-{alpha:g}", ew.ToolAlpha(alpha), unit, ps, law, tol,
                        saturate=law.convergent)
        ps = tool_grid()
        self._sweep("tool-1-power-window", ew.ToolAlpha(1.0), ew.PowerIndicator(0.25, 1.0),
                    ps, ew.law_1d(1.0, gamma=0.25), dict(s=-0.5, tol_s=0.02))

        for j, tol in (((2, 10), dict(s=-0.9, tol_s=0.02)),
                       ((3, 3), dict(s=-2.0 / 3.0, tol_s=0.03, k=1.0, tol_k=0.15)),
                       ((1, 2, 3), dict(s=-2.0 / 3.0, tol_s=0.03))):
            ps = _jittered_grid(rng, -14, -2, 49)
            law = ew.law_upper_bound(j)
            # classification is required only where the acceptance suite
            # pins both exponents sharply
            self._monomials(f"mono-{'-'.join(map(str, j))}", j, ps,
                            law if j == (2, 10) else None, tol)

        for j, power, tol in (((1, 1), 2, 0.05), ((1, 1, 1), 3, 0.10)):
            q_fine = 1e-8 * 10 ** rng.uniform(0.0, 0.5)
            self._log_ratio(f"log-ratio-{'-'.join(map(str, j))}", j, power,
                            (10.0 * q_fine, q_fine), tol)

        plane = ew.Polynomial({(2, 0): 1.0, (0, 4): 1.0})
        self._tensor("tensor-2d", plane, ew.IndicatorBox((0.0, 0.0), (1.0, 1.0)),
                     _jittered_grid(rng, -9, -3, 24), window_fit=None)
        space = ew.Polynomial({(1, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 3): 1.0})
        ps = _jittered_grid(rng, -8, -2, 12)
        self._tensor("tensor-3d", space, ew.IndicatorBox((0.0,) * 3, (1.0,) * 3), ps,
                     window_fit=(float(-ps[-1]), float(-ps[0])))

        ps = tool_grid()
        self._sweep("radial-quarter-disc", ew.Radial2D(2.0), ew.QuarterDisc(1.0), ps,
                    ew.ScalingLaw(0.0, 1), dict(s=0.0, tol_s=0.02, k=1.0, tol_k=0.05),
                    sigma=math.sqrt(2.0))

        samples, spacing = _kernel_samples()
        for name, symbol, window, tol in (
                ("spectral-power2m-1", ew.PowerWavenumber(1), ew.IndicatorBox(-1.0, 1.0), 0.02),
                ("spectral-power2m-2", ew.PowerWavenumber(2), ew.IndicatorBox(-1.0, 1.0), 0.02),
                ("spectral-sh1d", ew.SwiftHohenberg1D(), ew.IndicatorBox(-2.0, 2.0), 0.03),
                ("spectral-sh2d", ew.SwiftHohenberg2D(), ew.Disc(math.sqrt(2.0)), 0.03),
                ("spectral-kernel", ew.ConvolutionKernel(samples, spacing),
                 ew.IndicatorBox(-3.0, 3.0), 0.03)):
            law = ew.predicted_spectral_law(symbol, window)
            self._sweep(name, symbol, window, tool_grid(), law,
                        dict(s=law.s, tol_s=tol), spectral=True, saturate=law.convergent)

    def probes(self):
        """Functions whose calls are the variance evaluations."""
        return (("ewslab.quadrature", "variance_quadrature", ("ewslab.scaling",)),
                ("ewslab.spectral", "variance_spectral", None),
                ("ewslab.quadrature", "monomial_integral", None))

    def _sweep(self, name, symbol, window, ps, law, tol, sigma=1.0, spectral=False,
               saturate=False):
        def call():
            if spectral:
                sweep = ew.spectral_sweep(symbol, window, ps)
            else:
                sweep = ew.quadrature_sweep(symbol, window, ps, sigma=sigma, threads=1)
            fit = ew.fit_loglog(sweep)
            return sweep.values.tolist(), fit, ew.classify(fit.s, fit.k)

        def check(out):
            values, fit, _ = out
            problems = _finite_positive(values, name) or _fit_problems(name, fit, law, **tol)
            if saturate and not problems:
                problems += _saturates(name, ps, values)
            return problems

        self.ops.append(Op(name, call, check, work=len(ps)))

    def _monomials(self, name, j, ps, law, tol):
        def call():
            values = [ew.monomial_integral(j, 1.0, -p) for p in ps]
            fit = ew.fit_loglog(ew.SweepResult(ps, values))
            return values, fit, ew.classify(fit.s, fit.k)

        def check(out):
            values, fit, _ = out
            return _finite_positive(values, name) or _fit_problems(name, fit, law, **tol)

        self.ops.append(Op(name, call, check, work=len(ps)))

    def _log_ratio(self, name, j, power, qs, tol):
        def call():
            return [ew.monomial_integral(j, 1.0, q) for q in qs]

        def check(values):
            problems = _finite_positive(values, name)
            if problems:
                return problems
            ratios = [v / math.log(1.0 / q) ** power for v, q in zip(values, qs)]
            drift = abs(ratios[1] / ratios[0] - 1.0)
            if drift >= tol:
                return [f"{name}: log^{power} ratio drifts by {drift:.4f} across a decade"]
            return []

        self.ops.append(Op(name, call, check, work=len(qs)))

    def _tensor(self, name, symbol, window, ps, window_fit):
        # The corner catalog gives a ceiling; for a sum of pure powers the
        # quasi-homogeneous weights sum(1/i) give the attained rate:
        # -1 + sum(1/i) below 1, bounded above 1.
        ceiling = ew.polynomial_law(symbol.coeffs)
        weight = sum(1.0 / max(j) for j in symbol.coeffs)
        exact = min(0.0, -1.0 + weight)

        def call():
            sweep = ew.quadrature_sweep(symbol, window, ps, threads=1)
            fit = ew.fit_loglog(sweep, window=window_fit)
            return sweep.values.tolist(), fit, ew.classify(fit.s, fit.k)

        def check(out):
            values, fit, _ = out
            problems = _finite_positive(values, name)
            if problems:
                return problems
            if fit.s < ceiling.s - 0.03:
                problems.append(f"{name}: fitted s={fit.s:.4f} grows faster than the "
                                f"catalog ceiling {ceiling}")
            if weight > 1.0:
                problems += _saturates(name, ps, values)
            elif abs(fit.s - exact) > 0.03:
                problems.append(f"{name}: fitted s={fit.s:.4f}, weight rule gives {exact:.4f}")
            return problems

        self.ops.append(Op(name, call, check, work=len(ps)))

    def warmup(self):
        # the smallest p of the 3-D routes allocates the largest arrays
        for symbol, window in ((ew.ToolAlpha(2.0), ew.IndicatorBox(0.0, 1.0)),
                               (ew.Polynomial({(1, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 3): 1.0}),
                                ew.IndicatorBox((0.0,) * 3, (1.0,) * 3))):
            ew.quadrature_sweep(symbol, window, [-1e-3, -1e-8])
        ew.monomial_integral((1, 2, 3), 1.0, 1e-14)
        ew.spectral_sweep(ew.SwiftHohenberg1D(), ew.IndicatorBox(-2.0, 2.0), [-1e-2, -1e-3])


# ---------------------------------------------------------------------------
# simulation


ACCEPTANCE_SYMBOL = ("tool:2", "box:-0.5,0.5")


def _acceptance_config(p, nt, burn, replicas, seed, noise=None):
    return ew.SimConfig(symbol=ew.ToolAlpha(2.0), g=ew.IndicatorBox(-0.5, 0.5), p=p,
                        mesh=ew.Mesh(1.0, 199, 1), dt=0.01, nt=nt, sigma=1.0,
                        burn_in=burn, replicas=replicas, seed=seed, noise=noise)


class McWhite:
    """simulate.run with identity noise at the acceptance configuration."""

    name = "mc-white"
    work_unit = "point-steps"

    def __init__(self, seed: int):
        self.ops: list[Op] = []
        for p in (-1.0, -0.1, -0.01):
            probe = _acceptance_config(p, 10 ** 6, None, 4, seed)
            burn = burn_in_steps(probe)
            config = _acceptance_config(p, burn + KEPT_STEPS, burn, 4, seed)
            self.ops.append(self._op(config))

    def probes(self):
        return (("ewslab.simulate", "run", None),)

    @staticmethod
    def _op(config):
        name = f"run-p{config.p:g}"

        def call():
            predicted = ew.predict_discrete_variance(config)
            estimate = ew.run(config)
            corrected = ew.variance_quadrature(
                ew.VarianceQuery(config.symbol, config.g, config.p, config.sigma),
                dt=config.dt)
            return estimate.variance, estimate.stderr, predicted, corrected

        def check(out):
            variance, stderr, predicted, corrected = out
            problems = _finite_positive([predicted, corrected], name)
            if not math.isfinite(stderr) or stderr <= 0:
                problems.append(f"{name}: stderr {stderr!r} is not a positive number")
            if problems:
                return problems
            problems += check_estimate(name, variance, config, KEPT_STEPS,
                                       config.replicas, predicted)
            rel = abs(predicted / config.mesh.h - corrected) / corrected
            if rel > 0.05:
                problems.append(f"{name}: predict/h differs from the dt-corrected "
                                f"quadrature by {rel:.4f}")
            return problems

        work = float(config.mesh.size * config.nt * config.replicas)
        return Op(name, call, check, work=work)

    def warmup(self):
        config = _acceptance_config(-1.0, 200, 100, 1, 0)
        ew.predict_discrete_variance(config)
        ew.run(config)
        ew.variance_quadrature(ew.VarianceQuery(config.symbol, config.g, -1.0), dt=0.01)


class CompareStructured:
    """In-process ``ewslab compare`` with rank-32 noise, CSVs parsed back."""

    name = "compare-structured"
    work_unit = "point-steps"
    replicas = 2
    sim_decades = (-2, -1)
    sim_points = 3
    p_decades = (-6, -1)
    points = 24

    def __init__(self, seed: int, out_dir: str):
        self.out_dir = out_dir
        self.sim_ps = -np.logspace(*self.sim_decades, self.sim_points)[::-1]
        mesh = ew.Mesh(1.0, 199, 1)
        window = ew.IndicatorBox(-0.5, 0.5)
        support = np.flatnonzero(window(mesh.grid()) > 0)
        noise = ew.build_noise_model(mesh.size, support, m=32, seed=seed)
        self.burn = max(burn_in_steps(_acceptance_config(float(p), 10 ** 6, None, 1, seed))
                        for p in self.sim_ps)
        self.nt = self.burn + KEPT_STEPS
        self.configs = [_acceptance_config(float(p), self.nt, self.burn, self.replicas,
                                           seed, noise) for p in self.sim_ps]
        self.argv = ["compare", "--symbol", ACCEPTANCE_SYMBOL[0], "--g", ACCEPTANCE_SYMBOL[1],
                     "--p-decades", f"{self.p_decades[0]}:{self.p_decades[1]}",
                     "--points", str(self.points),
                     "--sim-decades", f"{self.sim_decades[0]}:{self.sim_decades[1]}",
                     "--sim-points", str(self.sim_points),
                     "--noise-rank", "32", "--svg", "--threads", "1",
                     "--nt", str(self.nt), "--burn-in", str(self.burn),
                     "--replicas", str(self.replicas), "--seed", str(seed),
                     "--out", out_dir]
        self._reference = None
        work = float(sum(c.mesh.size * c.nt * c.replicas for c in self.configs))
        self.ops = [Op("cli-compare", self._call, self._check, work=work)]

    def probes(self):
        return (("ewslab.simulate", "run", None),)

    def _call(self):
        from ewslab import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(self.argv))
        predicted = [ew.predict_discrete_variance(c) for c in self.configs]
        files = {}
        for name in sorted(os.listdir(self.out_dir)):
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                files[name] = fh.read()
        # the manifest records the run's duration, so only its command is kept
        manifest = files.pop("compare_manifest.json", None)
        command = json.loads(manifest).get("command") if manifest else None
        return code, files, command, predicted

    def _reference_sweep(self, ps):
        if self._reference is None:
            symbol, window = ew.ToolAlpha(2.0), ew.IndicatorBox(-0.5, 0.5)
            self._reference = [ew.variance_quadrature(ew.VarianceQuery(symbol, window, p, 1.0),
                                                      dt=0.01) for p in ps]
        return self._reference

    def _check(self, out):
        code, files, command, predicted = out
        if code != 0:
            return [f"cli-compare: exit code {code}"]
        problems = []
        for name in ("compare_quadrature.csv", "compare_simulation.csv", "compare.svg"):
            if not files.get(name):
                problems.append(f"cli-compare: {name} missing or empty")
        if command != "compare":
            problems.append("cli-compare: manifest missing or not a compare manifest")
        if problems:
            return problems
        svg = files["compare.svg"].decode("utf-8")
        if not (svg.lstrip().startswith("<svg") or svg.startswith("<?xml")) \
                or not svg.rstrip().endswith("</svg>"):
            problems.append("cli-compare: compare.svg is not a complete SVG document")

        quad = _read_sweep_csv(files["compare_quadrature.csv"])
        ps = -np.logspace(*self.p_decades, self.points)[::-1]
        if [r[3] for r in quad] != ["quadrature"] * self.points:
            return problems + ["cli-compare: quadrature CSV has the wrong rows"]
        if not np.allclose([r[0] for r in quad], ps, rtol=1e-12, atol=0.0):
            problems.append("cli-compare: quadrature CSV p grid differs from -6:-1 x 24")
        reference = self._reference_sweep(ps)
        values = [r[1] for r in quad]
        problems += _finite_positive(values, "cli-compare quadrature")
        if not problems and not np.allclose(values, reference, rtol=1e-12, atol=0.0):
            problems.append("cli-compare: quadrature CSV differs from a direct sweep")

        sim = _read_sweep_csv(files["compare_simulation.csv"])
        if [r[3] for r in sim] != ["simulation"] * self.sim_points:
            return problems + ["cli-compare: simulation CSV has the wrong rows"]
        if not np.allclose([r[0] for r in sim], self.sim_ps, rtol=1e-12, atol=0.0):
            problems.append("cli-compare: simulation CSV p grid differs from -2:-1 x 3")
        for row, config, pred in zip(sim, self.configs, predicted):
            what = f"cli-compare p={config.p:g}"
            if not math.isfinite(row[2]) or row[2] <= 0:
                problems.append(f"{what}: stderr {row[2]!r} is not a positive number")
            problems += check_estimate(what, row[1], config, KEPT_STEPS, self.replicas, pred)
        return problems

    def warmup(self):
        from ewslab import cli

        argv = list(self.argv)
        argv[argv.index("--nt") + 1] = "300"
        argv[argv.index("--burn-in") + 1] = "100"
        argv[argv.index("--sim-decades") + 1] = "-1:0"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
        ew.predict_discrete_variance(self.configs[0])


def _read_sweep_csv(data: bytes):
    """Rows (p, value, stderr, source) of a sweep CSV, parsed independently of ewslab."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows or rows[0] != ["p", "value", "stderr", "source"]:
        return []
    return [(float(r[0]), float(r[1]), float(r[2]), r[3]) for r in rows[1:] if r]


WORKLOADS = {"catalog": Catalog, "mc-white": McWhite, "compare-structured": CompareStructured}


def build(name: str, seed: int, scratch: str):
    if name == "compare-structured":
        return CompareStructured(seed, scratch)
    return WORKLOADS[name](seed)
