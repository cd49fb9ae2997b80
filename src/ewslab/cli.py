"""Command-line front end.

Subcommands cover law lookup, variance sweeps, log-log fitting, SPDE
simulation, quadrature/simulation comparison, frequency-space sweeps,
and the resolvent-integral self check.  Every invocation that writes
files also writes a JSON run manifest alongside them recording every
parsed flag but ``--out``, ``--config`` and ``--seed``, the seed itself,
and the produced file names, so any output can be regenerated
byte-for-byte with ``--config MANIFEST``.

Exit codes: 0 success, 2 usage error, 3 validation error, 4 numerical
failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .noise import build_noise_model
from .plotting import Series, render_loglog, sweep_series
from .quadrature import (
    Disc,
    IndicatorBox,
    PowerIndicator,
    QuadratureError,
    QuarterDisc,
    appendix_c_integral,
)
from .scaling import (
    SweepResult,
    classify,
    fit_loglog,
    log_spaced_p,
    predicted_law,
    quadrature_sweep,
)
from .simulate import (Mesh, SimConfig, predict_discrete_variance, projection_weights,
                       run, run_sweep)
from .spectral import predicted_spectral_law, spectral_sweep
from .symbols import (
    ConvolutionKernel,
    LawUnavailableError,
    Piecewise,
    Polynomial,
    PowerWavenumber,
    Radial2D,
    ScalingLaw,
    SwiftHohenberg1D,
    SwiftHohenberg2D,
    Symbol,
    ToolAlpha,
    Zero,
    law_1d,
    law_upper_bound,
)

EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


# --------------------------------------------------------------------------
# small DSL: symbols and windows from command-line strings

def _load_symbol(path: str) -> Symbol:
    with open(path, "r", encoding="utf-8") as fh:
        return Symbol.build(json.load(fh))


def _mono(rest: str) -> Polynomial:
    return Polynomial({tuple(int(tok) for tok in rest.split(",")): 1.0})


def _pw(rest: str) -> Piecewise:
    left, right = (float(tok) for tok in rest.split(","))
    return Piecewise(ToolAlpha(left), ToolAlpha(right))


def _conv(rest: str) -> ConvolutionKernel:
    path, _, spacing = rest.rpartition(":")
    return ConvolutionKernel(np.loadtxt(path, dtype=float, ndmin=1), float(spacing))


# the symbol grammar: each head, its form as --help shows it, and its builder of the rest
SYMBOL_FORMS = {
    "tool": ("tool:ALPHA", lambda rest: ToolAlpha(float(rest))),
    "zero": ("zero[:DIM]", lambda rest: Zero(int(rest) if rest else 1)),
    "radial": ("radial:BETA", lambda rest: Radial2D(float(rest))),
    "mono": ("mono:I1,I2[,I3]", _mono),
    "pw": ("pw:ALPHA_LEFT,ALPHA_RIGHT", _pw),
    "poly": ("poly:FILE.json", _load_symbol),
    "power2m": ("power2m:M", lambda rest: PowerWavenumber(int(rest))),
    "sh1d": ("sh1d", lambda rest: SwiftHohenberg1D()),
    "sh2d": ("sh2d", lambda rest: SwiftHohenberg2D()),
    "conv": ("conv:FILE:SPACING", _conv),
}


def _box(rest: str, dim: int) -> IndicatorBox:
    vals = [float(tok) for tok in rest.split(",")]
    if len(vals) != 2 * dim:
        raise ValueError(f"box needs {2 * dim} numbers for dimension {dim}")
    lo, hi = vals[0::2], vals[1::2]
    return IndicatorBox(lo if dim > 1 else lo[0], hi if dim > 1 else hi[0])


def _power(rest: str, dim: int) -> PowerIndicator:
    gamma, eps = (float(tok) for tok in rest.split(","))
    return PowerIndicator(gamma, eps)


# the window grammar, as SYMBOL_FORMS; each builder takes the rest and the symbol's dimension
WINDOW_FORMS = {
    "box": ("box:LO,HI per axis", _box),
    "cube": ("cube:EPS", lambda rest, dim: IndicatorBox.cube(float(rest), dim)),
    "power": ("power:GAMMA,EPS", _power),
    "qdisc": ("qdisc:R", lambda rest, dim: QuarterDisc(float(rest))),
    "disc": ("disc:R", lambda rest, dim: Disc(float(rest))),
}


def _help(what: str, forms: dict) -> str:
    return f"{what}, one of: " + "; ".join(form for form, _ in forms.values())


def _parse(text: str, what: str, forms: dict, *args):
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head not in forms:
        raise ValueError(f"unknown {what} kind {head!r}; see --help for the grammar")
    try:
        return forms[head][1](rest, *args)
    except (TypeError, ValueError, OSError) as exc:
        raise ValueError(f"bad {what} spec {text!r}: {exc}") from exc


def parse_symbol(text: str) -> Symbol:
    """Build a drift symbol from its compact command-line form (``SYMBOL_FORMS``)."""
    return _parse(text, "symbol", SYMBOL_FORMS)


def parse_window(text: str, dim: int):
    """Build a spatial window from its command-line form (``WINDOW_FORMS``)."""
    return _parse(text, "window", WINDOW_FORMS, dim)


def parse_decades(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(f"bad decade range {text!r}; expected LO:HI like -8:-2") from exc
    if lo_i >= hi_i:
        raise ValueError("decade range must satisfy LO < HI")
    return lo_i, hi_i


# --------------------------------------------------------------------------
# outputs and manifests

# parsed attributes that are not run parameters; the seed has its own field
_NOT_PARAMS = frozenset({"command", "func", "_started", "config", "out", "seed"})


def _emit(args, command: str, texts: dict[str, str], stem: str | None = None) -> int:
    """Write each ``{file name: text}`` into ``--out``, then the run manifest."""
    manifest = {
        "tool": "ewslab",
        "version": __version__,
        "command": command,
        "params": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS},
        "seed": args.seed,
        "outputs": list(texts),
        "duration_s": round(time.monotonic() - args._started, 3),
    }
    texts = {**texts, f"{stem or args.prefix}_manifest.json":
             json.dumps(manifest, indent=2, sort_keys=True) + "\n"}
    os.makedirs(args.out, exist_ok=True)
    for name, text in texts.items():
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return 0


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    if isinstance(data.get("params"), dict):
        # a run manifest: the seed is stored beside the params
        seed = {"seed": data["seed"]} if "seed" in data else {}
        data = {**data["params"], **seed}
    return {str(k).replace("-", "_"): v for k, v in data.items()}


# --------------------------------------------------------------------------
# subcommand bodies

def _law_case(args, law: ScalingLaw) -> str:
    """The catalog row of a law that ``laws`` printed, read off the law itself."""
    if args.family == "1d":
        family = "one-dim power window" if args.gamma > 0 else "one-dim tool family"
        if law.convergent:
            return f"{family}, 2*gamma+alpha < 1 (bounded)"
        if law.k:
            return f"{family}, 2*gamma+alpha = 1 (log divergence)"
        return f"{family}, 2*gamma+alpha > 1 (power divergence)"
    if law.s == 0.0:
        return f"corner bound, all indices 1 (log power {law.k})"
    # s = -1 + 1/i_max, with one logarithm per extra repeat of i_max
    i_max = round(1.0 / (1.0 + law.s))
    if law.k == 0:
        return f"corner bound, distinct top index {i_max}"
    return f"corner bound, top index {i_max} repeated {law.k + 1} times"


def cmd_laws(args) -> int:
    try:
        if args.family == "1d":
            law = law_1d(args.alpha, args.gamma)
        else:
            law = law_upper_bound(tuple(int(tok) for tok in args.indices.split(",")))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"s={law.s:g} k={law.k} convergent={law.convergent}  [{_law_case(args, law)}]")
    return 0


def _sweep_texts(args, command: str, sweep: SweepResult) -> dict[str, str]:
    """The sweep CSV and, with ``--svg``, its figure."""
    texts = {f"{args.prefix}.csv": sweep.to_csv()}
    if args.svg:
        texts[f"{args.prefix}.svg"] = render_loglog([sweep_series(sweep)],
                                                    title=f"{command}: {args.symbol}")
    return texts


def cmd_sweep(args) -> int:
    symbol = parse_symbol(args.symbol)
    g = parse_window(args.g, symbol.dim)
    lo, hi = parse_decades(args.p_decades)
    ps = log_spaced_p(lo, hi, args.points)
    sweep = quadrature_sweep(symbol, g, ps, sigma=args.sigma, threads=args.threads, dt=args.dt)
    return _emit(args, "sweep", _sweep_texts(args, "sweep", sweep))


def cmd_spectral(args) -> int:
    symbol = parse_symbol(args.symbol)
    g = parse_window(args.g, symbol.dim)
    lo, hi = parse_decades(args.p_decades)
    ps = log_spaced_p(lo, hi, args.points)
    sweep = spectral_sweep(symbol, g, ps, sigma=args.sigma)
    try:
        law = predicted_spectral_law(symbol, g)
        print(f"predicted law: s={law.s:g} k={law.k} convergent={law.convergent}")
    except LawUnavailableError as exc:
        print(f"predicted law: unavailable ({exc})")
    return _emit(args, "spectral", _sweep_texts(args, "spectral", sweep))


def cmd_fit(args) -> int:
    with open(args.csv, "r", encoding="utf-8") as fh:
        sweep = SweepResult.from_csv(fh.read())
    window = None
    if args.window:
        lo, hi = parse_decades(args.window)
        window = (10.0 ** lo, 10.0 ** hi)
    fit = fit_loglog(sweep, window=window)
    law = classify(fit.s, fit.k)
    print(fit)
    if law is not None:
        print(f"classified: s={law.s:g} k={law.k} convergent={law.convergent}")
    else:
        print("classified: no catalog match")
    summary = {
        "s": fit.s, "k": fit.k, "c": fit.c,
        "s_err": fit.s_err, "k_err": fit.k_err,
        "residual": fit.residual,
        "classified": None if law is None else
        {"s": law.s, "k": law.k, "convergent": law.convergent},
        "source": sweep.source,
        "points": len(sweep.ps),
    }
    stem = f"{args.prefix}_fit"
    texts = {f"{stem}.json": json.dumps(summary, indent=2, sort_keys=True) + "\n"}
    if args.svg:
        qs = [-p for p in sweep.ps]
        fitted = [math.exp(fit.c) * q ** fit.s * (-math.log(q)) ** fit.k for q in qs]
        texts[f"{stem}.svg"] = render_loglog(
            [sweep_series(sweep, label=sweep.source),
             Series(tuple(qs), tuple(fitted), label="fit", markers=False)],
            title="log-log fit",
            annotations=[f"fitted slope {fit.s:.2f} ± {fit.s_err:.2f}"])
    return _emit(args, "fit", texts, stem=stem)


def _sim_configs(args, symbol, g, ps) -> list[SimConfig]:
    # one mesh and one noise model serve every p
    mesh = Mesh(args.half_width, args.n, symbol.dim)
    noise = None
    if args.noise_rank is not None:
        support = projection_weights(g, mesh)[0]
        noise = build_noise_model(mesh.size, support, m=args.noise_rank,
                                  seed=args.seed)
    return [SimConfig(symbol=symbol, g=g, p=p, mesh=mesh, dt=args.dt,
                      nt=args.nt, sigma=args.sigma, burn_in=args.burn_in,
                      replicas=args.replicas, seed=args.seed, noise=noise,
                      batches=args.batches, unweighted=args.unweighted)
            for p in ps]


def cmd_simulate(args) -> int:
    symbol = parse_symbol(args.symbol)
    g = parse_window(args.g, symbol.dim)
    (config,) = _sim_configs(args, symbol, g, [args.p])
    predicted = predict_discrete_variance(config)
    estimate = run(config)
    sweep = SweepResult((args.p,), (estimate.variance,), (estimate.stderr,),
                        "simulation")
    print(f"variance {estimate.variance!r} stderr {estimate.stderr!r} "
          f"(predicted discrete {predicted!r}, "
          f"effective samples {estimate.effective_samples})")
    return _emit(args, "simulate", _sweep_texts(args, "simulate", sweep))


def _law_curve(law: ScalingLaw, quad: SweepResult) -> list[Series]:
    """The law's curve V0 (q/q0)**s (log(1/q)/log(1/q0))**k on the grid points with
    q = -p < 1, through the first of them; none where fewer than two have q < 1."""
    qs = tuple(-p for p in quad.ps if p > -1.0)  # the grid's tail: ps increase
    if len(qs) < 2:
        return []
    q0, v0 = qs[0], quad.values[-len(qs)]
    curve = tuple(v0 * (q / q0) ** law.s * (math.log(q) / math.log(q0)) ** law.k for q in qs)
    return [Series(qs, curve, label=f"reference law s={law.s:g} k={law.k}", markers=False)]


def cmd_compare(args) -> int:
    symbol = parse_symbol(args.symbol)
    g = parse_window(args.g, symbol.dim)
    lo, hi = parse_decades(args.p_decades)
    ps = log_spaced_p(lo, hi, args.points)
    if args.sim_decades:
        sim_lo, sim_hi = parse_decades(args.sim_decades)
    else:
        # Mixing time grows like 1/(-p), so sample the widest decade only
        # unless the caller explicitly asks for more.
        sim_lo, sim_hi = hi - 1, hi
    sim_ps = log_spaced_p(sim_lo, sim_hi, args.sim_points)
    # build the simulation configs and fit before any long work, so bad
    # simulation flags and a bad fit window fail fast
    configs = _sim_configs(args, symbol, g, sim_ps)
    quad = quadrature_sweep(symbol, g, ps, sigma=args.sigma,
                            threads=args.threads, dt=args.dt)
    fit = fit_loglog(quad)
    try:
        law = predicted_law(symbol, g)
    except (ValueError, LawUnavailableError):
        law = None

    # one pass for every p: shared draws, one step loop
    estimates = run_sweep(configs)
    sim = SweepResult(sim_ps, [e.variance for e in estimates],
                      [e.stderr for e in estimates], "simulation")

    series = [sweep_series(quad, label="quadrature"),
              sweep_series(sim, label="simulation", line=False)]
    annotation = f"fitted slope {fit.s:.2f} ± {fit.s_err:.2f}"
    ref_kwargs = {}
    if law is not None and law.k:
        series += _law_curve(law, quad)
    elif law is not None and not law.convergent:
        anchor = (-quad.ps[0], quad.values[0])
        ref_kwargs = {"ref_slope": law.s, "ref_anchor": anchor,
                      "ref_label": f"reference slope {law.s:g}"}
    print(annotation)
    texts = {f"{args.prefix}_quadrature.csv": quad.to_csv(),
             f"{args.prefix}_simulation.csv": sim.to_csv()}
    if args.svg:
        texts[f"{args.prefix}.svg"] = render_loglog(
            series, title=f"compare: {args.symbol}", annotations=[annotation], **ref_kwargs)
    return _emit(args, "compare", texts)


def cmd_appendix_check(args) -> int:
    ms = [int(tok) for tok in args.m.split(",")]
    q = args.q
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    if not 0 < args.tol < math.inf:
        raise ValueError("tol must be a finite positive number")
    worst = 0.0
    for m in ms:
        value = appendix_c_integral(m, q)
        target = (-math.log(q)) ** (m + 1) / (m + 1)
        ratio = value / target
        worst = max(worst, abs(ratio - 1.0))
        print(f"m={m} integral {value!r} ratio {ratio:.6f} (target 1)")
    closed = math.log1p(q) - math.log(q) + q / (1.0 + q) - 1.0
    direct = appendix_c_integral(0, q)
    rel = abs(direct - closed) / abs(closed)
    print(f"m=0 closed-form relative error {rel:.3e}")
    if rel > 1e-10:
        print(f"error: closed-form mismatch {rel:.3e} exceeds 1e-10", file=sys.stderr)
        return EXIT_NUMERICAL
    if worst > args.tol:
        print(f"error: worst ratio deviation {worst:.4f} exceeds tolerance {args.tol}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"all ratios within {args.tol}")
    return 0


# --------------------------------------------------------------------------
# parser

def _add_sweep_args(sub, simulation: bool = False):
    sub.add_argument("--symbol", required=True, help=_help("drift symbol", SYMBOL_FORMS))
    sub.add_argument("--g", required=True, help=_help("window", WINDOW_FORMS))
    sub.add_argument("--sigma", type=float, default=1.0)
    if not simulation:
        sub.add_argument("--p-decades", required=True,
                         help="log10 range LO:HI for -p, e.g. -8:-2")
        sub.add_argument("--points", type=int, default=24)


def _add_sim_args(sub):
    sub.add_argument("--half-width", type=float, default=1.0)
    sub.add_argument("--n", type=int, default=199, help="interior points per axis")
    sub.add_argument("--dt", type=float, default=0.01)
    sub.add_argument("--nt", type=int, default=200000)
    sub.add_argument("--replicas", type=int, default=4)
    sub.add_argument("--burn-in", type=int, default=None)
    sub.add_argument("--batches", type=int, default=32)
    sub.add_argument("--noise-rank", type=int, default=None,
                     help="rank of the noise model (default: identity)")
    sub.add_argument("--unweighted", action="store_true",
                     help="project with raw window values, no cell volume")


# the subcommands that write files, the ones given ``_add_file_args``
_WRITING_COMMANDS = frozenset({"sweep", "spectral", "fit", "simulate", "compare"})


def _add_file_args(sub, prefix: str):
    # only the subcommands that write files take these
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--config", default=None,
                     help="JSON file (bare params or a run manifest)")
    sub.add_argument("--prefix", default=prefix, help="output file stem")
    sub.add_argument("--svg", action="store_true", help="also write a figure")


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewslab",
        description="Variance scaling laws near bifurcation: quadrature, "
                    "catalog, simulation, and spectra.")
    parser.add_argument("--version", action="version",
                        version=f"ewslab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    laws = subs.add_parser("laws", help="look up a catalog scaling law")
    laws.add_argument("family", choices=["1d", "nd"])
    laws.add_argument("--alpha", type=float, default=2.0)
    laws.add_argument("--gamma", type=float, default=0.0)
    laws.add_argument("--indices", default="1,1",
                      help="comma-separated monomial orders")
    laws.set_defaults(func=cmd_laws)

    sweep = subs.add_parser("sweep", help="closed-form variance sweep over p")
    _add_file_args(sweep, "sweep")
    _add_sweep_args(sweep)
    sweep.add_argument("--threads", type=int, default=1, help="worker threads")
    sweep.add_argument("--dt", type=float, default=0.0,
                       help="include the implicit-scheme correction")
    sweep.set_defaults(func=cmd_sweep)

    spect = subs.add_parser("spectral", help="frequency-space variance sweep")
    _add_file_args(spect, "spectral")
    _add_sweep_args(spect)
    spect.set_defaults(func=cmd_spectral)

    fit = subs.add_parser("fit", help="fit s and k on a sweep CSV")
    _add_file_args(fit, "sweep")
    fit.add_argument("--csv", required=True, help="input sweep CSV")
    fit.add_argument("--window", default=None,
                     help="log10 fit window LO:HI for -p (default: "
                          "smallest two decades)")
    fit.set_defaults(func=cmd_fit)

    sim = subs.add_parser("simulate", help="sample the stationary variance by SPDE runs")
    _add_file_args(sim, "simulate")
    _add_sweep_args(sim, simulation=True)
    sim.add_argument("--p", type=float, required=True)
    _add_sim_args(sim)
    sim.set_defaults(func=cmd_simulate)

    comp = subs.add_parser("compare", help="overlay quadrature, simulation, and the "
                                           "catalog reference line")
    _add_file_args(comp, "compare")
    _add_sweep_args(comp)
    comp.add_argument("--threads", type=int, default=1, help="worker threads")
    comp.add_argument("--sim-points", type=int, default=3)
    comp.add_argument("--sim-decades", default=None,
                      help="log10 range LO:HI for the simulated points "
                           "(default: the widest decade of --p-decades)")
    _add_sim_args(comp)
    comp.set_defaults(func=cmd_compare)

    appx = subs.add_parser("appendix-check", help="resolvent-integral ratio self check")
    appx.add_argument("--m", default="0,1,2", help="comma-separated powers")
    appx.add_argument("--q", type=float, default=1e-10)
    appx.add_argument("--tol", type=float, default=0.05)
    appx.set_defaults(func=cmd_appendix_check)

    if defaults:
        for sub in subs.choices.values():
            for action in sub._actions:
                if action.dest in defaults:
                    action.default = defaults[action.dest]
                    action.required = False
    return parser


def _is_dash_value(tok: str) -> bool:
    """Whether ``tok`` starts with a dash and reads as a number or a decade pair LO:HI."""
    if not tok.startswith("-"):
        return False
    lo, colon, hi = tok.partition(":")
    try:
        if colon:
            int(lo), int(hi)
        else:
            float(tok)
    except ValueError:
        return False
    return True


def _merge_dash_values(argv: list[str]) -> list[str]:
    # Values like -1e-3 or -8:-2 start with a dash, and argparse reads only
    # -digits[.digits] as a number; fold each into --flag=value form.
    merged = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if (tok.startswith("--") and len(tok) > 2 and "=" not in tok
                and i + 1 < len(argv) and _is_dash_value(argv[i + 1])):
            merged.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            merged.append(tok)
    return merged


def main(argv=None) -> int:
    argv = _merge_dash_values(list(sys.argv[1:] if argv is None else argv))
    started = time.monotonic()
    # the subcommand is the first bare token; elsewhere --config stays an unknown flag
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    config_path = pre.parse_known_args(argv)[0].config if command in _WRITING_COMMANDS else None
    try:
        config = _load_config(config_path) if config_path else {}
        args = build_parser(config).parse_args(argv)
        # build_parser drops a key that names no flag of the subcommand; null sets nothing
        flags = vars(args).keys() - {"command", "func"}
        unknown = sorted(k for k, v in config.items() if v is not None and k not in flags)
        if unknown:
            raise ValueError(f"config key {unknown[0]!r} names no flag of {args.command}")
        args._started = started
        return args.func(args)
    except (QuadratureError, LawUnavailableError, ArithmeticError) as exc:
        # ArithmeticError covers the simulation's FloatingPointError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
