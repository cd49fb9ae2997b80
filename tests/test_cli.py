"""Command-line interface: parsing, outputs, manifests, exit codes."""
import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewslab import cli
from ewslab.cli import main, parse_symbol, parse_window
from ewslab.scaling import SweepResult, log_spaced_p
from ewslab.simulate import run
from ewslab.symbols import (
    ConvolutionKernel,
    Piecewise,
    Polynomial,
    PowerWavenumber,
    Radial2D,
    ScalingLaw,
    SwiftHohenberg1D,
    ToolAlpha,
    Zero,
)
from ewslab.quadrature import Disc, IndicatorBox, PowerIndicator, QuarterDisc


def test_symbol_grammar():
    assert isinstance(parse_symbol("tool:2"), ToolAlpha)
    assert parse_symbol("tool:2").alpha == 2.0
    assert isinstance(parse_symbol("zero"), Zero)
    assert parse_symbol("zero:2").dim == 2
    assert isinstance(parse_symbol("radial:3"), Radial2D)
    mono = parse_symbol("mono:2,10")
    assert isinstance(mono, Polynomial)
    assert set(mono.coeffs) == {(2, 10)}
    assert isinstance(parse_symbol("pw:1,2"), Piecewise)
    assert isinstance(parse_symbol("power2m:1"), PowerWavenumber)
    assert isinstance(parse_symbol("sh1d"), SwiftHohenberg1D)
    with pytest.raises(ValueError):
        parse_symbol("warp:9")
    with pytest.raises(ValueError):
        parse_symbol("tool:abc")


def test_symbol_grammar_file_kinds(tmp_path):
    poly_file = tmp_path / "sym.json"
    poly_file.write_text(json.dumps(Polynomial({(1, 1): 1.0}).to_dict()))
    sym = parse_symbol(f"poly:{poly_file}")
    assert isinstance(sym, Polynomial)

    samples = tmp_path / "kernel.txt"
    np.savetxt(samples, np.full(16, -2.0))
    ker = parse_symbol(f"conv:{samples}:0.5")
    assert isinstance(ker, ConvolutionKernel)
    assert ker.spacing == 0.5


def test_window_grammar():
    box = parse_window("box:0,1", 1)
    assert isinstance(box, IndicatorBox)
    box2 = parse_window("box:0,1,-1,1", 2)
    assert box2.lo[1] == -1.0
    assert isinstance(parse_window("cube:0.5", 2), IndicatorBox)
    assert isinstance(parse_window("power:0.25,1", 1), PowerIndicator)
    assert isinstance(parse_window("qdisc:1", 2), QuarterDisc)
    assert isinstance(parse_window("disc:1.5", 2), Disc)
    with pytest.raises(ValueError):
        parse_window("box:0,1", 2)
    with pytest.raises(ValueError):
        parse_window("oval:1", 2)


def test_console_entry_point_reports_version():
    out = subprocess.run([sys.executable, "-m", "ewslab.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "ewslab" in out.stdout


def test_package_runs_as_a_module_from_a_source_checkout():
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "ewslab", "--help"], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "usage: ewslab" in out.stdout


def test_laws_lookup(capsys):
    assert main(["laws", "1d", "--alpha", "2"]) == 0
    assert "s=-0.5 k=0" in capsys.readouterr().out
    assert main(["laws", "nd", "--indices", "1,1"]) == 0
    assert "k=2" in capsys.readouterr().out
    assert main(["laws", "1d", "--alpha", "0.5"]) == 0
    assert "convergent=True" in capsys.readouterr().out


@pytest.mark.parametrize("argv, line", [
    ("1d --alpha 2", "s=-0.5 k=0 convergent=False  "
                     "[one-dim tool family, 2*gamma+alpha > 1 (power divergence)]"),
    ("1d --alpha 1 --gamma 0.25", "s=-0.5 k=0 convergent=False  "
                                  "[one-dim power window, 2*gamma+alpha > 1 (power divergence)]"),
    ("1d --alpha 0.5", "s=0 k=0 convergent=True  "
                       "[one-dim tool family, 2*gamma+alpha < 1 (bounded)]"),
    ("1d --alpha 1", "s=0 k=1 convergent=False  "
                     "[one-dim tool family, 2*gamma+alpha = 1 (log divergence)]"),
    ("nd --indices 1,2,3", "s=-0.666667 k=0 convergent=False  [corner bound, distinct top index 3]"),
    ("nd --indices 0,3,3", "s=-0.666667 k=1 convergent=False  "
                           "[corner bound, top index 3 repeated 2 times]"),
    ("nd --indices 1,1", "s=0 k=2 convergent=False  [corner bound, all indices 1 (log power 2)]"),
])
def test_laws_output_is_pinned(argv, line, capsys):
    assert main(["laws", *argv.split()]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_laws_degenerate_indices_is_usage_error(capsys):
    assert main(["laws", "nd", "--indices", "0,0"]) == 2
    assert "no bifurcation" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--alpha", "--gamma"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_laws_rejects_non_finite_input(flag, value, capsys):
    assert main(["laws", "1d", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag[2:]} must be finite" in captured.err


def _laws_line(argv):
    """(s, k, convergent, label) of one ``laws`` line, parsed back."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["laws", *argv]) == 0
    m = re.fullmatch(r"s=(\S+) k=(\d+) convergent=(True|False)  \[(.*)\]\n", out.getvalue())
    return float(m[1]), int(m[2]), m[3] == "True", m[4]


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 8.0, exclude_min=True), st.floats(0.0, 0.5, exclude_max=True))
def test_one_dim_label_names_the_regime_of_the_printed_law(alpha, gamma):
    s, k, convergent, case = _laws_line(["1d", f"--alpha={alpha!r}", f"--gamma={gamma!r}"])
    family = "one-dim power window" if gamma > 0 else "one-dim tool family"
    balance = 2.0 * gamma + alpha
    if convergent:
        assert balance < 1.0 and case == f"{family}, 2*gamma+alpha < 1 (bounded)"
    elif (s, k) == (0.0, 1):
        assert balance == 1.0 and case == f"{family}, 2*gamma+alpha = 1 (log divergence)"
    else:
        assert balance > 1.0 and s < 0.0 and k == 0
        assert case == f"{family}, 2*gamma+alpha > 1 (power divergence)"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=4).filter(any))
def test_corner_label_matches_the_printed_law(j):
    s, k, convergent, case = _laws_line(["nd", "--indices", ",".join(map(str, j))])
    top = max(j)
    repeats = j.count(top)
    assert not convergent
    if top == 1:
        assert (s, k) == (0.0, repeats)
        assert case == f"corner bound, all indices 1 (log power {repeats})"
        return
    # s = -1 + 1/top, printed to six significant digits; one logarithm per extra repeat
    assert s == pytest.approx(-1.0 + 1.0 / top, rel=1e-5) and k == repeats - 1
    row = f"distinct top index {top}" if repeats == 1 else f"top index {top} repeated {repeats} times"
    assert case == f"corner bound, {row}"


def test_sweep_writes_monotone_csv_and_manifest(tmp_path):
    out = tmp_path / "run"
    code = main(["sweep", "--symbol", "tool:2", "--g", "box:0,1",
                 "--p-decades", "-6:-2", "--points", "12",
                 "--out", str(out), "--svg"])
    assert code == 0
    sweep = SweepResult.from_csv((out / "sweep.csv").read_text())
    assert len(sweep.ps) == 12
    assert all(a < b for a, b in zip(sweep.values, sweep.values[1:]))
    assert (out / "sweep.svg").exists()
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["params"]["symbol"] == "tool:2"
    assert "sweep.csv" in manifest["outputs"]
    assert manifest["tool"] == "ewslab"


def test_manifest_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["sweep", "--symbol", "tool:1", "--g", "box:0,1",
            "--p-decades", "-5:-2", "--points", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(["sweep", "--config", str(a / "sweep_manifest.json"),
                 "--out", str(b)]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_manifest_replay_restores_the_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--symbol", "tool:2", "--g", "box:-0.5,0.5", "--p", "-0.5",
                 "--n", "19", "--nt", "4000", "--replicas", "2", "--seed", "5",
                 "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(a / "simulate_manifest.json"),
                 "--out", str(b)]) == 0
    assert (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()
    assert json.loads((b / "simulate_manifest.json").read_text())["seed"] == 5


def test_no_subcommand_takes_a_tolerance(tmp_path):
    # the quadrature picks its own tolerance, by the symbol's dimension
    assert not [name for name, sub in _subcommands().items()
                if "--rel-tol" in sub._option_string_actions]
    for command, symbol, window in (("sweep", "tool:2", "box:0,1"),
                                    ("spectral", "sh1d", "box:-2,2")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--symbol", symbol, "--g", window, "--p-decades=-9:-3",
                  "--points", "3", "--rel-tol", "1e-10", "--out", str(tmp_path)])
        assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


# the params of a spectral manifest written before --rel-tol went
_OLD_SPECTRAL_PARAMS = {"g": "box:-2,2", "p_decades": "-5:-2", "points": 5, "prefix": "spectral",
                        "sigma": 1.0, "svg": False, "symbol": "sh1d"}


def _old_manifest(path, rel_tol):
    path.write_text(json.dumps({"tool": "ewslab", "version": "0.1.0", "command": "spectral",
                                "params": {**_OLD_SPECTRAL_PARAMS, "rel_tol": rel_tol},
                                "seed": 0, "outputs": ["spectral.csv"], "duration_s": 0.01}))
    return path


def test_config_replays_a_null_key_that_names_no_flag(tmp_path):
    # every manifest written with --rel-tol unset holds "rel_tol": null
    fresh, replay = tmp_path / "fresh", tmp_path / "replay"
    assert main(["spectral", "--symbol", "sh1d", "--g", "box:-2,2", "--p-decades=-5:-2",
                 "--points", "5", "--out", str(fresh)]) == 0
    config = _old_manifest(tmp_path / "old.json", None)
    assert main(["spectral", "--config", str(config), "--out", str(replay)]) == 0
    assert (fresh / "spectral.csv").read_bytes() == (replay / "spectral.csv").read_bytes()
    params = json.loads((replay / "spectral_manifest.json").read_text())["params"]
    assert params == _OLD_SPECTRAL_PARAMS


def test_config_refuses_a_key_that_names_no_flag(tmp_path, capsys):
    # a manifest written with --rel-tol 1e-10 would replay at another tolerance
    config = _old_manifest(tmp_path / "old.json", 1e-10)
    assert main(["spectral", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
    assert "config key 'rel_tol' names no flag of spectral" in capsys.readouterr().err
    # a typo in a bare params file, and a flag of another subcommand
    for key, command in (("point", "sweep"), ("threads", "spectral"), ("command", "sweep")):
        params = tmp_path / f"{key}.json"
        params.write_text(json.dumps({"symbol": "tool:2", "g": "box:0,1", "p_decades": "-5:-2",
                                      key: 6 if key != "command" else "sweep"}))
        assert main([command, "--config", str(params), "--out", str(tmp_path / "o")]) == 3
        assert f"config key {key!r} names no flag of {command}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_flags_can_be_overridden(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "symbol": "tool:2", "g": "box:0,1", "p_decades": "-5:-2",
        "points": 6,
    }))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--points", "4",
                 "--out", str(out)]) == 0
    sweep = SweepResult.from_csv((out / "sweep.csv").read_text())
    assert len(sweep.ps) == 4


def test_fit_recovers_synthetic_power_law(tmp_path, capsys):
    qs = np.logspace(-6, -2, 24)
    rows = ["p,value,stderr,source"]
    rows += [f"{-float(q)!r},{2.0 * float(q) ** -0.5!r},0.0,quadrature" for q in qs]
    csv = tmp_path / "series.csv"
    csv.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--csv", str(csv), "--out", str(tmp_path)]) == 0
    seen = capsys.readouterr().out
    assert "classified: s=-0.5" in seen
    summary = json.loads((tmp_path / "sweep_fit.json").read_text())
    assert abs(summary["s"] + 0.5) < 1e-6
    assert abs(summary["k"]) < 1e-6


def test_fit_window_and_figure(tmp_path, capsys):
    # a pure power law in the top decades and a log law below: the window
    # picks the decades that are fitted
    qs = np.logspace(-8, -2, 25)
    values = [float(q) ** -0.5 if q > 1e-5 else -math.log(float(q)) for q in qs]
    rows = ["p,value,stderr,source"] + [f"{-float(q)!r},{v!r},0.0,quadrature"
                                        for q, v in zip(qs, values)]
    csv = tmp_path / "series.csv"
    csv.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--csv", str(csv), "--window", "-4:-2", "--svg",
                 "--out", str(tmp_path)]) == 0
    assert "classified: s=-0.5" in capsys.readouterr().out
    summary = json.loads((tmp_path / "sweep_fit.json").read_text())
    assert abs(summary["s"] + 0.5) < 1e-6 and summary["points"] == 25
    svg = (tmp_path / "sweep_fit.svg").read_text()
    assert svg.startswith("<svg") and "fitted slope -0.50" in svg
    manifest = json.loads((tmp_path / "sweep_fit_manifest.json").read_text())
    assert manifest["outputs"] == ["sweep_fit.json", "sweep_fit.svg"]
    # fewer than 8 points inside the window
    assert main(["fit", "--csv", str(csv), "--window", "-3:-2", "--out", str(tmp_path)]) == 3


def test_fit_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("p,value,stderr,source\n-0.1,1.0,0.0,quadrature\n-0.01,x,0.0,quadrature\n")
    assert main(["fit", "--csv", str(bad), "--out", str(tmp_path)]) == 3
    assert "row 3" in capsys.readouterr().err


def test_fit_rejects_nonnegative_p(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("p,value,stderr,source\n" +
                   "\n".join(f"{p},1.0,0.0,quadrature" for p in
                             [-1e-3, -1e-4, 0.5]) + "\n")
    assert main(["fit", "--csv", str(bad), "--out", str(tmp_path)]) == 3


def test_simulate_with_a_quarter_disc_window(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--symbol", "radial:2", "--g", "qdisc:0.5", "--n", "15",
                 "--nt", "200", "--p", "-5", "--out", str(out)]) == 0
    sweep = SweepResult.from_csv((out / "simulate.csv").read_text())
    assert 0.0 < sweep.values[0] < math.inf


def test_simulate_writes_single_row(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "--symbol", "zero", "--g", "box:-1,1",
                 "--p", "-1", "--n", "1", "--half-width", "1",
                 "--dt", "0.1", "--nt", "4000", "--replicas", "2",
                 "--unweighted", "--out", str(out)])
    assert code == 0
    sweep = SweepResult.from_csv((out / "simulate.csv").read_text())
    assert sweep.source == "simulation"
    assert len(sweep.ps) == 1
    assert "predicted discrete" in capsys.readouterr().out
    # the single-mode chain targets 1/2.1
    assert abs(sweep.values[0] - 1.0 / 2.1) < 0.1


def test_spectral_sweep_and_law(tmp_path, capsys):
    out = tmp_path / "spec"
    code = main(["spectral", "--symbol", "power2m:1", "--g", "box:-1,1",
                 "--p-decades", "-6:-3", "--points", "8", "--out", str(out)])
    assert code == 0
    assert "predicted law: s=-0.5" in capsys.readouterr().out
    sweep = SweepResult.from_csv((out / "spectral.csv").read_text())
    assert sweep.source == "spectral"


def test_spectral_kernel_on_its_zero_has_no_predicted_law(tmp_path, capsys):
    # the discrete Laplacian kernel: multiplier 2 cos(k) - 2 <= 0, zero at k = 0
    kernel = _kernel_files(str(tmp_path))["laplace"]
    assert main(["spectral", "--symbol", f"conv:{kernel}", "--g", "box:-1,1",
                 "--p-decades=-6:-2", "--points", "4", "--out", str(tmp_path)]) == 0
    assert "predicted law: unavailable (sampled kernels" in capsys.readouterr().out
    values = SweepResult.from_csv((tmp_path / "spectral.csv").read_text()).values
    assert all(v > 0 for v in values)


def test_compare_overlay_annotates_fitted_slope(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", "--symbol", "tool:2", "--g", "box:-0.5,0.5",
                 "--p-decades", "-8:-2", "--points", "30",
                 "--sim-points", "2", "--sim-decades", "-1:0",
                 "--n", "49", "--nt", "6000", "--dt", "0.05",
                 "--replicas", "2", "--svg", "--out", str(out)])
    assert code == 0
    svg = (out / "compare.svg").read_text()
    assert "fitted slope -0.50" in svg
    assert "reference slope -0.5" in svg
    quad = SweepResult.from_csv((out / "compare_quadrature.csv").read_text())
    sim = SweepResult.from_csv((out / "compare_simulation.csv").read_text())
    assert quad.source == "quadrature" and sim.source == "simulation"
    manifest = json.loads((out / "compare_manifest.json").read_text())
    assert set(manifest["outputs"]) >= {
        "compare_quadrature.csv", "compare_simulation.csv", "compare.svg"}


def test_compare_writes_a_figure_only_with_svg(tmp_path, capsys):
    assert main(["compare", *_WRITING_ARGV["compare"], "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "compare_manifest.json").read_text())
    assert manifest["outputs"] == ["compare_quadrature.csv", "compare_simulation.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "compare_manifest.json", "compare_quadrature.csv", "compare_simulation.csv"]


def test_compare_reference_line_uses_the_window(tmp_path):
    # x**(-1/4) on (0, 1] shifts the tool-1 law from a logarithm to s = -1/2
    out = tmp_path / "cmp"
    assert main(["compare", "--symbol", "tool:1", "--g", "power:0.25,1",
                 "--p-decades", "-6:-1", "--points", "24",
                 "--sim-points", "2", "--sim-decades", "-1:0",
                 "--n", "49", "--nt", "3000", "--dt", "0.05",
                 "--replicas", "2", "--svg", "--out", str(out)]) == 0
    assert "reference slope -0.5<" in (out / "compare.svg").read_text()


def test_compare_draws_the_curve_of_a_log_law(tmp_path, capsys):
    # tool:1 on a box diverges like log(1/q): a reference line of slope 0 would lie flat
    assert main(["compare", "--symbol", "tool:1", "--g", "box:-1,1", "--p-decades=-6:-1",
                 "--points", "24", "--sim-points", "2", "--sim-decades=-1:0", "--n", "39",
                 "--nt", "3000", "--burn-in", "0", "--replicas", "2", "--svg",
                 "--out", str(tmp_path)]) == 0
    svg = (tmp_path / "compare.svg").read_text()
    assert "reference slope" not in svg and "reference law s=0 k=1<" in svg
    quad = SweepResult.from_csv((tmp_path / "compare_quadrature.csv").read_text())
    (curve,) = cli._law_curve(ScalingLaw(0.0, 1), quad)
    q0, v0 = -quad.ps[0], quad.values[0]
    assert curve.x == tuple(-quad.ps) and curve.y[0] == v0 and not curve.markers
    for q, v, law_v in zip(curve.x, quad.values, curve.y):
        assert math.isclose(law_v, v0 * math.log(q) / math.log(q0), rel_tol=1e-14)
        assert abs(law_v / v - 1.0) < 0.05, (q, v, law_v)
    # the curve needs two points with log(1/q) > 0
    assert cli._law_curve(ScalingLaw(0.0, 1), SweepResult([-10.0, -0.1], [1.0, 2.0])) == []
    three = cli._law_curve(ScalingLaw(-0.5, 2), SweepResult([-2.0, -0.1, -0.01], [1.0, 2.0, 3.0]))
    assert three[0].x == (0.1, 0.01)
    assert math.isclose(three[0].y[1], 2.0 * 0.1 ** -0.5 * 2.0 ** 2, rel_tol=1e-14)


@pytest.mark.parametrize("box, reference", [
    ("0,1,0,1", "reference slope -0.5<"),
    # x**2 + y**2 stays bounded on [1/2, 1]**2: no corner law, no line
    ("0.5,1,0.5,1", None),
])
def test_compare_reference_line_of_a_polynomial_needs_the_root_in_the_box(
        tmp_path, box, reference):
    poly = tmp_path / "bowl.json"
    poly.write_text(json.dumps(Polynomial({(2, 0): 1.0, (0, 2): 1.0}).to_dict()))
    assert main(["compare", "--symbol", f"poly:{poly}", "--g", f"box:{box}",
                 "--p-decades", "-8:-2", "--points", "24",
                 "--sim-points", "2", "--sim-decades", "-1:0",
                 "--n", "15", "--nt", "2000", "--dt", "0.05",
                 "--replicas", "2", "--svg", "--out", str(tmp_path)]) == 0
    svg = (tmp_path / "compare.svg").read_text()
    assert "fitted slope" in svg
    if reference is None:
        assert "reference slope" not in svg
    else:
        assert reference in svg


def test_compare_checks_the_fit_window_before_simulating(tmp_path, monkeypatch, capsys):
    calls = []

    def refuse(configs):
        calls.append(configs)
        raise RuntimeError("compare simulated before fitting")

    monkeypatch.setattr(cli, "run_sweep", refuse)
    assert main(["compare", "--symbol", "tool:2", "--g", "box:-0.5,0.5",
                 "--p-decades", "-6:-1", "--points", "6", "--out", str(tmp_path)]) == 3
    assert "need >= 8" in capsys.readouterr().err
    assert calls == []


def test_compare_checks_simulation_flags_before_the_quadrature_sweep(
        tmp_path, monkeypatch, capsys):
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("compare ran the quadrature sweep before checking --nt")

    monkeypatch.setattr(cli, "quadrature_sweep", refuse)
    assert main(["compare", "--symbol", "tool:2", "--g", "box:-0.5,0.5", "--p-decades",
                 "-6:-1", "--nt", "5", "--out", str(tmp_path)]) == 3
    assert "nt must be at least 10" in capsys.readouterr().err
    assert calls == []


def _subcommands():
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _grammar_heads(section):
    """The heads of the specs in the first column of one README grammar table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split(f"### {section}", 1)[1].split("\n#", 1)[0]
    specs = [row.split("|")[1] for row in table.splitlines() if row.startswith("| `")]
    return {re.match(r"[a-z0-9]+", spec).group()
            for cell in specs for spec in re.findall(r"`([^`]+)`", cell)}


def test_help_and_readme_show_every_head_the_parsers_accept(capsys):
    # an unknown head points to --help for the grammar
    for parse, grammar in ((parse_symbol, cli.SYMBOL_FORMS),
                           (lambda t: parse_window(t, 1), cli.WINDOW_FORMS)):
        with pytest.raises(ValueError, match="see --help for the grammar$"):
            parse("warp:9")
        for head, (form, _) in grammar.items():
            assert re.match(r"[a-z0-9]+", form).group() == head
    assert _grammar_heads("Symbol grammar") == set(cli.SYMBOL_FORMS)
    assert _grammar_heads("Window grammar") == set(cli.WINDOW_FORMS)
    taking = {name for name, sub in _subcommands().items() if "--symbol" in sub._option_string_actions}
    assert taking == {"sweep", "spectral", "simulate", "compare"}
    for name in sorted(taking):
        with pytest.raises(SystemExit):
            main([name, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for form, _ in (*cli.SYMBOL_FORMS.values(), *cli.WINDOW_FORMS.values()):
            assert form in text, (name, form)


def test_only_sweep_and_compare_take_threads():
    assert {name for name, sub in _subcommands().items()
            if "--threads" in sub._option_string_actions} == {"sweep", "compare"}


def test_only_the_writing_subcommands_take_file_flags():
    writing = {"sweep", "spectral", "fit", "simulate", "compare"}
    assert cli._WRITING_COMMANDS == writing
    for flag in ("--out", "--seed", "--prefix", "--svg", "--config"):
        assert {name for name, sub in _subcommands().items()
                if flag in sub._option_string_actions} == writing, flag
    for argv in (["laws", "1d", "--out", "x"], ["appendix-check", "--svg"],
                 ["laws", "1d", "--config", "missing.json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


_WRITING_ARGV = {
    "sweep": ["--symbol", "tool:2", "--g", "box:0,1", "--p-decades=-6:-2", "--points", "24"],
    "spectral": ["--symbol", "power2m:1", "--g", "box:-1,1", "--p-decades=-6:-3", "--points", "4"],
    "simulate": ["--symbol", "tool:2", "--g", "box:-0.5,0.5", "--p", "-0.5", "--n", "9",
                 "--nt", "2000", "--replicas", "2"],
    "compare": ["--symbol", "tool:2", "--g", "box:-0.5,0.5", "--p-decades=-6:-1",
                "--points", "24", "--sim-points", "2", "--sim-decades=-1:0", "--n", "9",
                "--nt", "2000", "--dt", "0.05", "--replicas", "2"],
}


@pytest.mark.parametrize("command", ["sweep", "spectral", "fit", "simulate", "compare"])
def test_manifest_records_every_parsed_parameter(tmp_path, command, capsys):
    if command == "fit":
        assert main(["sweep", *_WRITING_ARGV["sweep"], "--out", str(tmp_path)]) == 0
        argv = ["--csv", str(tmp_path / "sweep.csv")]
    else:
        argv = _WRITING_ARGV[command]
    assert main([command, *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    stem = {"fit": "sweep_fit"}.get(command, command)
    manifest = json.loads((tmp_path / f"{stem}_manifest.json").read_text())
    dests = {a.dest for a in _subcommands()[command]._actions}
    assert set(manifest["params"]) == dests - {"help", "config", "out", "seed"}


def test_compare_simulation_csv_equals_per_p_runs(tmp_path):
    # the shared draws of one sweep keep every p on its own stream
    argv = ["compare", "--symbol", "tool:2", "--g", "box:-0.5,0.5",
            "--p-decades", "-6:-1", "--points", "24", "--sim-points", "3",
            "--sim-decades", "-1:0", "--n", "49", "--nt", "3000", "--dt", "0.05",
            "--noise-rank", "8", "--replicas", "2", "--seed", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    args = cli.build_parser().parse_args(cli._merge_dash_values(argv))
    symbol, g = parse_symbol(args.symbol), parse_window(args.g, 1)
    ps = log_spaced_p(-1, 0, 3)
    estimates = [run(config) for config in cli._sim_configs(args, symbol, g, ps)]
    want = SweepResult(ps, [e.variance for e in estimates], [e.stderr for e in estimates],
                       "simulation").to_csv()
    assert (tmp_path / "compare_simulation.csv").read_bytes().decode("utf-8") == want


def test_appendix_check_exit_codes(capsys):
    assert main(["appendix-check"]) == 0
    capsys.readouterr()
    assert main(["appendix-check", "--q", "1e-2", "--tol", "0.01"]) == 4
    assert "exceeds tolerance" in capsys.readouterr().err
    assert main(["appendix-check", "--q", "2.0"]) == 3
    assert main(["appendix-check", "--q", "1e-200"]) == 0
    assert main(["appendix-check", "--q", "1e-320"]) == 0
    capsys.readouterr()
    # a tolerance that no ratio can exceed would turn the check off
    for tol in ("nan", "inf", "0", "-1"):
        assert main(["appendix-check", f"--tol={tol}"]) == 3, tol
        captured = capsys.readouterr()
        assert "tol must be a finite positive number" in captured.err
        assert "all ratios within" not in captured.out


def test_sweep_reaches_the_kernel_and_ring_multiplier_routes(tmp_path):
    # samples of the kernel with multiplier -(k^2 - 1)^2, spacing 0.25
    n, dx = 128, 0.25
    k = 2 * math.pi * np.fft.fftfreq(n, d=dx)
    kernel = tmp_path / "K.txt"
    np.savetxt(kernel, np.real(np.fft.ifft(-(k ** 2 - 1.0) ** 2)) / dx, fmt="%.17g")
    for symbol, window in ((f"conv:{kernel}:0.25", "box:-3,3"), ("sh2d", "disc:1.5")):
        values = {}
        for command in ("sweep", "spectral"):
            assert main([command, "--symbol", symbol, "--g", window, "--p-decades", "-8:-2",
                         "--out", str(tmp_path), "--prefix", command]) == 0, (command, symbol)
            csv = SweepResult.from_csv((tmp_path / f"{command}.csv").read_text())
            values[command] = np.asarray(csv.values)
        if symbol == "sh2d":
            # the sweep runs at the looser multi-dimensional default tolerance
            np.testing.assert_allclose(values["sweep"], values["spectral"], rtol=1e-6)
        else:
            assert np.array_equal(values["sweep"], values["spectral"])


def test_spectral_ring_multiplier_on_a_quarter_disc_is_a_quarter_of_the_disc(tmp_path):
    values = {}
    for window in ("disc:1.5", "qdisc:1.5"):
        assert main(["spectral", "--symbol", "sh2d", "--g", window, "--p-decades=-6:-3",
                     "--points", "4", "--out", str(tmp_path), "--prefix", window[:4]]) == 0
        csv = SweepResult.from_csv((tmp_path / f"{window[:4]}.csv").read_text())
        values[window] = np.asarray(csv.values)
    np.testing.assert_allclose(values["qdisc:1.5"], values["disc:1.5"] / 4.0, rtol=1e-14)


def test_sweep_off_the_root_writes_the_closed_form(tmp_path):
    # box:1e-9,1 misses the root of -x**2; the exact variance is
    # (atan(sqrt(q) / 1e-9) - atan(sqrt(q))) / (2 sqrt(q)), about 5e8 here
    assert main(["sweep", "--symbol", "tool:2", "--g", "box:1e-9,1", "--p-decades=-24:-20",
                 "--out", str(tmp_path)]) == 0
    sweep = SweepResult.from_csv((tmp_path / "sweep.csv").read_text())
    for p, value in zip(sweep.ps, sweep.values):
        s = math.sqrt(-p)
        want = 0.5 * (math.atan(s / 1e-9) - math.atan(s)) / s
        assert value > 0 and math.isclose(value, want, rel_tol=1e-10), p


def test_sweep_of_a_piecewise_symbol_on_a_power_window(tmp_path):
    # only the right side, -x**2, meets the window (0, 1]
    assert main(["sweep", "--symbol", "pw:1,2", "--g", "power:0.25,1", "--p-decades=-9:-3",
                 "--points", "4", "--out", str(tmp_path), "--prefix", "pw"]) == 0
    assert main(["sweep", "--symbol", "tool:2", "--g", "power:0.25,1", "--p-decades=-9:-3",
                 "--points", "4", "--out", str(tmp_path), "--prefix", "tool"]) == 0
    got = SweepResult.from_csv((tmp_path / "pw.csv").read_text()).values
    want = SweepResult.from_csv((tmp_path / "tool.csv").read_text()).values
    np.testing.assert_allclose(got, want, rtol=1e-8)


def test_side_integrals_past_the_overflow_of_the_layer_scale(tmp_path):
    # q**(-1/alpha) overflows at alpha = 0.5 and 0.75 and q = 1e-300; the
    # values are (1 - q log1p(1/q)) and (pi/2) (1 - O(q**(1/3)))
    for symbol, window, want in (("tool:0.5", "box:0,1", 1.0), ("radial:1.5", "qdisc:1",
                                                                  math.pi / 2)):
        assert main(["sweep", "--symbol", symbol, "--g", window, "--p-decades=-300:-299",
                     "--points", "2", "--out", str(tmp_path)]) == 0
        sweep = SweepResult.from_csv((tmp_path / "sweep.csv").read_text())
        assert sweep.ps.tolist() == [-1e-299, -1e-300]
        for value in sweep.values:
            assert math.isclose(value, want, rel_tol=1e-12), (symbol, value)


def test_overflowing_side_integral_exits_4(tmp_path, capsys):
    # the variance, about q**(1/alpha - 1) = 10**316 at alpha = 100, is past
    # the largest double
    assert main(["sweep", "--symbol", "tool:100", "--g", "box:0,1", "--p-decades=-320:-319",
                 "--points", "2", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "overflows" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


_SIMULATE = ["simulate", "--symbol", "tool:2", "--g", "box:-0.5,0.5", "--p=-0.5", "--nt", "3000"]
_COMPARE = ["compare", "--symbol", "tool:2", "--g", "box:-0.5,0.5", "--p-decades=-3:-1",
            "--n", "39", "--sim-decades=-1:0", "--nt", "6000"]


# each value or prediction is past the largest double here: the quadrature
# at p = -0.1 is 3.18 sigma**2, the prediction at p = -0.5 is 8.7e-3 sigma**2
# and 3.8e-4 sigma**2 with the rank-4 noise of seed 0
@pytest.mark.parametrize("argv", [
    ["sweep", "--symbol", "tool:2", "--g", "box:-0.5,0.5", "--p-decades=-3:-1",
     "--sigma", "1e200"],
    ["spectral", "--symbol", "power2m:1", "--g", "box:-0.5,0.5", "--p-decades=-3:-1",
     "--sigma", "1e200"],
    [*_COMPARE, "--sigma", "1e200"],
    [*_COMPARE, "--sigma", "1e155", "--noise-rank", "4"],
    [*_SIMULATE, "--sigma", "1e200"],
    [*_SIMULATE, "--sigma", "1e156"],
    [*_SIMULATE, "--sigma", "1e200", "--noise-rank", "4"],
    [*_SIMULATE, "--sigma", "1e157", "--noise-rank", "4"],
])
def test_a_huge_sigma_exits_4_and_writes_nothing(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
    assert "is inf, not a positive double" in err
    assert not list(tmp_path.iterdir())


# the simulated variance and error, taken on scaled series, stay finite
# wherever the variance does
@pytest.mark.parametrize("argv", [
    [*_COMPARE, "--sigma", "1e80", "--noise-rank", "4"],
    [*_SIMULATE, "--sigma", "1e154"],
    [*_SIMULATE, "--sigma", "1e150"],
    [*_SIMULATE, "--sigma", "1e150", "--noise-rank", "4"],
    # sigma**2 overflows, the prediction (8.7e307) and the simulated
    # variance do not
    [*_SIMULATE, "--sigma", "1e155"],
])
def test_a_large_sigma_below_the_largest_variance_exits_0_with_finite_values(argv, tmp_path):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("*.csv"))
    assert any("simulat" in path.name for path in paths), paths
    for path in paths:
        _csv_rows(path, simulated="simulat" in path.name)


@pytest.mark.parametrize("dt", ["1e-300", "5e-324"])
def test_a_vanishing_dt_writes_the_bytes_of_dt_0(dt, tmp_path):
    # V(q + 2/dt) is below the last bit of V(q), or 2/dt overflows: the
    # correction is 0, and the value that of dt = 0
    for symbol, window in (("tool:2", "box:-0.5,0.5"), ("sh1d", "box:-2,2"),
                           ("radial:2", "disc:1"), ("mono:2,4", "box:-1,1,0,1")):
        texts = []
        for value in ("0", dt):
            out = tmp_path / symbol / value
            assert main(["sweep", "--symbol", symbol, "--g", window, "--p-decades=-6:-1",
                         "--points", "6", "--dt", value, "--out", str(out)]) == 0
            texts.append((out / "sweep.csv").read_bytes())
        assert texts[0] == texts[1], symbol


def test_a_cancelling_scheme_correction_exits_4(tmp_path, capsys):
    # V(q) - V(q + 2/dt) cancels by R = 1 + dt q = 1e10 for f = 0
    assert main(["sweep", "--symbol", "zero", "--g", "box:0,2", "--p-decades=-1:0",
                 "--points", "2", "--dt", "1e10", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "V(q) - V(q + 2/dt) cancels" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_validation_errors_exit_3(tmp_path, capsys):
    assert main(["sweep", "--symbol", "tool:2", "--g", "box:0,1",
                 "--p-decades", "-2:-8", "--out", str(tmp_path)]) == 3
    assert "validation error" in capsys.readouterr().err
    assert main(["sweep", "--symbol", "tool:0", "--g", "box:0,1",
                 "--p-decades", "-8:-2", "--out", str(tmp_path)]) == 3
    for flag in ("--sigma", "--dt"):
        assert main(["sweep", "--symbol", "tool:2", "--g", "box:0,1", "--p-decades", "-4:-2",
                     flag, "nan", "--out", str(tmp_path)]) == 3
    for bad in (["--sigma", "nan"], ["--p", "nan"], ["--dt", "inf"]):
        # the last occurrence of a repeated flag wins
        assert main(["simulate", "--symbol", "tool:2", "--g", "box:-0.5,0.5", "--p", "-0.5",
                     "--n", "9", "--nt", "200", *bad, "--out", str(tmp_path)]) == 3
    # non-finite numbers inside symbol and window specs
    for symbol, window in (("tool:nan", "box:0,1"), ("pw:nan,2", "box:-1,1"),
                           ("tool:2", "box:nan,1"), ("tool:1", "power:0.25,nan"),
                           ("radial:nan", "qdisc:1"), ("radial:2", "qdisc:nan"),
                           ("radial:2", "disc:inf")):
        assert main(["sweep", "--symbol", symbol, "--g", window, "--p-decades", "-4:-2",
                     "--points", "3", "--out", str(tmp_path)]) == 3, (symbol, window)
    assert main(["spectral", "--symbol", "sh2d", "--g", "disc:2", "--p-decades", "-4:-2",
                 "--points", "3", "--sigma", "nan", "--out", str(tmp_path)]) == 3
    # a physical-space symbol has no frequency route
    assert main(["spectral", "--symbol", "tool:2", "--g", "box:0,1", "--p-decades", "-4:-2",
                 "--points", "3", "--out", str(tmp_path)]) == 3
    assert "symbol must be one of the frequency multiplier kinds" in capsys.readouterr().err
    # the tensor route grades toward the origin, not toward the ring |k| = 1
    assert main(["sweep", "--symbol", "sh2d", "--g", "box:0,1.5,0,1.5", "--p-decades=-6:-3",
                 "--points", "4", "--out", str(tmp_path)]) == 3
    assert "unsupported combination" in capsys.readouterr().err
    # a sampled kernel takes box windows only: its interpolant has a kink at every node
    kernel = _kernel_files(str(tmp_path))["laplace"]
    for command in ("sweep", "spectral"):
        assert main([command, "--symbol", f"conv:{kernel}", "--g", "power:0.2,0.3",
                     "--p-decades=-6:-2", "--points", "4", "--out", str(tmp_path)]) == 3
        assert "unsupported combination" in capsys.readouterr().err
    assert main(["simulate", "--symbol", "tool:2", "--g", "box:-0.5,0.5", "--p", "-0.5",
                 "--n", "9", "--nt", "200", "--half-width", "nan", "--out", str(tmp_path)]) == 3
    # drifts that turn positive inside the window: the 1-D, the tensor and the kernel
    # routes, this one with the multiplier 2 - 2 cos k
    rising = tmp_path / "rising.txt"
    np.savetxt(rising, [2.0, -1.0] + [0.0] * 12 + [-1.0])
    for symbol, window in (("mono:1", "box:-1,1"), ("mono:1,2", "box:-1,1,-1,1"),
                           (f"conv:{rising}:1", "box:-1,1")):
        assert main(["sweep", "--symbol", symbol, "--g", window, "--p-decades=-4:-2",
                     "--points", "3", "--out", str(tmp_path)]) == 3, (symbol, window)
        assert "drift + p is not negative on the window" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_negative_values_in_exponent_form_are_values(tmp_path, capsys):
    # argparse reads only -digits[.digits] as a number, so -1e-3 would be an option
    argv = ["simulate", "--symbol", "tool:2", "--g", "box:-0.5,0.5", "--n", "9", "--nt", "400",
            "--burn-in", "0", "--replicas", "2", "--batches", "4"]
    for p, out in (("-1e-3", tmp_path / "a"), ("-0.001", tmp_path / "b")):
        assert main([*argv, "--p", p, "--out", str(out)]) == 0
    assert (tmp_path / "a" / "simulate.csv").read_bytes() == \
        (tmp_path / "b" / "simulate.csv").read_bytes()
    assert main([*argv, "--p", "-0.5", "--sigma", "-1e-3", "--out", str(tmp_path)]) == 3
    assert "sigma must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    [{"kind": "polynomial"}],
    {"kind": "polynomial", "coeffs": [{"index": [1, 1]}]},
    {"kind": "polynomial", "root": [0.0, 0.0]},
], ids=["list", "entry-without-coeff", "no-coeffs"])
def test_malformed_symbol_file_exit_3(tmp_path, capsys, content):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(content))
    assert main(["sweep", "--symbol", f"poly:{path}", "--g", "box:0,1,0,1",
                 "--p-decades", "-4:-2", "--points", "3", "--out", str(tmp_path)]) == 3
    assert "bad symbol spec" in capsys.readouterr().err


def test_a_tensor_sweep_past_its_evaluation_budget_exits_4(tmp_path, capsys):
    # the cross term keeps the 3-D box on the tensor levels, whose level at
    # p = -1e-4 needs more evaluations than EVAL_CAP leaves it
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(Polynomial(
        {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (1, 1, 0): 0.5}).to_dict()))
    out = tmp_path / "out"
    assert main(["sweep", "--symbol", f"poly:{path}", "--g", "box:-1,1,-1,1,-1,1",
                 "--p-decades=-4:-2", "--points", "3", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
    assert "over the remaining budget" in err
    assert not out.exists() or not list(out.iterdir())


def test_missing_input_file_exit_3(tmp_path):
    assert main(["fit", "--csv", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path)]) == 3


_REAL = st.floats(0.3, 6.0)
# log-uniform over [1e-3, 1e200]: the variance, a multiple of sigma**2,
# overflows where that multiple passes the largest double, between sigma
# near 1e154 and 1e156 for these symbols; the quadrature, the prediction and
# the start factor take sigma**2 split by a power of two, and a simulation
# its variance and error on series scaled by one, so each overflows only
# with its own value
_SIGMA = st.floats(-3.0, 200.0).map(lambda e: repr(10.0 ** e))


@st.composite
def _power_law_sweeps(draw):
    """``sweep`` argument lists over the power-law, polar and generic 1-D routes."""
    kind = draw(st.sampled_from(("tool", "pw", "power2m", "mono", "radial", "sh2d")))
    if kind in ("radial", "sh2d"):
        symbol = f"radial:{draw(_REAL)!r}" if kind == "radial" else "sh2d"
        shape = draw(st.sampled_from(("qdisc", "disc"))) if kind == "radial" else "disc"
        window = f"{shape}:{draw(st.floats(0.1, 2.0))!r}"
    else:
        symbol = {"tool": lambda: f"tool:{draw(_REAL)!r}",
                  "pw": lambda: f"pw:{draw(_REAL)!r},{draw(_REAL)!r}",
                  "power2m": lambda: f"power2m:{draw(st.integers(1, 3))}",
                  "mono": lambda: f"mono:{draw(st.integers(1, 6))}"}[kind]()
        # every 1-D symbol here has its root at 0
        width = draw(st.floats(0.01, 2.0))
        gap = 10.0 ** draw(st.floats(-12.0, math.log10(0.5)))
        lo = draw(st.sampled_from((-width * draw(st.floats(0.05, 0.95)), 0.0, -width,
                                   gap, -gap - width, None)))
        if lo is None:
            window = f"power:{draw(st.floats(0.0, 0.5, exclude_max=True))!r},{width!r}"
        else:
            window = f"box:{lo!r},{lo + width!r}"
    lo_dec = draw(st.integers(-300, -2))
    hi_dec = draw(st.integers(lo_dec + 1, -1))
    dt = draw(st.sampled_from(("0", "0.01")))
    return ["sweep", "--symbol", symbol, "--g", window, f"--p-decades={lo_dec}:{hi_dec}",
            "--points", "4", "--dt", dt, "--sigma", draw(_SIGMA)]


def _csv_rows(path, simulated):
    """The value and stderr columns of a sweep CSV, checked finite and
    positive; a quadrature CSV writes a stderr of 0."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    values, stderrs = [float(r[1]) for r in rows], [float(r[2]) for r in rows]
    assert all(math.isfinite(v) and v > 0 for v in values), (path, values)
    assert all(math.isfinite(e) and (e > 0 if simulated else e == 0) for e in stderrs), \
        (path, stderrs)
    return values


@contextlib.contextmanager
def _short_burn_in_warnings_only():
    """Let a simulation warn of a short burn-in, and of nothing else."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        yield
    for w in record:
        assert w.category is RuntimeWarning and re.search(
            r"burn_in = \d+, below the \d+ steps", str(w.message)), w


@settings(max_examples=60, deadline=None)
@given(_power_law_sweeps())
def test_power_law_sweeps_exit_cleanly_with_positive_values(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        code = main([*argv, "--out", out])
        if code == 0:
            _csv_rows(os.path.join(out, "sweep.csv"), simulated=False)
    assert code in (0, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@st.composite
def _simulations(draw):
    """``simulate`` argument lists: ``tool:alpha`` on a random box, p as ``--p X`` or ``--p=X``."""
    # boxes within the default mesh [-1, 1], most of them holding mesh points
    lo = draw(st.floats(-1.0, 0.5))
    p = repr(-10.0 ** draw(st.floats(-6.0, 1.0)))
    argv = ["simulate", "--symbol", f"tool:{draw(_REAL)!r}",
            "--g", f"box:{lo!r},{lo + draw(st.floats(0.05, 2.0))!r}",
            *draw(st.sampled_from((["--p", p], [f"--p={p}"]))),
            "--n", str(draw(st.integers(1, 40))), "--nt", str(draw(st.integers(1, 3000))),
            "--dt", repr(10.0 ** draw(st.floats(-3.0, 0.0))),
            "--replicas", str(draw(st.integers(1, 4))), "--batches", str(draw(st.integers(1, 40))),
            "--sigma", draw(_SIGMA)]
    burn_in = draw(st.none() | st.integers(0, 3000))
    rank = draw(st.none() | st.integers(1, 8))
    if burn_in is not None:
        argv += ["--burn-in", str(burn_in)]
    if rank is not None:
        argv += ["--noise-rank", str(rank)]
    if draw(st.booleans()):
        argv.append("--unweighted")
    return argv


@settings(max_examples=30, deadline=None)
@given(_simulations())
def test_simulations_exit_cleanly_with_positive_values(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        with contextlib.redirect_stdout(io.StringIO()), _short_burn_in_warnings_only():
            code = main([*argv, "--out", out])
        if code == 0:
            assert len(_csv_rows(os.path.join(out, "simulate.csv"), simulated=True)) == 1, argv
    assert code in (0, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@st.composite
def _comparisons(draw):
    """``compare`` argument lists: ``tool:alpha`` on a random box, 1-4 simulated p."""
    lo = draw(st.floats(-1.0, 0.5))
    hi_dec = draw(st.integers(-3, -1))
    width = draw(st.integers(1, 6))
    sim_dec = draw(st.integers(-2, 0))
    nt = draw(st.integers(10, 3000))
    argv = ["compare", "--symbol", f"tool:{draw(_REAL)!r}",
            "--g", f"box:{lo!r},{lo + draw(st.floats(0.05, 2.0))!r}",
            # the default fit window leaves out the top decade and needs 8 points
            f"--p-decades={hi_dec - width}:{hi_dec}", "--points", str(8 * width + 2),
            f"--sim-decades={sim_dec - 1}:{sim_dec}", "--sim-points", str(draw(st.integers(1, 4))),
            "--n", str(draw(st.integers(1, 40))), "--nt", str(nt),
            "--dt", repr(10.0 ** draw(st.floats(-2.0, 0.0))),
            "--replicas", str(draw(st.integers(1, 3))), "--batches", str(draw(st.integers(2, 40))),
            "--sigma", draw(_SIGMA)]
    burn_in = draw(st.none() | st.integers(0, nt - 1))
    rank = draw(st.none() | st.integers(1, 8))
    if burn_in is not None:
        argv += ["--burn-in", str(burn_in)]
    if rank is not None:
        argv += ["--noise-rank", str(rank)]
    return argv


@settings(max_examples=60, deadline=None)
@given(_comparisons())
def test_comparisons_exit_cleanly_with_positive_values(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        with contextlib.redirect_stdout(io.StringIO()), _short_burn_in_warnings_only():
            code = main([*argv, "--out", out])
        if code == 0:
            _csv_rows(os.path.join(out, "compare_quadrature.csv"), simulated=False)
            sim_points = int(argv[argv.index("--sim-points") + 1])
            rows = _csv_rows(os.path.join(out, "compare_simulation.csv"), simulated=True)
            assert len(rows) == sim_points, argv
    assert code in (0, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _kernel_files(out):
    """Sample files of two kernels: multiplier -(k**2 - 1)**2, and 2 cos(k) - 2."""
    n, dx = 64, 0.25
    k = 2 * math.pi * np.fft.fftfreq(n, d=dx)
    ring = os.path.join(out, "ring.txt")
    np.savetxt(ring, np.real(np.fft.ifft(-(k ** 2 - 1.0) ** 2)) / dx, fmt="%.17g")
    laplace = os.path.join(out, "laplace.txt")
    np.savetxt(laplace, [-2.0, 1.0] + [0.0] * 12 + [1.0])
    return {"ring": f"{ring}:{dx!r}", "laplace": f"{laplace}:1"}


@st.composite
def _spectral_windows(draw, shape):
    """A window spec of the given kind, and a p decade range reaching down to 1e-300."""
    if shape == "box":
        lo = draw(st.floats(-3.5, 3.0))
        window = f"box:{lo!r},{lo + draw(st.floats(0.01, 4.0))!r}"
    elif shape == "power":
        gamma = draw(st.floats(0.0, 0.5, exclude_max=True))
        window = f"power:{gamma!r},{draw(st.floats(0.01, 3.0))!r}"
    else:
        window = f"{shape}:{draw(st.floats(0.1, 3.0))!r}"
    lo_dec = draw(st.integers(-300, -2))
    return window, f"{lo_dec}:{draw(st.integers(lo_dec + 1, -1))}"


@pytest.mark.parametrize("shape", ["box", "power", "disc", "qdisc"])
@pytest.mark.parametrize("symbol", ["power2m:1", "power2m:3", "sh1d", "sh2d",
                                    "conv:ring", "conv:laplace"])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_spectral_sweeps_exit_cleanly_with_positive_values(symbol, shape, data):
    window, decades = data.draw(_spectral_windows(shape))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        if symbol.startswith("conv:"):
            symbol = f"conv:{_kernel_files(out)[symbol[5:]]}"
        argv = ["spectral", "--symbol", symbol, "--g", window, f"--p-decades={decades}",
                "--points", "4", "--sigma", data.draw(_SIGMA), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code == 0:
            _csv_rows(os.path.join(out, "spectral.csv"), simulated=False)
    assert code in (0, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
