"""Command-line interface: parsing, outputs, manifests, exit codes."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ewslab.cli import main, parse_symbol, parse_window
from ewslab.scaling import SweepResult
from ewslab.symbols import (
    ConvolutionKernel,
    Piecewise,
    Polynomial,
    PowerWavenumber,
    Radial2D,
    SwiftHohenberg1D,
    ToolAlpha,
    Zero,
    symbol_to_dict,
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
    poly_file.write_text(json.dumps(symbol_to_dict(Polynomial({(1, 1): 1.0}))))
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


def test_laws_lookup(capsys):
    assert main(["laws", "1d", "--alpha", "2"]) == 0
    assert "s=-0.5 k=0" in capsys.readouterr().out
    assert main(["laws", "nd", "--indices", "1,1"]) == 0
    assert "k=2" in capsys.readouterr().out
    assert main(["laws", "1d", "--alpha", "0.5"]) == 0
    assert "convergent=True" in capsys.readouterr().out


def test_laws_degenerate_indices_is_usage_error(capsys):
    assert main(["laws", "nd", "--indices", "0,0"]) == 2
    assert "no bifurcation" in capsys.readouterr().err


def test_sweep_writes_monotone_csv_and_manifest(tmp_path):
    out = tmp_path / "run"
    code = main(["sweep", "--symbol", "tool:2", "--g", "box:0,1",
                 "--p-decades", "-6:-2", "--points", "12",
                 "--out", str(out), "--svg"])
    assert code == 0
    sweep = SweepResult.from_csv(str(out / "sweep.csv"))
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


def test_config_flags_can_be_overridden(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "symbol": "tool:2", "g": "box:0,1", "p_decades": "-5:-2",
        "points": 6,
    }))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--points", "4",
                 "--out", str(out)]) == 0
    sweep = SweepResult.from_csv(str(out / "sweep.csv"))
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


def test_simulate_writes_single_row(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "--symbol", "zero", "--g", "box:-1,1",
                 "--p", "-1", "--n", "1", "--half-width", "1",
                 "--dt", "0.1", "--nt", "4000", "--replicas", "2",
                 "--unweighted", "--out", str(out)])
    assert code == 0
    sweep = SweepResult.from_csv(str(out / "simulate.csv"))
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
    sweep = SweepResult.from_csv(str(out / "spectral.csv"))
    assert sweep.source == "spectral"


def test_compare_overlay_annotates_fitted_slope(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", "--symbol", "tool:2", "--g", "box:-0.5,0.5",
                 "--p-decades", "-8:-2", "--points", "30",
                 "--sim-points", "2", "--sim-decades", "-1:0",
                 "--n", "49", "--nt", "6000", "--dt", "0.05",
                 "--replicas", "2", "--out", str(out)])
    assert code == 0
    svg = (out / "compare.svg").read_text()
    assert "fitted slope -0.50" in svg
    assert "reference slope -0.5" in svg
    quad = SweepResult.from_csv(str(out / "compare_quadrature.csv"))
    sim = SweepResult.from_csv(str(out / "compare_simulation.csv"))
    assert quad.source == "quadrature" and sim.source == "simulation"
    manifest = json.loads((out / "compare_manifest.json").read_text())
    assert set(manifest["outputs"]) >= {
        "compare_quadrature.csv", "compare_simulation.csv", "compare.svg"}


def test_appendix_check_exit_codes(capsys):
    assert main(["appendix-check"]) == 0
    capsys.readouterr()
    assert main(["appendix-check", "--q", "1e-2", "--tol", "0.01"]) == 4
    assert "exceeds tolerance" in capsys.readouterr().err
    assert main(["appendix-check", "--q", "2.0"]) == 3
    assert main(["appendix-check", "--q", "1e-200"]) == 0
    assert main(["appendix-check", "--q", "1e-320"]) == 0


def test_threads_env_fallback(tmp_path, monkeypatch):
    out = tmp_path / "env"
    monkeypatch.setenv("EWS_THREADS", "3")
    assert main(["sweep", "--symbol", "tool:1", "--g", "box:0,1",
                 "--p-decades", "-4:-2", "--points", "6",
                 "--out", str(out)]) == 0
    monkeypatch.setenv("EWS_THREADS", "soon")
    assert main(["sweep", "--symbol", "tool:1", "--g", "box:0,1",
                 "--p-decades", "-4:-2", "--points", "6",
                 "--out", str(out)]) == 3


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
    assert not list(tmp_path.glob("*.csv"))


def test_missing_input_file_exit_3(tmp_path):
    assert main(["fit", "--csv", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path)]) == 3
