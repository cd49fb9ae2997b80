"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402
import ewslab as ew  # noqa: E402
from ewslab import cli, symbols  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (0, None), (9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected


def test_nearest_rank_percentile_and_median():
    values = list(range(100, 0, -1))
    assert harness.percentile(values, 95.0) == 95
    assert harness.percentile(values, 50.0) == 50
    assert harness.percentile([7.0], 99.9) == 7.0
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_self_time_subtracts_direct_children_only():
    spans = harness.Spans()
    a = spans.name_id("simulate.run", "simulate")
    b = spans.name_id("noise.noise_increment", "noise")
    c = spans.name_id("simulate.predict_discrete_variance", "simulate")
    root = spans.add(a, -1, 0.0, 10.0, c1=1000.0, c2=0.5)
    child = spans.add(b, root, 1.0, 4.0, c1=3.0)
    spans.add(c, child, 2.0, 3.0)        # same layer as root, below another layer
    spans.add(b, root, 5.0, 6.0, c1=3.0)
    assert spans.self_times() == [6.0, 2.0, 1.0, 1.0]
    assert spans.outermost_in_layer() == [True, True, False, True]

    m = harness.layer_metrics(spans)
    assert m["simulate.run_busy_s"][0] == 10.0      # the nested simulate span is inside it
    assert m["simulate.self_s"][0] == 7.0           # 6 of the run plus 1 of the nested span
    assert m["simulate.predict_busy_s"][0] == 1.0
    assert m["noise.increment_busy_s"][0] == 4.0
    assert m["noise.increment_calls"][0] == 2
    assert m["noise.normals_drawn"][0] == 6
    assert m["simulate.point_steps"][0] == 1000
    assert m["simulate.ns_per_point_step"][0] == pytest.approx(1e7)
    assert m["simulate.support_share"][0] == 0.5


def test_every_declared_metric_is_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(harness.layer_metrics(harness.Spans())) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_norm_s", "peak_rss_mb"]


def _snapshot():
    import ewslab
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "ewslab" or n.startswith("ewslab."))]
    attrs = {(id(m), k): v for m in modules for k, v in vars(m).items() if callable(v)}
    methods = {(cls, "__call__"): cls.__dict__["__call__"]
               for cls in vars(symbols).values()
               if isinstance(cls, type) and "__call__" in cls.__dict__}
    methods[(ewslab.SweepResult, "to_csv")] = ewslab.SweepResult.__dict__["to_csv"]
    return attrs, methods, modules


def test_wrappers_restore_the_original_functions():
    import ewslab
    attrs, methods, modules = _snapshot()
    original_increment = ewslab.noise.noise_increment
    patch = harness.Tracer().install()
    try:
        assert ewslab.simulate.noise_increment is not original_increment
        assert ewslab.noise.noise_increment is not original_increment
        assert ewslab.simulate.noise_increment.__wrapped__ is original_increment
        assert ewslab.ToolAlpha.__dict__["__call__"] is not methods[(ewslab.ToolAlpha, "__call__")]
    finally:
        patch.restore()
    after, after_methods, _ = _snapshot()
    assert all(after[key] is value for key, value in attrs.items())
    assert all(after_methods[key] is value for key, value in methods.items())

    samples = []
    with pytest.raises(RuntimeError):
        with harness.Patcher() as probe:
            probe.wrap_function("ewslab.simulate", "run", harness.latency_wrapper(samples))
            assert ewslab.run is not attrs[(id(ewslab), "run")]
            raise RuntimeError("interrupted pass")
    assert ewslab.run is attrs[(id(ewslab), "run")]


def _compare(out_dir, traced):
    argv = ["compare", "--symbol", "tool:2", "--g", "box:-0.5,0.5", "--p-decades", "-4:-1",
            "--points", "12", "--sim-decades", "-1:0", "--sim-points", "2", "--noise-rank", "8",
            "--svg", "--nt", "400", "--burn-in", "50", "--replicas", "2", "--n", "39",
            "--seed", "5", "--out", str(out_dir)]
    tracer = harness.Tracer() if traced else None
    patch = tracer.install() if traced else harness.Patcher()
    try:
        assert cli.main(argv) == 0
    finally:
        patch.restore()
    files = {p.name: p.read_bytes() for p in Path(out_dir).iterdir()
             if p.name != "compare_manifest.json"}
    return files, tracer


def test_traced_and_untraced_runs_write_identical_bytes(tmp_path, capsys):
    plain, _ = _compare(tmp_path / "plain", traced=False)
    traced, tracer = _compare(tmp_path / "traced", traced=True)
    capsys.readouterr()
    assert sorted(plain) == ["compare.svg", "compare_quadrature.csv", "compare_simulation.csv"]
    assert plain == traced
    m = harness.layer_metrics(tracer.spans)
    assert m["simulate.run_calls"][0] == 2
    assert m["noise.increment_calls"][0] == 2 * 2 * 400
    assert m["noise.normals_drawn"][0] == 2 * 2 * 400 * 8
    assert m["simulate.point_steps"][0] == 2 * 2 * 400 * 39
    assert m["scaling.sweep_calls"][0] == 1
    assert m["cli.bytes_written"][0] > 0


def test_traced_and_untraced_estimates_are_identical():
    config = ew.SimConfig(symbol=ew.ToolAlpha(2.0), g=ew.IndicatorBox(-0.5, 0.5), p=-1.0,
                          mesh=ew.Mesh(1.0, 39, 1), dt=0.01, nt=600, replicas=2, seed=9)
    plain = ew.run(config)
    patch = harness.Tracer().install()
    try:
        traced = ew.run(config)
    finally:
        patch.restore()
    assert plain == traced


def test_window_moments_match_the_discrete_prediction():
    for noise in (None, ew.build_noise_model(39, np.arange(10, 30), m=6, seed=2)):
        config = ew.SimConfig(symbol=ew.ToolAlpha(2.0), g=ew.IndicatorBox(-0.5, 0.5), p=-0.1,
                              mesh=ew.Mesh(1.0, 39, 1), dt=0.01, nt=5000, noise=noise)
        g0, mean, sd = workloads.window_moments(config, 4000)
        assert g0 == pytest.approx(ew.predict_discrete_variance(config), rel=1e-12)
        assert 0 < mean < g0 and sd > 0
    lo, hi = workloads.z_band(1.0, 0.1)
    assert lo < -3 and hi > 3


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "catalog",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
