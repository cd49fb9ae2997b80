#!/usr/bin/env python3
"""Run one ewslab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One process drives ewslab in a closed loop: it issues the workload's
operations one at a time, waiting for each result, and repeats the
whole pass until ``--seconds`` have elapsed (at least one pass).  Every
result is checked after its pass, outside the timed region.

With ``--trace 0`` the end-to-end metrics are measured with tracing
off.  With ``--trace 1`` the first half of the time runs untraced and
the second half traced, giving the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metric names are the ones declared in BENCHMARK.json.  The exit code
is 0 only when every operation succeeded and passed its check.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-tmp"
SETUP_REPEATS = 3
CALIBRATIONS_BEFORE = 5
CALIBRATIONS_AFTER_PASS = 3

sys.path.insert(0, str(HERE))
import harness  # noqa: E402  (stdlib only; numpy is imported later)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["catalog", "mc-white", "compare-structured"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def import_workloads():
    sys.path.insert(0, str(SRC))
    import workloads
    import ewslab

    if Path(ewslab.__file__).resolve().parent != (SRC / "ewslab").resolve():
        raise ImportError(f"ewslab was imported from {ewslab.__file__}, not from {SRC}")
    return workloads


def probe_setup(args) -> int:
    """Child process: time the import of ewslab plus building the inputs.

    Building writes nothing, so the output directory is never created.
    """
    t0 = time.perf_counter()
    workloads = import_workloads()
    workloads.build(args.workload, args.seed, str(SCRATCH / "unused"))
    print(repr(time.perf_counter() - t0))
    return 0


def measure_setup(args) -> list[float]:
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if out.returncode != 0:
            raise RuntimeError(f"setup probe failed: {out.stderr.strip()[-2000:]}")
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


class Pass:
    def __init__(self):
        self.results = []          # (op, seconds, output, error)
        self.samples: list[float] = []
        self.layers = None
        self.failures: list[str] = []   # one line per failed operation

    @property
    def wall(self) -> float:
        return sum(seconds for _, seconds, _, _ in self.results)


def run_pass(workload, traced: bool) -> Pass:
    record = Pass()
    if traced:
        tracer = harness.Tracer()
        patch = tracer.install()
    else:
        patch = harness.Patcher()
        for module, attr, only in workload.probes():
            patch.wrap_function(module, attr, harness.latency_wrapper(record.samples), only)
    clock = time.perf_counter
    try:
        for op in workload.ops:
            t0 = clock()
            try:
                output, error = op.call(), None
            except Exception as exc:  # an operation that raises counts as failed
                output, error = None, f"{op.name}: {type(exc).__name__}: {exc}"
            record.results.append((op, clock() - t0, output, error))
    finally:
        patch.restore()
    if traced:
        record.layers = harness.layer_metrics(tracer.spans)
    return record


def check_pass(record: Pass, first: dict) -> None:
    """Check every result of a pass; outputs must repeat the first pass exactly."""
    for op, _, output, error in record.results:
        if error is not None:
            record.failures.append(error)
            continue
        try:
            found = op.check(output)
        except Exception as exc:
            found = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
        if op.name in first and output != first[op.name]:
            found.append(f"{op.name}: output differs from the first pass with the same inputs")
        first.setdefault(op.name, output)
        if found:
            record.failures.append("; ".join(found))


def run_until(workload, deadline: float, traced: bool, first: dict,
              calibrations: list) -> list[Pass]:
    """Repeat passes until the deadline, at least one; calibrate after each."""
    records = []
    while True:
        record = run_pass(workload, traced)
        calibrations.extend(harness.calibration() for _ in range(CALIBRATIONS_AFTER_PASS))
        check_pass(record, first)
        records.append(record)
        if time.perf_counter() >= deadline:
            return records


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ewslab" / "__init__.py").is_file():
        return fail(f"no ewslab sources under {SRC}; run from the root of an ewslab checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json is missing from the checkout root")
    if args.seconds < 0 or args.seed < 0:
        return fail("--seconds and --seed must be nonnegative")
    blas_threads = harness.blas_threads_env(harness.usable_cpus())
    if args.probe_setup:
        return probe_setup(args)

    declared = declared_metrics()
    try:
        setup_samples = measure_setup(args)
        workloads = import_workloads()
    except (RuntimeError, ImportError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    scratch = SCRATCH / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, str(scratch))
        workload.warmup()
        calibrations = [harness.calibration() for _ in range(CALIBRATIONS_BEFORE)]
        first: dict = {}
        start = time.perf_counter()
        if args.trace:
            plain = run_until(workload, start + args.seconds / 2.0, False, first, calibrations)
            traced = run_until(workload, start + args.seconds, True, first, calibrations)
        else:
            plain = run_until(workload, start + args.seconds, False, first, calibrations)
            traced = []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    records = plain + traced
    attempted = sum(len(record.results) for record in records)
    failed = sum(len(record.failures) for record in records)
    for record in records:
        for line in record.failures:
            print(f"FAIL {line}")

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "passes_untraced": len(plain),
            "passes_traced": len(traced), "tail_probability": workloads.TAIL,
            "machine": harness.machine(blas_threads)}
    print("run: " + json.dumps(info, sort_keys=True))

    walls = [record.wall for record in plain]
    print("passes: " + " ".join(f"{w:.4f}" for w in walls) + " s untraced"
          + "".join(f" {r.wall:.4f}" for r in traced) + (" s traced" if traced else ""))
    for op in workload.ops:
        times = [s for record in plain for o, s, _, _ in record.results if o is op]
        print(f"op {op.name}: median {harness.median(times):.6f} s over {len(times)} calls")

    if args.trace:
        metrics = {}
        names = list(traced[0].layers)
        for name in names:
            unit = traced[0].layers[name][1]
            value = harness.median([record.layers[name][0] for record in traced])
            metrics[name] = (value, unit)
        metrics["trace.overhead_s"] = (
            harness.median([r.wall for r in traced]) - harness.median(walls), "s")
        for name, (value, unit) in metrics.items():
            print(f"layer {name} = {value!r} {unit}")
        wanted = declared["per_layer"]
    else:
        samples = [s for record in plain for s in record.samples]
        work = sum(op.work for record in plain for op, _, _, _ in record.results)
        busy = sum(samples)
        rate = work / busy if busy > 0 else 0.0   # no sample only if every call raised
        calibration = harness.median(calibrations)
        wall = harness.median(walls)
        metrics = {
            "setup_s": (harness.median(setup_samples), "s"),
            "wall_s": (wall, "s"),
            "wall_norm_s": (wall * harness.CALIBRATION_NOMINAL_S / calibration, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value!r} {unit}")
        print(f"metric calibration_s = {calibration!r} s over {len(calibrations)} calls "
              f"(nominal {harness.CALIBRATION_NOMINAL_S} s)")
        if args.workload == "catalog":
            print(f"metric points_per_s = {rate!r} 1/s ({workload.work_unit})")
            top = harness.tail_percentile(len(samples))
            print(f"metric point_p95_ms = {1e3 * harness.percentile(samples, 95.0)!r} ms "
                  f"over {len(samples)} evaluations")
            if top is not None and top != 95.0:
                print(f"metric point_p{top:g}_ms = {1e3 * harness.percentile(samples, top)!r} ms "
                      f"(highest percentile with >= {harness.MIN_BEYOND} samples beyond it)")
        else:
            print(f"metric point_steps_per_s = {rate!r} 1/s ({workload.work_unit})")
        print(f"metric fail_ratio = {failed / attempted!r} ({failed}/{attempted} operations)")
        wanted = declared["end_to_end"]

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
