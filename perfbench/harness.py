"""Measurement helpers for the ewslab benchmark.

Everything here observes ``ewslab`` from outside: wrappers are installed
on the module attributes and methods that callers reach, spans are kept
in memory while a pass runs, and per-layer figures are derived from the
spans when the run ends.  Nothing under ``src/`` is modified.
"""
from __future__ import annotations

import functools
import math
import os
import platform
import sys
import time
from array import array

# Percentiles the benchmark is willing to report, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest reportable percentile with at least MIN_BEYOND samples beyond it."""
    best = None
    for q in PERCENTILES:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            best = q
    return best


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


# ---------------------------------------------------------------------------
# spans


class Spans:
    """Flat in-memory span store: one row per wrapped call.

    Rows are appended when a call starts, so a row's index is smaller
    than the index of every span it causes; ``parent`` is the row of the
    innermost span open at the start, or -1.  ``c1`` and ``c2`` hold the
    per-call counts a wrapper attaches, ``tag`` a small integer label
    (the quadrature route, the monomial dimension).
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.layer: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.c1 = array("d")
        self.c2 = array("d")
        self.tag = array("l")
        self.error = array("b")
        self._stack: list[int] = []

    def __len__(self):
        return len(self.start)

    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.layer.append(layer)
        return nid

    def open(self, nid: int, now: float) -> int:
        row = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(now)
        self.end.append(now)
        self.c1.append(0.0)
        self.c2.append(0.0)
        self.tag.append(0)
        self.error.append(0)
        self._stack.append(row)
        return row

    def close(self, row: int, now: float, failed: bool) -> None:
        self._stack.pop()
        self.end[row] = now
        if failed:
            self.error[row] = 1

    def add(self, nid: int, parent: int, start: float, end: float,
            c1: float = 0.0, c2: float = 0.0, tag: int = 0) -> int:
        """Append a finished span directly (used by tests)."""
        row = len(self.start)
        for arr, value in ((self.name, nid), (self.parent, parent), (self.start, start),
                           (self.end, end), (self.c1, c1), (self.c2, c2),
                           (self.tag, tag), (self.error, 0)):
            arr.append(value)
        return row

    def layer_of(self, row: int) -> str:
        return self.layer[self.name[row]]

    def name_of(self, row: int) -> str:
        return self.names[self.name[row]]

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for row, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[row] - self.start[row]
        return out

    def outermost_in_layer(self) -> list[bool]:
        """Whether each span has no ancestor in its own layer."""
        flags = []
        for row, parent in enumerate(self.parent):
            layer = self.layer_of(row)
            p = parent
            while p >= 0 and self.layer_of(p) != layer:
                p = self.parent[p]
            flags.append(p < 0)
        return flags


# ---------------------------------------------------------------------------
# wrapping


class Patcher:
    """Replace functions wherever ewslab modules reference them, then restore.

    A function imported by name into several modules (``from .noise import
    noise_increment``) is reached through each module's own attribute, so
    every ewslab module holding the same object gets the wrapper.
    """

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap_function(self, module_name: str, attr: str, make_wrapper, only=None) -> None:
        """Wrap ``module_name.attr`` in every ewslab module holding it.

        ``only`` restricts the replacement to the named modules, for a
        probe that must see calls from one caller but not another.
        """
        original = getattr(sys.modules[module_name], attr)
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if name != "ewslab" and not name.startswith("ewslab."):
                continue
            if only is not None and name not in only:
                continue
            if module is not None and getattr(module, attr, None) is original:
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)

    def wrap_method(self, cls: type, attr: str, make_wrapper) -> None:
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _span_wrapper(spans: Spans, name: str, layer: str, counter=None):
    """Build a wrapper factory that records one span per call.

    ``counter(args, kwargs, result)`` returns ``(c1, c2, tag)`` for the
    span; it runs after the timed call, so its cost is never inside the
    span it describes.
    """
    nid = spans.name_id(name, layer)
    clock = time.perf_counter

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = spans.open(nid, clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.close(row, clock(), True)
                raise
            spans.close(row, clock(), False)
            if counter is not None:
                spans.c1[row], spans.c2[row], spans.tag[row] = counter(args, kwargs, result)
            return result

        return wrapper

    return make


# Quadrature routes, inferred from the query's input kinds.
ROUTES = ("1d", "tensor2d", "tensor3d", "radial", "other")


def _route_of(query) -> int:
    symbol = query.symbol
    window = type(query.test_function).__name__
    if symbol.dim == 1:
        return 0
    if type(symbol).__name__ == "Radial2D" and window in ("QuarterDisc", "Disc"):
        return 3
    if symbol.dim == 2:
        return 1
    if symbol.dim == 3:
        return 2
    return 4


def _active_axes(j) -> int:
    return sum(1 for c in (j if isinstance(j, (tuple, list)) else (j,)) if int(c) != 0)


def _points_of(result) -> float:
    size = getattr(result, "size", None)
    return float(size if size is not None else 1)


def _noise_counts(args, kwargs, result):
    model = args[0]
    if model.is_identity:
        return float(model.size), 0.0, 0
    rows, rank = model.basis.shape
    # basis read once plus the intensity and output vectors, as 8-byte floats
    return float(rank), float(8 * (rows * rank + 2 * rank + rows)), 0


def _run_counts(args, kwargs, result):
    config = args[0]
    steps = float(config.mesh.size) * config.nt * config.replicas
    support = float((config.g(config.mesh.grid()) > 0).sum())
    return steps, support / config.mesh.size, 0


def _text_bytes(args, kwargs, result):
    return float(len(result.encode("utf-8"))), 0.0, 0


def _out_dir_bytes(args, kwargs, result):
    argv = list(args[0]) if args else []
    out = "."
    for i, tok in enumerate(argv):
        if tok == "--out" and i + 1 < len(argv):
            out = argv[i + 1]
        elif tok.startswith("--out="):
            out = tok.split("=", 1)[1]
    total = 0
    with os.scandir(out) as entries:
        for entry in entries:
            if entry.is_file():
                total += entry.stat().st_size
    return float(total), 0.0, 0


class Tracer:
    """Installs span wrappers at every ewslab layer boundary."""

    def __init__(self):
        self.spans = Spans()

    def install(self) -> Patcher:
        import ewslab.cli  # noqa: F401  (every module must be loaded before patching)
        from ewslab import symbols as sym
        from ewslab.scaling import SweepResult

        spans = self.spans
        patch = Patcher()
        try:
            for cls in vars(sym).values():
                if isinstance(cls, type) and issubclass(cls, sym.Symbol) and "__call__" in cls.__dict__:
                    patch.wrap_method(cls, "__call__", _span_wrapper(
                        spans, f"symbols.{cls.__name__}", "symbols",
                        lambda a, k, r: (_points_of(r), 0.0, 0)))
            wrap = patch.wrap_function
            wrap("ewslab.quadrature", "variance_quadrature", _span_wrapper(
                spans, "quadrature.variance_quadrature", "quadrature",
                lambda a, k, r: (1.0, 0.0, _route_of(a[0]))))
            wrap("ewslab.quadrature", "monomial_integral", _span_wrapper(
                spans, "quadrature.monomial_integral", "quadrature",
                lambda a, k, r: (1.0, 0.0, _active_axes(a[0]))))
            wrap("ewslab.spectral", "variance_spectral", _span_wrapper(
                spans, "spectral.variance_spectral", "spectral"))
            wrap("ewslab.spectral", "spectral_sweep", _span_wrapper(
                spans, "spectral.spectral_sweep", "spectral"))
            wrap("ewslab.spectral", "predicted_spectral_law", _span_wrapper(
                spans, "spectral.predicted_spectral_law", "spectral"))
            wrap("ewslab.scaling", "quadrature_sweep", _span_wrapper(
                spans, "scaling.quadrature_sweep", "scaling"))
            wrap("ewslab.scaling", "fit_loglog", _span_wrapper(
                spans, "scaling.fit_loglog", "scaling"))
            patch.wrap_method(SweepResult, "to_csv", _span_wrapper(
                spans, "scaling.to_csv", "scaling", _text_bytes))
            wrap("ewslab.noise", "noise_increment", _span_wrapper(
                spans, "noise.noise_increment", "noise", _noise_counts))
            wrap("ewslab.noise", "build_noise_model", _span_wrapper(
                spans, "noise.build_noise_model", "noise"))
            wrap("ewslab.simulate", "run", _span_wrapper(
                spans, "simulate.run", "simulate", _run_counts))
            wrap("ewslab.simulate", "predict_discrete_variance", _span_wrapper(
                spans, "simulate.predict_discrete_variance", "simulate"))
            wrap("ewslab.plotting", "write_loglog", _span_wrapper(
                spans, "plotting.write_loglog", "plotting"))
            wrap("ewslab.plotting", "render_loglog", _span_wrapper(
                spans, "plotting.render_loglog", "plotting", _text_bytes))
            wrap("ewslab.cli", "main", _span_wrapper(
                spans, "cli.main", "cli", _out_dir_bytes))
        except BaseException:
            patch.restore()
            raise
        return patch


# ---------------------------------------------------------------------------
# per-layer figures


def layer_metrics(spans: Spans) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times of one pass, as ``name -> (value, unit)``."""
    n = len(spans)
    selfs = spans.self_times()
    outer = spans.outermost_in_layer()
    dur = [spans.end[i] - spans.start[i] for i in range(n)]
    acc: dict[str, float] = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    latencies = []
    for i in range(n):
        layer = spans.layer_of(i)
        name = spans.name_of(i)
        add(f"{layer}.self_s", selfs[i])
        if outer[i]:
            add(f"{layer}.busy_s", dur[i])
            add(f"{layer}.calls_outer", 1)
        if spans.error[i]:
            add(f"{layer}.errors", 1)
        if layer == "symbols":
            add("symbols.calls", 1)
            add("symbols.points", spans.c1[i])
        elif layer == "quadrature" and outer[i]:
            add("quadrature.calls", 1)
            latencies.append(dur[i])
            if name == "quadrature.variance_quadrature":
                add(f"quadrature.route_{ROUTES[spans.tag[i]]}_s", dur[i])
            elif spans.tag[i] in (2, 3):
                add(f"quadrature.monomial{spans.tag[i]}d_calls", 1)
                add(f"quadrature.monomial{spans.tag[i]}d_s", dur[i])
        elif name == "spectral.variance_spectral":
            add("spectral.calls", 1)
        elif name == "scaling.quadrature_sweep":
            add("scaling.sweep_calls", 1)
            add("scaling.sweep_self_s", selfs[i])
        elif name == "scaling.fit_loglog":
            add("scaling.fit_calls", 1)
            add("scaling.fit_busy_s", dur[i])
        elif name == "scaling.to_csv":
            add("scaling.csv_bytes", spans.c1[i])
            add("scaling.csv_busy_s", dur[i])
        elif name == "noise.noise_increment":
            add("noise.increment_calls", 1)
            add("noise.normals_drawn", spans.c1[i])
            add("noise.matvec_bytes_computed", spans.c2[i])
            add("noise.increment_busy_s", dur[i])
        elif name == "noise.build_noise_model":
            add("noise.build_busy_s", dur[i])
        elif name == "simulate.run":
            add("simulate.run_calls", 1)
            add("simulate.run_busy_s", dur[i])
            add("simulate.point_steps", spans.c1[i])
            add("simulate.support_sum", spans.c2[i])
        elif name == "simulate.predict_discrete_variance":
            add("simulate.predict_busy_s", dur[i])
        elif layer == "plotting":
            if outer[i]:
                add("plotting.calls", 1)
            if name == "plotting.render_loglog":
                add("plotting.bytes", spans.c1[i])
        elif name == "cli.main":
            add("cli.bytes_written", spans.c1[i])

    g = acc.get
    steps = g("simulate.point_steps", 0.0)
    runs = g("simulate.run_calls", 0.0)
    ordered = sorted(latencies)
    out = {
        "symbols.calls": (g("symbols.calls", 0.0), "count"),
        "symbols.points": (g("symbols.points", 0.0), "count"),
        "symbols.busy_s": (g("symbols.busy_s", 0.0), "s"),
        "quadrature.calls": (g("quadrature.calls", 0.0), "count"),
        "quadrature.busy_s": (g("quadrature.busy_s", 0.0), "s"),
        "quadrature.point_p50_ms": (1e3 * percentile(ordered, 50.0) if ordered else 0.0, "ms"),
        "quadrature.point_p95_ms": (1e3 * percentile(ordered, 95.0) if ordered else 0.0, "ms"),
        "quadrature.errors": (g("quadrature.errors", 0.0), "count"),
    }
    for route in ROUTES[:4]:
        out[f"quadrature.route_{route}_s"] = (g(f"quadrature.route_{route}_s", 0.0), "s")
    for d in (2, 3):
        out[f"quadrature.monomial{d}d_calls"] = (g(f"quadrature.monomial{d}d_calls", 0.0), "count")
        out[f"quadrature.monomial{d}d_s"] = (g(f"quadrature.monomial{d}d_s", 0.0), "s")
    out.update({
        "spectral.calls": (g("spectral.calls", 0.0), "count"),
        "spectral.busy_s": (g("spectral.busy_s", 0.0), "s"),
        "spectral.self_s": (g("spectral.self_s", 0.0), "s"),
        "scaling.sweep_calls": (g("scaling.sweep_calls", 0.0), "count"),
        "scaling.sweep_self_s": (g("scaling.sweep_self_s", 0.0), "s"),
        "scaling.fit_calls": (g("scaling.fit_calls", 0.0), "count"),
        "scaling.fit_busy_s": (g("scaling.fit_busy_s", 0.0), "s"),
        "scaling.csv_bytes": (g("scaling.csv_bytes", 0.0), "B"),
        "scaling.csv_busy_s": (g("scaling.csv_busy_s", 0.0), "s"),
        "noise.increment_calls": (g("noise.increment_calls", 0.0), "count"),
        "noise.normals_drawn": (g("noise.normals_drawn", 0.0), "count"),
        "noise.increment_busy_s": (g("noise.increment_busy_s", 0.0), "s"),
        "noise.build_busy_s": (g("noise.build_busy_s", 0.0), "s"),
        "noise.matvec_bytes_computed": (g("noise.matvec_bytes_computed", 0.0), "B"),
        "simulate.run_calls": (runs, "count"),
        "simulate.run_busy_s": (g("simulate.run_busy_s", 0.0), "s"),
        "simulate.self_s": (g("simulate.self_s", 0.0), "s"),
        "simulate.point_steps": (steps, "count"),
        "simulate.ns_per_point_step": (
            1e9 * g("simulate.run_busy_s", 0.0) / steps if steps else 0.0, "ns"),
        "simulate.support_share": (g("simulate.support_sum", 0.0) / runs if runs else 0.0, "ratio"),
        "simulate.predict_busy_s": (g("simulate.predict_busy_s", 0.0), "s"),
        "plotting.calls": (g("plotting.calls", 0.0), "count"),
        "plotting.busy_s": (g("plotting.busy_s", 0.0), "s"),
        "plotting.bytes": (g("plotting.bytes", 0.0), "B"),
        "cli.busy_s": (g("cli.busy_s", 0.0), "s"),
        "cli.self_s": (g("cli.self_s", 0.0), "s"),
        "cli.bytes_written": (g("cli.bytes_written", 0.0), "B"),
    })
    return out


# ---------------------------------------------------------------------------
# latency probe (tracing off)


def latency_wrapper(samples: list):
    """Wrapper factory that appends each call's duration to ``samples``.

    Used with tracing off to collect one latency sample per variance
    evaluation; the cost is two clock reads and one list append.
    """
    clock = time.perf_counter

    def make(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            samples.append(clock() - t0)
            return result

        return timed

    return make


# ---------------------------------------------------------------------------
# host speed

# Median time of one calibration() call on the host the benchmark was
# defined on (2-core Xeon VM, Python 3.11.7, numpy 2.4.6); it only sets
# the scale of the normalized time.
CALIBRATION_NOMINAL_S = 0.09


def calibration() -> float:
    """Time one fixed kernel that does not use ewslab.

    The loop mixes what the workloads spend their time on: Python-level
    iteration, Philox normals and small vector arithmetic.  On a shared
    host the speed of all such code drifts by tens of percent over
    minutes; the ratio of this kernel's time to CALIBRATION_NOMINAL_S
    measures that drift while a run is in progress.
    """
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(7))
    u = np.zeros(199)
    decay = np.full(199, 0.99)
    acc = 0.0
    for _ in range(8000):
        u = (u + 0.1 * rng.standard_normal(199)) * decay
        acc += float(u[50:150] @ u[50:150])
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# machine description


def blas_threads_env(nproc: int) -> int:
    """Cap the BLAS thread count at nproc in the environment; return the cap.

    Must run before numpy is imported.  A lower value already set by the
    caller is kept.
    """
    cap = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        raw = os.environ.get(var, "").strip()
        if raw.isdigit() and 0 < int(raw) < cap:
            cap = int(raw)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def machine(blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, AttributeError):
        pass
    mem = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "nproc": usable_cpus(),
        "cpu": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "memory": mem,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
    }
