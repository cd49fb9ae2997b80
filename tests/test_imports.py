"""Import hygiene of the package modules, checked on their syntax trees.

No import goes unused (a line marked ``# noqa: F401`` keeps one on
purpose), and no module reaches into another ewslab module for a
``_``-prefixed name: what modules share is public.  The package runs on
numpy alone: no module imports ``scipy``, a process that runs every
quadrature route and a simulation loads no ``scipy`` module, and the CLI
writes the same bytes with ``scipy`` blocked.  In ``quadrature.py`` only
the route table tests the kind of a window, ``scaling.py`` and ``cli.py``
test no kind at all (the route table and ``Symbol.law`` decide the law,
the grammar tables the parse), and ``spectral.py`` tests one, in its
frequency-kind check.  The layers keep their order: ``symbols`` imports
no ewslab module and ``quadrature`` imports only ``symbols``.  Outside
``noise.py`` the noise basis is read only where the simulation lumps it
into its chains.  No symbol stores a stability verdict: ``Polynomial``'s
constructor alone runs the sampled sign check, and in ``quadrature.py``
only ``_stable`` refuses a drift that is not negative.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ewslab.cli import main
from ewslab import quadrature, symbols

MODULES = sorted(p for p in (Path(__file__).parents[1] / "src" / "ewslab").glob("*.py")
                 if p.name != "__init__.py")


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as -> "IndicatorBox"
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_are_used_and_public(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    unused, private = [], []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        internal = isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "ewslab")
        for alias in node.names:
            bound = (alias.asname or alias.name).split(".")[0]
            if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(bound)
            if internal and alias.name.startswith("_") and not alias.name.startswith("__"):
                private.append(alias.name)
    assert not unused, f"unused imports in {path.name}: {unused}"
    assert not private, f"{path.name} imports private names: {private}"


def test_the_exemption_marker_covers_one_pinned_import():
    # simulate keeps noise_increment importable by that module path; no
    # other line may opt out of the unused-import check
    marked = [(path.name, line.strip()) for path in MODULES
              for line in path.read_text().splitlines() if "# noqa: F401" in line]
    assert marked == [("simulate.py", "from .noise import NoiseModel, noise_increment  # noqa: F401")]


def _scoped(path, scopes=(ast.FunctionDef,)):
    """Each node of the module at ``path`` with the name of the innermost of ``scopes``
    that holds it, "the module" outside every one."""
    tree = ast.parse(path.read_text())
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, scopes))]:
        todo = list(scope.body)  # the scope's own code, not that of a def nested in it
        while todo:
            node = todo.pop()
            if isinstance(node, scopes):
                continue
            todo.extend(ast.iter_child_nodes(node))
            yield getattr(scope, "name", "the module"), node


def _isinstance_names(node):
    """The names in the class argument of an ``isinstance`` call, else the empty set."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        return {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
    return set()


def test_only_the_route_table_tests_window_kinds():
    path = MODULES[0].parent / "quadrature.py"
    windows = {"TestFunction"}
    for node in ast.parse(path.read_text()).body:  # the window classes, each after its base
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) in windows
                                                  for b in node.bases):
            windows.add(node.name)
    assert {"IndicatorBox", "PowerIndicator", "Disc", "QuarterDisc"} <= windows
    found = [scope for scope, node in _scoped(path, (ast.FunctionDef, ast.ClassDef))
             if _isinstance_names(node) & windows]
    assert found and set(found) <= {"route_of", "_route_1d"}, found


def test_only_the_chain_builder_reads_the_noise_basis():
    # the chains are the simulation's one model: the prediction, the start
    # factor and the steps all take the chain noise map of _lumped_chains
    found = [(path.name, scope) for path in MODULES for scope, node in _scoped(path)
             if isinstance(node, ast.Attribute) and node.attr == "basis"
             and isinstance(node.ctx, ast.Load)]
    assert {name for name, _ in found} == {"noise.py", "simulate.py"}, found
    assert {scope for name, scope in found if name != "noise.py"} == {"_lumped_chains"}, found


def _qualified_calls(path, name):
    """The ``Class.function`` scope of each call of ``name`` in the module at ``path``,
    "the module" outside every def and class."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == name:
                found.append(".".join(scope) or "the module")
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return found


def test_no_symbol_stores_a_stability_verdict():
    # stability is refused where a drift is evaluated, never recorded on a symbol
    found = [(path.name, node.lineno) for path in MODULES[0].parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if getattr(node, "attr", None) == "sign_ok" or getattr(node, "id", None) == "sign_ok"]
    assert not found, found
    found = [(path.name, scope) for path in MODULES for scope in _qualified_calls(path, "_check_sign")]
    assert found == [("symbols.py", "Polynomial.__init__")], found


def test_only_stable_refuses_an_unstable_drift():
    # every raise that speaks of the sign of the drift or multiplier is _stable's,
    # and every route that evaluates q - f, the kernel row too, calls it
    path = MODULES[0].parent / "quadrature.py"
    refusals = []
    for scope, node in _scoped(path):
        if isinstance(node, ast.Raise) and node.exc is not None:
            text = " ".join(n.value for n in ast.walk(node.exc)
                            if isinstance(n, ast.Constant) and isinstance(n.value, str))
            if re.search(r"(drift|multiplier|symbol).*(positive|negative|stable)", text):
                refusals.append(scope)
    assert refusals == ["_stable"], refusals
    assert set(_qualified_calls(path, "_stable")) == {
        "_kernel_variance", "_offset_log.log_t", "_tensor_level", "_variance_tensor"}


def _absolute_imports(path):
    """The full dotted names of the modules that ``path`` imports by absolute name
    anywhere in its code."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    return found


def _internal_imports(path):
    """The ewslab modules that ``path`` imports anywhere in its code: relative ones by
    their own name, absolute ones by their full dotted name."""
    found = {n for n in _absolute_imports(path) if n.split(".")[0] == "ewslab"}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


def test_the_layers_import_in_order():
    # the rate catalog sits in symbols, so quadrature's route table can name laws
    # without a cycle through scaling
    assert _internal_imports(MODULES[0].parent / "symbols.py") == set()
    assert _internal_imports(MODULES[0].parent / "quadrature.py") == {"symbols"}


# the names of the symbol and window kinds: every class of the two modules that
# define them, and the tuple of the frequency kinds
_KINDS = {name for module in (symbols, quadrature) for name, value in vars(module).items()
          if isinstance(value, type) and issubclass(value, (symbols.Symbol, quadrature.TestFunction))}
_KINDS.add("FREQUENCY_KINDS")


def _kind_tests(name):
    """The scopes of module ``name`` that test a symbol or window kind by isinstance."""
    return [scope for scope, node in _scoped(MODULES[0].parent / name)
            if _isinstance_names(node) & _KINDS]


def test_scaling_tests_no_kind():
    assert {"Symbol", "CustomSymbol", "Radial2D", "TestFunction", "QuarterDisc"} <= _KINDS
    assert _kind_tests("scaling.py") == []


def test_the_cli_tests_no_kind_and_spectral_one_check():
    assert _kind_tests("cli.py") == []
    assert _kind_tests("spectral.py") == ["_check_frequency_kind"]


# one query through every quadrature route and one tiny simulation, in a
# fresh interpreter, so no import of the test process can hide a load
_EVERY_ROUTE = """
import sys
import numpy as np
import ewslab.cli
import ewslab as ew

box = ew.IndicatorBox
separable = ew.Polynomial({(2, 0): 1.0, (0, 4): 1.0})
k = 2 * np.pi * np.fft.fftfreq(128, d=0.25)
kernel = ew.ConvolutionKernel(np.real(np.fft.ifft(-(k ** 2 - 1.0) ** 2)) / 0.25, 0.25)
queries = [
    (ew.ToolAlpha(2.0), box(-0.5, 1.0), 0.0),  # the two sides of a root
    (ew.ToolAlpha(2.0), box(0.5, 1.0), 0.0),  # a box off the root
    (ew.Radial2D(2.0), ew.QuarterDisc(1.0), 0.0),  # a polar disc
    (separable, box((0.0, 0.0), (1.0, 1.0)), 0.0),  # a separable sum
    (separable, box((0.0, 0.0), (1.0, 1.0)), 0.01),
    (ew.Polynomial({(2, 0): 1.0, (0, 2): 1.0, (1, 1): 0.5}), box((0.0, 0.0), (1.0, 1.0)), 0.0),
    (ew.SwiftHohenberg1D(), box(0.0, 2.0), 0.0),  # the 1-D ladder
    (ew.ToolAlpha(2.0), ew.PowerIndicator(0.25, 1.0), 0.0),  # a power window
    (kernel, box(-3.0, 3.0), 0.0),
]
for symbol, g, dt in queries:
    assert ew.variance_quadrature(ew.VarianceQuery(symbol, g, -1e-4), dt=dt) > 0.0
assert ew.monomial_integral((1, 2), 1.0, 1e-4) > 0.0
assert ew.appendix_c_integral(1, 1e-4) > 0.0
ew.run(ew.SimConfig(ew.ToolAlpha(2.0), box(-0.5, 0.5), -0.5, ew.Mesh(1.0, 9, 1), 0.01, 2000))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def _run_python(*args):
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_no_module_imports_scipy():
    found = [path.name for path in MODULES[0].parent.glob("*.py")
             if any(name.split(".")[0] == "scipy" for name in _absolute_imports(path))]
    assert not found, found


def test_no_route_loads_scipy():
    out = _run_python("-c", _EVERY_ROUTE)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# each command once with scipy blocked: a separable sweep of shape 1/4 and one of
# shape 1/2, the resolvent self check and a simulation
_BLOCKED = "import sys; sys.modules['scipy'] = None; from ewslab.cli import main; sys.exit(main())"


@pytest.mark.parametrize("argv", [
    "sweep --symbol mono:4,0 --g box:0,1,0,1 --p-decades -8:-2 --points 7",
    "sweep --symbol mono:2,0 --g box:0,1,0,1 --p-decades -8:-2 --points 7",
    "appendix-check",
    "simulate --symbol tool:2 --g box:-0.5,0.5 --p -0.5 --n 9 --nt 2000 --replicas 2",
], ids=["sweep 1/4", "sweep 1/2", "appendix-check", "simulate"])
def test_the_cli_runs_with_scipy_blocked(argv, tmp_path, capsys):
    runs = {}
    for blocked in (True, False):
        out = tmp_path / str(blocked)
        args = argv.split() + (["--out", str(out)] if argv != "appendix-check" else [])
        if blocked:
            run = _run_python("-c", _BLOCKED, *args)
            assert run.returncode == 0, run.stderr
            stdout = run.stdout
        else:
            assert main(args) == 0
            stdout = capsys.readouterr().out
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        runs[blocked] = csvs or stdout
    assert runs[True] and runs[True] == runs[False]
