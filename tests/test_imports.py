"""Import hygiene of the package modules, checked on their syntax trees.

No import goes unused (a line marked ``# noqa: F401`` keeps one on
purpose), and no module reaches into another ewslab module for a
``_``-prefixed name: what modules share is public.  A process that runs
every quadrature route and a simulation never loads ``scipy.integrate``.
In ``quadrature.py`` only the route table tests the kind of a window,
and ``scaling.py`` tests no kind at all: the route table and
``Symbol.law`` decide the law.  The layers keep their order: ``symbols``
imports no ewslab module and ``quadrature`` imports only ``symbols``.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ewslab.quadrature import TestFunction
from ewslab.symbols import CustomSymbol, Symbol

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


def test_only_the_route_table_tests_window_kinds():
    tree = ast.parse((MODULES[0].parent / "quadrature.py").read_text())
    windows = {"TestFunction"}
    for node in tree.body:  # the window classes, each defined after its base
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) in windows
                                                  for b in node.bases):
            windows.add(node.name)
    assert {"IndicatorBox", "PowerIndicator", "Disc", "QuarterDisc"} <= windows
    scopes = (ast.FunctionDef, ast.ClassDef)
    found = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, scopes))]:
        todo = list(scope.body)  # the scope's own code, not that of a def nested in it
        while todo:
            node = todo.pop()
            if isinstance(node, scopes):
                continue
            todo.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                kinds = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                if kinds & windows:
                    found.append(getattr(scope, "name", "the module"))
    assert found and set(found) <= {"route_of", "_route_1d"}, found


def _internal_imports(path):
    """The ewslab modules that ``path`` imports anywhere in its code: relative ones by
    their own name, absolute ones by their full dotted name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            found.update(n for n in names if n.split(".")[0] == "ewslab")
    return found


def test_the_layers_import_in_order():
    # the rate catalog sits in symbols, so quadrature's route table can name laws
    # without a cycle through scaling
    assert _internal_imports(MODULES[0].parent / "symbols.py") == set()
    assert _internal_imports(MODULES[0].parent / "quadrature.py") == {"symbols"}


def test_scaling_tests_no_kind():
    kinds = {cls.__name__ for cls in (Symbol, CustomSymbol, TestFunction,
                                      *Symbol.kinds.values(), *TestFunction.kinds.values())}
    kinds.add("FREQUENCY_KINDS")
    tests = [node for node in ast.walk(ast.parse((MODULES[0].parent / "scaling.py").read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"]
    named = {n.id for t in tests for n in ast.walk(t.args[1]) if isinstance(n, ast.Name)}
    assert not named & kinds, named & kinds


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
print("scipy.integrate" in sys.modules)
"""


def test_no_route_loads_scipy_integrate():
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _EVERY_ROUTE], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
