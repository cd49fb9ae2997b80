"""Import hygiene of the package modules, checked on their syntax trees.

No import goes unused (a line marked ``# noqa: F401`` keeps one on
purpose), and no module reaches into another ewslab module for a
``_``-prefixed name: what modules share is public.
"""
import ast
from pathlib import Path

import pytest

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
