"""The demo scripts run end to end against the package in this checkout."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# one interpreter runs every demo in turn, so the imports are paid once
_RUN_ALL = """
import runpy, sys
for path in sys.argv[1:]:
    runpy.run_path(path, run_name="__main__")
"""


def test_every_demo_runs_without_a_runtime_warning(tmp_path):
    assert len(DEMOS) == 5, DEMOS
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # a RuntimeWarning is an error, which ends the process with a traceback
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _RUN_ALL,
                          *map(str, DEMOS)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "RuntimeWarning" not in out.stderr, out.stderr
