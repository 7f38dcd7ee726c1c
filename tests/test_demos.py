"""Smoke test of the narrative scripts: each demo runs to exit 0.

The demos call only public functions that a subcommand reaches
(`measure_many`, `certify_all`, `layer_hit_masks`, `hs_upper_bound`,
`classify_sum`, ...), so they show the paths the CLI runs.  conftest.py puts
src/ on the subprocesses' PYTHONPATH.
pyproject.toml's `filterwarnings` does not reach a subprocess, so each demo
runs with `-W error::RuntimeWarning`: a RuntimeWarning fails it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
