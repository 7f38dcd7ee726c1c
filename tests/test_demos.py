"""Smoke test of the narrative scripts: each demo runs to exit 0.

The demos call the public wrappers (`enumerate_rationals`, `build_dn_cover`,
`measure_of_ball`, `measure_of_slab_in_ball`), so this also keeps those
entry points working.  conftest.py puts src/ on the subprocesses' PYTHONPATH.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
