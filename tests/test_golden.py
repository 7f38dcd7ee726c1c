"""Byte identity with the benchmark's golden files.

Runs every command of bench/workloads.py at the golden seed through the CLI
and compares each output file with bench/golden/ byte for byte.  Reads
bench/ and writes only under tmp_path.
"""

import importlib.util
from pathlib import Path

import pytest

from fracapprox.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load("golden")
workloads = _load("workloads")

COMMANDS = [
    pytest.param(wname, i, argv, files, id=f"{wname}-cmd{i}")
    for wname, workload in workloads.WORKLOADS.items()
    for i, (_label, argv, files) in enumerate(workload["commands"], start=1)
]


@pytest.mark.parametrize("wname, i, argv, files", COMMANDS)
def test_output_matches_golden(tmp_path, wname, i, argv, files):
    code = main(["--seed", str(workloads.GOLDEN_SEED), "--out", str(tmp_path), *argv])
    assert code == 0
    golden_dir = BENCH / "golden" / wname / f"cmd{i}"
    for name in files:
        assert golden.diff(tmp_path / name, golden_dir) is None
