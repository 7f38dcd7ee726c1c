#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy sizes.

    python3 bench/selftest.py

Captures golden files for toy versions of the workloads into a scratch
directory, then checks that
  - every end-to-end metric is reported by name with its unit;
  - span self times are non-negative and add up to no more than the traced
    pass's wall time, and the traced run reports every per-layer metric;
  - one flipped byte in a copied golden file is reported as a failure that
    names the file and the line.
Exit code 0 when every check holds.
"""

from __future__ import annotations

import re
import shutil
import sys
import tempfile
from pathlib import Path

import run
import spans
from workloads import GOLDEN_SEED, LAYERS, WORKLOADS

TOY = {
    "certify": [["certify", "--ifs", "cantor", "--trials", "20"],
                ["certify", "--ifs", "koch", "--trials", "10"]],
    "layers": [["decay", "--ifs", "cantor", "--psi", "power:tau=2.5",
                "--blocks", "1:4", "--samples", "2000"],
               ["dim-report", "--ifs", "cantor", "--taus", "3.0",
                "--samples", "20000"]],
    "covers": [["cover-cost", "--ifs", "cantor", "--psi", "power:tau=3.0",
                "--blocks", "2:3"],
               ["lemma-audit", "--ifs", "dust", "--blocks", "1:3",
                "--trials", "10"]],
}


def toy_workloads() -> dict:
    """The real workloads with the toy argument lists swapped in."""
    out = {}
    for name, workload in WORKLOADS.items():
        commands = [(label, argv, files) for (label, _a, files), argv
                    in zip(workload["commands"], TOY[name])]
        out[name] = {**workload, "commands": commands}
    return out


class Failures(list):
    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.append(what)


def check_reports(fails, spec, workloads, golden_dir):
    for name in workloads:
        lines = []
        result = run.run(name, GOLDEN_SEED, 0, False, spec, echo=lines.append,
                         workloads=workloads, golden_dir=golden_dir)
        fails.expect(result["correct"] and result["failed"] == 0,
                     f"{name}: toy run is correct")
        for m in spec["end_to_end"]:
            shown = any(re.match(rf"{re.escape(m['name'])}\s+\S+\s+"
                                 rf"{re.escape(m['unit'])}\b", line)
                        for line in lines)
            got = result["metrics"].get(m["name"], {})
            fails.expect(shown and got.get("unit") == m["unit"]
                         and got.get("value", 0) > 0,
                         f"{name}: {m['name']} reported in {m['unit']}")
        traced = run.run(name, GOLDEN_SEED + 1, 0, True, spec, echo=lambda _l: None,
                         workloads=workloads, golden_dir=golden_dir)
        fails.expect(traced["correct"] and set(traced["metrics"])
                     == {m["name"] for m in spec["per_layer"]},
                     f"{name}: traced run is correct and reports every "
                     "per-layer metric")


def check_spans(fails, cli, workloads, out_root):
    for name, workload in workloads.items():
        tracer = spans.Tracer(LAYERS)
        tracer.install()
        try:
            results = run.run_pass(cli, workload, GOLDEN_SEED, out_root)
        finally:
            tracer.remove()
        wall = sum(s for _c, s, _o, _e in results)
        own = [t for _s, t in tracer.span_self_times()]
        fails.expect(bool(own) and min(own) >= -1e-9,
                     f"{name}: {len(own)} span self times are non-negative")
        fails.expect(sum(own) <= wall,
                     f"{name}: self times add up to {sum(own):.4f} s <= traced "
                     f"wall_s {wall:.4f} s")


def flip_byte(path: Path, line_no: int) -> None:
    """Change the first digit on line ``line_no`` (1-based) of ``path``."""
    lines = path.read_bytes().split(b"\n")
    line = bytearray(lines[line_no - 1])
    i = next(k for k, c in enumerate(line) if chr(c).isdigit())
    line[i] = ord("1") if line[i] == ord("0") else ord("0")
    lines[line_no - 1] = bytes(line)
    path.write_bytes(b"\n".join(lines))


def check_flip(fails, cli, workloads, golden_dir, scratch):
    flipped = scratch / "flipped"
    shutil.copytree(golden_dir, flipped)
    flip_byte(flipped / "certify" / "cmd1" / "doubling.csv", 6)
    results = run.run_pass(cli, workloads["certify"], GOLDEN_SEED, scratch / "out")
    good = run.Checker("certify", workloads["certify"], golden_dir)
    fails.expect(good.check(results, GOLDEN_SEED) == 0,
                 "certify: untouched golden copy passes")
    bad = run.Checker("certify", workloads["certify"], flipped)
    failed = bad.check(results, GOLDEN_SEED)
    fails.expect(failed == 1 and any("doubling.csv: line 6 differs" in m
                                     for m in bad.messages),
                 "certify: one flipped byte in doubling.csv fails cmd1 "
                 f"({'; '.join(bad.messages) or 'no message'})")


def main() -> int:
    spec = run.load_spec()
    cli = run.load_program()
    workloads = toy_workloads()
    fails = Failures()
    run.SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.SCRATCH))
    try:
        golden_dir = scratch / "golden"
        run.capture(workloads, golden_dir, echo=lambda _l: None)
        check_reports(fails, spec, workloads, golden_dir)
        check_spans(fails, cli, workloads, scratch / "spans")
        check_flip(fails, cli, workloads, golden_dir, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(fails)} of the checks failed" if fails else "all checks passed")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
