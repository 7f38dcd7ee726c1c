#!/usr/bin/env python3
"""fracapprox benchmark: fixed CLI workloads, run in process.

    python3 bench/run.py --workload certify --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --capture        # rewrite bench/golden/ from this tree

Run from the root of a source checkout; the program is imported from
``src/``.  A run measures the set-up time in fresh processes, makes one
warm-up pass of the workload at the golden seed whose outputs must match
bench/golden/ byte for byte, then repeats passes at ``--seed`` until
``--seconds`` have gone by.  Outputs at other seeds get a limited check:
exit codes, the CSV provenance and column header lines and identical bytes
on every pass.

With ``--trace 0`` the result holds the end-to-end metrics (medians over the
passes); with ``--trace 1`` untraced and traced passes alternate, and the
result holds the per-layer metrics of bench/spans.py (medians over the
traced passes).  A report goes to standard output; its last line is the
result as one JSON object.  The exit code is 0 when every check passed, 1
when one failed and 2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import golden
import spans
from workloads import GOLDEN_SEED, LAYERS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH / "golden"
SCRATCH = ROOT / ".bench_out"

SETUP_REPEATS = 7
SETUP_SNIPPET = """\
import time
t0 = time.perf_counter()
import fracapprox.cli
from fracapprox.ifs import BUNDLED_SYSTEMS, bundled_system
for name in BUNDLED_SYSTEMS:
    bundled_system(name)
print(repr(time.perf_counter() - t0))
"""


class ProgramMissing(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_program():
    """Import fracapprox.cli from the checkout's src/, never from elsewhere."""
    if not (SRC / "fracapprox" / "cli.py").is_file():
        raise ProgramMissing(f"no fracapprox sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fracapprox.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "fracapprox":
        raise ProgramMissing(f"fracapprox was imported from {cli.__file__}")
    return cli


def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(repeats: int = SETUP_REPEATS) -> list:
    """Import fracapprox.cli and build the bundled systems in fresh
    processes; one untimed process first warms the bytecode cache."""
    times = []
    for i in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                              env=_program_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(cli, workload: dict, seed: int, out_root: Path) -> list:
    """Run the workload's commands once; return (exit code, seconds, output
    dir, captured stderr) per command."""
    results = []
    for i, (_label, argv, files) in enumerate(workload["commands"], start=1):
        out = out_root / f"cmd{i}"
        for name in files:
            (out / name).unlink(missing_ok=True)
        args = ["--seed", str(seed), "--out", str(out), *argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(args)
            seconds = time.perf_counter() - t0
        results.append((code, seconds, out, err.getvalue()))
    return results


class Checker:
    """Decides which commands of a pass failed.

    At the golden seed every output file must equal bench/golden/ byte for
    byte.  At another seed the check is limited to exit codes, header lines
    and identical bytes across the passes of one run.
    """

    def __init__(self, workload_name: str, workload: dict,
                 golden_dir: Path = GOLDEN_DIR):
        self.name = workload_name
        self.workload = workload
        self.golden_dir = golden_dir / workload_name
        self.first = {}
        self.messages = []

    def _errors(self, i, files, code, out, err, seed):
        if code != 0:
            last = err.strip().splitlines()[-1:] or ["no message"]
            return [f"exit code {code}: {last[0]}"]
        gdir = self.golden_dir / f"cmd{i}"
        errors = []
        for name in files:
            path = out / name
            if seed == GOLDEN_SEED:
                problem = golden.diff(path, gdir)
            else:
                problem = golden.check_head(path, golden.head(gdir, name), seed)
            if problem is None:
                digest = golden.digest(path)
                if self.first.setdefault((seed, i, name), digest) != digest:
                    problem = f"{name}: bytes differ from the first pass at this seed"
            if problem:
                errors.append(problem)
        return errors

    def check(self, results: list, seed: int) -> int:
        """Number of failed commands in one pass; messages are kept."""
        failed = 0
        for i, ((label, _argv, files), (code, _s, out, err)) in enumerate(
                zip(self.workload["commands"], results), start=1):
            errors = self._errors(i, files, code, out, err, seed)
            if errors:
                failed += 1
                self.messages.extend(f"{self.name} {label} seed={seed}: {e}"
                                     for e in errors)
        return failed


def bytes_written(results: list, workload: dict) -> int:
    return sum((out / name).stat().st_size
               for (_c, _s, out, _e), (_l, _a, files) in zip(results, workload["commands"])
               for name in files if (out / name).exists())


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "fracapprox").glob("*.py")))


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def header() -> dict:
    import numpy

    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "src_lines": src_lines()}


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children
    (the set-up processes and any worker pool), in MB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _line(name, value, unit, note=""):
    return f"{name:<44} {value:>14.6g} {unit:<6} {note}".rstrip()


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        spec: dict, echo=print, workloads: dict = WORKLOADS,
        golden_dir: Path = GOLDEN_DIR) -> dict:
    """One benchmark run; returns the result object printed last."""
    workload = workloads[workload_name]
    cli = load_program()
    info = header()
    setup = [] if trace else measure_setup()
    checker = Checker(workload_name, workload, golden_dir)
    attempted = failed = 0
    untraced, traced, layer_runs, commands = [], [], [], []
    tracer = spans.Tracer(LAYERS)
    SCRATCH.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=SCRATCH))
    try:
        warm = run_pass(cli, workload, GOLDEN_SEED, out_root)
        attempted += len(warm)
        failed += checker.check(warm, GOLDEN_SEED)
        start = time.perf_counter()
        while True:
            traced_pass = trace and len(traced) < len(untraced)
            if traced_pass:
                tracer.reset()
                tracer.install()
            try:
                results = run_pass(cli, workload, seed, out_root)
            finally:
                tracer.remove()
            attempted += len(results)
            failed += checker.check(results, seed)
            wall = sum(s for _c, s, _o, _e in results)
            if traced_pass:
                traced.append(wall)
                layer_runs.append(spans.layer_metrics(
                    tracer, bytes_written(results, workload)))
                missing = [layer for layer, n in tracer.calls_by_layer().items()
                           if n == 0 and workload_name in LAYERS[layer]["used_on"]]
                if missing:
                    failed += 1
                    checker.messages.append(
                        f"{workload_name}: traced pass recorded no calls into "
                        f"{', '.join(missing)}")
            else:
                untraced.append(wall)
                commands.append([s for _c, s, _o, _e in results])
            if (time.perf_counter() - start >= seconds
                    and (not trace or traced)):
                break
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    limited = seed != GOLDEN_SEED
    echo(f"# fracapprox benchmark: workload={workload_name} seed={seed} "
         f"trace={int(trace)}")
    echo(f"# git_sha={info['git_sha']} nproc={info['nproc']} "
         f"python={info['python']} numpy={info['numpy']}")
    echo(f"# src_lines={info['src_lines']} (src/fracapprox/*.py, "
         "information only)")
    echo(f"# passes: {len(untraced)} untraced, {len(traced)} traced, after a "
         f"warm-up pass at seed {GOLDEN_SEED} checked against bench/golden/")
    if limited:
        echo(f"# check limited at seed {seed}: exit codes, CSV headers and "
             "repeat determinism only (golden bytes exist for seed "
             f"{GOLDEN_SEED})")
    for msg in checker.messages:
        echo(f"# FAILED {msg}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        overhead = statistics.median(traced) - statistics.median(untraced)
        echo(f"# trace_overhead_s[{workload_name}]={overhead!r} (traced wall_s "
             f"{statistics.median(traced):.4f} - untraced "
             f"{statistics.median(untraced):.4f})")
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {n: statistics.median(r[n] for r in layer_runs) for n in names}
        samples = {}
    else:
        for i, (label, argv, _f) in enumerate(workload["commands"]):
            times = [c[i] for c in commands]
            echo(f"# {label} = {statistics.median(times):.4f} s (median of "
                 f"{len(times)}, min {min(times):.4f}, max {max(times):.4f}): "
                 f"{' '.join(argv)}")
        samples = {"setup_s": setup, "wall_s": untraced}
        metrics = {n: statistics.median(v) for n, v in samples.items()}
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics = {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]}
    for name, value in metrics.items():
        note = ""
        if name in samples:
            v = samples[name]
            note = f"median of {len(v)}, min {min(v):.4f}, max {max(v):.4f}"
        echo(_line(name, value, units[name], note))
    echo(_line("failed_frac", failed / attempted, "ratio",
               f"({failed} of {attempted} commands)"))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def capture(workloads: dict = WORKLOADS, golden_dir: Path = GOLDEN_DIR,
            echo=print) -> None:
    """Rewrite the golden files from the tree at GOLDEN_SEED."""
    cli = load_program()
    SCRATCH.mkdir(exist_ok=True)
    for name, workload in workloads.items():
        out_root = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
        try:
            for i, ((label, _a, files), (code, _s, out, err)) in enumerate(
                    zip(workload["commands"],
                        run_pass(cli, workload, GOLDEN_SEED, out_root)), start=1):
                if code != 0:
                    raise SystemExit(f"{name} {label}: exit code {code}\n{err}")
                dest = golden_dir / name / f"cmd{i}"
                shutil.rmtree(dest, ignore_errors=True)
                for f in files:
                    echo(f"captured {golden.capture(out / f, dest)}")
        finally:
            shutil.rmtree(out_root, ignore_errors=True)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture", action="store_true",
                        help="rewrite bench/golden/ from this tree and exit")
    args = parser.parse_args(argv)
    try:
        if args.capture:
            capture()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
