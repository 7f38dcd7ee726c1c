#!/usr/bin/env python3
"""Repeat benchmark runs over seeds, save them, and compare result files.

    python3 bench/sweep.py --seeds 1:10 --save bench/results/new.json
    python3 bench/sweep.py --compare bench/results/BENCH_1.json bench/results/new.json

A sweep runs ``bench/run.py`` in a fresh process for every seed and workload
(seeds outermost, so slow drift of the machine touches every workload alike),
then one traced run per workload at the golden seed.  It prints, for every
workload and end-to-end metric, the median of the runs and the spread: the
distance between the first and third quartile as a share of the median.  A
spread above a third of the metric's bound is flagged, and so is one above
the bound itself.  The compare mode prints both medians of every workload
and end-to-end metric, their ratio, and whether the difference exceeds the
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
from workloads import GOLDEN_SEED, WORKLOADS


def _seeds(text: str) -> list:
    lo, _, hi = text.partition(":")
    return list(range(int(lo), int(hi or lo) + 1))


def _one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(result, report lines, elapsed seconds) of one fresh-process run."""
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(cmd)} printed no result (exit "
                         f"{proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1], elapsed


def quartile_spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median), quartiles as statistics.quantiles
    gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def sweep(workloads: list, seeds: list, seconds: float, spec: dict) -> dict:
    out = {"header": {**run.header(), "seconds": seconds, "seeds": seeds},
           "workloads": {w: {"e2e": {}, "layers": {}, "attempted": 0, "failed": 0}
                         for w in workloads}}
    for seed in seeds:
        for w in workloads:
            result, _report, elapsed = _one_run(w, seed, seconds, 0)
            entry = out["workloads"][w]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                entry["e2e"].setdefault(name, {"unit": m["unit"], "values": []})
                entry["e2e"][name]["values"].append(m["value"])
            print(f"seed {seed:>3} {w:<8} {elapsed:5.1f}s correct={result['correct']} "
                  + " ".join(f"{n}={m['value']:.4g}"
                             for n, m in result["metrics"].items()), flush=True)
    for w in workloads:
        result, report, elapsed = _one_run(w, GOLDEN_SEED, seconds, 1)
        entry = out["workloads"][w]
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        entry["layers"] = result["metrics"]
        for line in report:
            if line.startswith("# trace_overhead_s["):
                entry["trace_overhead_s"] = float(line.split("=", 1)[1].split()[0])
        print(f"traced   {w:<8} {elapsed:5.1f}s correct={result['correct']} overhead="
              f"{entry.get('trace_overhead_s', float('nan')):.4f} s", flush=True)
    return out


def summarize(results: dict, spec: dict) -> bool:
    """Print the spread table; True when every spread is within a third of
    its bound (setup_s excepted, as its spread is not gated)."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    print(f"{'workload':<9} {'metric':<12} {'unit':<5} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    for w, entry in results["workloads"].items():
        for name, m in entry["e2e"].items():
            med, q1, q3, spread = quartile_spread(m["values"])
            bound = bounds[name]
            flag = ""
            if spread > bound:
                flag = "OVER BOUND"
            elif spread > bound / 3:
                flag = "above bound/3"
            if flag and name != "setup_s":
                steady = False
            print(f"{w:<9} {name:<12} {m['unit']:<5} {med:>10.4f} {q1:>10.4f} "
                  f"{q3:>10.4f} {spread:>7.3f} {bound:>6.2f} {flag}")
        print(f"{w:<9} failed {entry['failed']} of {entry['attempted']} commands; "
              f"trace overhead {entry.get('trace_overhead_s', float('nan')):.4f} s")
    return steady


def compare(old: dict, new: dict, spec: dict) -> bool:
    """Print old and new medians per workload and metric; True when no
    metric got worse by more than its bound."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    print(f"{'workload':<9} {'metric':<12} {'unit':<5} {'old':>10} {'new':>10} "
          f"{'new/old':>8}  exceeds bound")
    for w, entry in new["workloads"].items():
        if w not in old["workloads"]:
            print(f"{w:<9} (not in the old file)")
            continue
        for name, m in entry["e2e"].items():
            if name not in old["workloads"][w]["e2e"]:
                continue
            a = statistics.median(old["workloads"][w]["e2e"][name]["values"])
            b = statistics.median(m["values"])
            ratio = b / a
            worse = ratio - 1 if metrics[name]["better"] == "lower" else 1 - ratio
            exceeds = worse > metrics[name]["bound"]
            ok &= not exceeds
            print(f"{w:<9} {name:<12} {m['unit']:<5} {a:>10.4f} {b:>10.4f} "
                  f"{ratio:>8.3f}  {'YES' if exceeds else 'no'}")
    return ok


def main(argv=None) -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1:10", help="range lo:hi")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--save", type=Path, help="write the results here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        return 0 if compare(old, new, spec) else 1
    names = args.workloads.split(",")
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    results = sweep(names, _seeds(args.seeds), args.seconds, spec)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    steady = summarize(results, spec)
    failed = sum(e["failed"] for e in results["workloads"].values())
    return 0 if steady and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
