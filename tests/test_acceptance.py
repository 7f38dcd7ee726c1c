"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Criterion 6's slope sub-check is expected red: the measured
layer-mass decay of the middle-thirds measure is genuinely steeper than the
envelope rate the criterion pins (see README, Tests section); every other
criterion is expected green.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from fracapprox.analysis import (
    SumSpec,
    _dn_centres,
    audit_hyperplane_lemma,
    classify_sum,
    dimension_bound,
    dimension_report,
    hs_upper_bound,
    layer_decay_experiment,
)
from fracapprox.approx import PsiFunction
from fracapprox.geometry import _greedy_segments
from fracapprox.ifs import measure_many, sample_measure, similarity_dimension

ALPHA = math.log(2.0) / math.log(3.0)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} [{status}] {desc}"
    if detail:
        line += f" :: {detail}"
    print(line, flush=True)
    return ok


# ---------------------------------------------------------------------------
# 1. simplex lemma audit
# ---------------------------------------------------------------------------


def test_criterion_1_simplex_lemma_audit():
    bad = 0
    max_pts = 0
    for d in (1, 2):
        for rep in audit_hyperplane_lemma(d, range(1, 7), 200, seed=2024):
            bad += rep.simplex_counterexamples
            max_pts = max(max_pts, rep.max_rationals)
    ok = bad == 0
    _report(1, "simplex lemma audit (d in {1,2}, n in 1..6, 200 balls each)",
            ok, f"counterexamples={bad}, max rationals per ball={max_pts}")
    assert ok


# ---------------------------------------------------------------------------
# 2. covering lemma
# ---------------------------------------------------------------------------


def test_criterion_2_covering_lemma():
    rng = np.random.default_rng(777)
    instances = 10_000
    failures = 0
    for _ in range(instances):
        d = int(rng.integers(1, 4))
        m = int(np.exp(rng.uniform(0.0, math.log(500.0))))
        r = float(rng.uniform(0.02, 0.5))
        centers = rng.uniform(0.0, 3.0, size=(m, d))
        ch, _ = _greedy_segments(centers, np.zeros(m, dtype=np.intp), r)
        if len(ch) > 1:
            gaps = np.linalg.norm(ch[:, None, :] - ch[None, :, :], axis=2)
            np.fill_diagonal(gaps, np.inf)
            if not gaps.min() > 2.0 * r:
                failures += 1
                continue
        idx = rng.integers(0, m, size=1000)
        dirs = rng.normal(size=(1000, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = centers[idx] + dirs * (r * rng.random(1000) ** (1.0 / d))[:, None]
        dist = np.linalg.norm(pts[:, None, :] - ch[None, :, :], axis=2).min(axis=1)
        if not np.all(dist <= 3.0 * r * (1.0 + 1e-12)):
            failures += 1
    ok = failures == 0
    _report(2, "covering lemma (10^4 instances, exact disjointness, 3-dilate "
               "coverage)", ok, f"failing instances={failures}")
    assert ok


# ---------------------------------------------------------------------------
# 3. Moran dimensions
# ---------------------------------------------------------------------------


def test_criterion_3_moran_dimensions(cantor, gasket):
    cantor_err = abs(cantor.delta - math.log(2.0) / math.log(3.0))
    gasket_err = abs(gasket.delta - math.log(3.0) / math.log(2.0))
    direct = abs(similarity_dimension([1 / 3, 1 / 3], 1)
                 - math.log(2.0) / math.log(3.0))
    ok = cantor_err <= 1e-10 and gasket_err <= 1e-10 and direct <= 1e-10
    _report(3, "Moran roots match closed forms to 1e-10", ok,
            f"cantor err={cantor_err:.2e}, gasket err={gasket_err:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 4. measure oracle vs Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_4_measure_oracle(cantor):
    rng = np.random.default_rng(41)
    centers = sample_measure(cantor, 50, seed=40)[:, 0]
    pool = sample_measure(cantor, 100_000, seed=44)[:, 0]
    tol = 1e-4
    width_ok = True
    inside = 0
    for c in centers:
        r = math.exp(rng.uniform(math.log(0.01), math.log(0.3)))
        iv = measure_many(cantor, [[c]], [r], [tol])[0]
        if not (iv.converged and iv.width <= tol):
            width_ok = False
        emp = float((np.abs(pool - c) <= r).mean())
        sigma = math.sqrt(max(iv.mid * (1.0 - iv.mid), 1e-12) / pool.size)
        if iv.widen(3.0 * sigma).contains(emp):
            inside += 1
    ok = width_ok and inside >= 48
    _report(4, "measure oracle: widths <= 1e-4, MC mass inside 3-sigma-widened "
               "interval >= 48/50", ok, f"inside={inside}/50")
    assert ok


# ---------------------------------------------------------------------------
# 5. sum classification grid
# ---------------------------------------------------------------------------


def _tabulated_twin(spec: SumSpec) -> SumSpec:
    r = np.geomspace(2.0, 2.0**45, 240)
    tab = PsiFunction.from_table(list(zip(r, spec.psi(r))), d=spec.psi.d)
    return SumSpec(spec.kind, tab, spec.d, alpha=spec.alpha,
                   delta=spec.delta, s=spec.s)


def _criterion5_grid():
    cases = []
    for d in (1, 2):
        base = (d + 1) / d
        for alpha in (ALPHA, 1.0):
            for off in (-0.5, -0.2, 0.2, 0.5, 1.0):
                tau = base + off
                if tau <= 0.2:
                    continue
                cases.append(SumSpec("measure_zero", PsiFunction.power(tau, d=d),
                                     d, alpha=alpha))
            for prod in (0.5, 1.5, 3.0):
                cases.append(SumSpec(
                    "measure_zero", PsiFunction.power_log(prod / alpha, d=d),
                    d, alpha=alpha))
        delta = alpha = ALPHA if d == 1 else math.log(3.0) / math.log(2.0)
        for s_off in (0.0, -alpha / 2.0):
            for off in (-0.4, 0.4, 1.0):
                tau = base + off
                cases.append(SumSpec("hausdorff", PsiFunction.power(tau, d=d),
                                     d, alpha=alpha, delta=delta,
                                     s=delta + s_off))
        for off in (-0.4, -0.2, 0.2, 0.4):
            cases.append(SumSpec("lebesgue", PsiFunction.power(base + off, d=d), d))
    return [c for c in cases if classify_sum(c).margin > 0.05]


def test_criterion_5_sum_classification():
    grid = _criterion5_grid()
    assert len(grid) >= 50
    mismatches = 0
    for spec in grid[:60]:
        closed = classify_sum(spec)
        numeric = classify_sum(_tabulated_twin(spec))
        if numeric.converges != closed.converges:
            mismatches += 1
    paper_power = classify_sum(
        SumSpec("measure_zero", PsiFunction.power(2.5), 1, alpha=ALPHA)
    )
    paper_log = classify_sum(
        SumSpec("measure_zero", PsiFunction.power_log(1.5 / ALPHA, d=1), 1,
                alpha=ALPHA)
    )
    ok = (mismatches == 0 and paper_power.converges == "yes"
          and paper_log.converges == "yes")
    _report(5, f"sum classification grid ({len(grid)} symbolic cases, margin "
               "> 0.05): closed form == condensation", ok,
            f"mismatches={mismatches}")
    assert ok


# ---------------------------------------------------------------------------
# 6. layer-mass decay
# ---------------------------------------------------------------------------


def test_criterion_6_layer_mass_decay(cantor):
    tau = 2.5
    res = layer_decay_experiment(cantor, PsiFunction.power(tau), ALPHA,
                                 range(1, 11), 100_000, seed=606)
    predicted = -ALPHA * (tau - 2.0)
    slope_gap = abs(res.empirical_slope - predicted)
    slope_ok = slope_gap <= 0.15
    envelope_ok = all(emp <= 10.0 * env for _, emp, env in res.rows)
    ok = slope_ok and envelope_ok
    _report(6, "layer-mass decay: slope within 0.15 of -alpha(tau-2) and mass "
               "<= 10x envelope", ok,
            f"empirical slope={res.empirical_slope:.4f}, "
            f"predicted={predicted:.4f}, gap={slope_gap:.4f}, "
            f"envelope_ok={envelope_ok}")
    assert envelope_ok
    # the true decay rate of the middle-thirds measure is -(tau-2) per block
    # (Farey density times Minkowski content), steeper than the envelope rate
    # -alpha(tau-2), so this assertion is expected to fail; the gate is kept
    # at its fixed tolerance rather than loosened to fit the measurement
    assert slope_ok


# ---------------------------------------------------------------------------
# 7. cardinality envelopes
# ---------------------------------------------------------------------------


def test_criterion_7_cardinality_envelopes(cantor):
    d_quant = []
    for n in range(1, 7):
        dn = _dn_centres(cantor, n)
        d_quant.append(len(dn) * 2.0 ** (-2.0 * (n + 1) * cantor.delta))
    d_ratio = max(d_quant) / min(d_quant)

    psi = PsiFunction.power(3.0)
    tail = hs_upper_bound(cantor, psi, cantor.delta, range(2, 7), seed=7)
    c_quant = []
    for (n, _nd, _nc, _cost), cmax in zip(tail.rows, tail.c_max):
        x = 2.0 ** (2.0 * (n + 1)) * psi(2.0**n)
        c_quant.append(cmax * x ** (cantor.delta - ALPHA))
    c_ratio = max(c_quant) / min(c_quant)
    ok = d_ratio <= 10.0 and c_ratio <= 10.0 and min(c_quant) > 0
    _report(7, "cardinality envelopes: #D_n and #C(D_n) quantities within "
               "factor 10 across blocks", ok,
            f"D ratio={d_ratio:.2f}, C ratio={c_ratio:.2f}")
    assert ok


# ---------------------------------------------------------------------------
# 8. dimension bounds
# ---------------------------------------------------------------------------


def test_criterion_8_dimension_bounds(cantor):
    delta = cantor.delta
    formula_ok = (
        abs(dimension_bound(delta, ALPHA, 1, 2.0) - delta) <= 1e-12
        and abs(dimension_bound(delta, ALPHA, 1, 3.0) - 2.0 * delta / 3.0) <= 1e-12
        and abs(dimension_bound(delta, ALPHA, 1, 4.0) - delta / 2.0) <= 1e-12
    )
    rows = dimension_report(cantor, ALPHA, [3.0, 4.0], seed=808)
    est_ok = True
    details = []
    for tau, bound, est in rows:
        details.append(f"tau={tau}: bound={bound:.4f}, est={est:.4f}")
        if est is None or est > bound + 0.1:
            est_ok = False
    ok = formula_ok and est_ok
    _report(8, "dimension bounds: formula values exact, box-count estimates "
               "<= bound + 0.1", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 9. CLI determinism
# ---------------------------------------------------------------------------

_CLI_CASES = [
    ("certify", ["certify", "--ifs", "cantor", "--trials", "40"],
     ["doubling.csv", "decay.csv", "regularity.csv"]),
    ("decay", ["decay", "--ifs", "cantor", "--psi", "power:tau=2.5",
               "--blocks", "1:5", "--samples", "20000"],
     ["decay_experiment.csv"]),
    ("lemma-audit", ["lemma-audit", "--ifs", "cantor", "--blocks", "1:3",
                     "--trials", "20"], ["lemma_audit.csv"]),
    ("dim-report", ["dim-report", "--ifs", "cantor", "--taus", "2.0",
                    "--samples", "150000"], ["dim_report.csv"]),
    ("sums", ["sums", "--ifs", "cantor", "--psi", "power:tau=2.5",
              "--kind", "measure_zero"], ["sums.csv"]),
    ("cover-cost", ["cover-cost", "--ifs", "cantor", "--psi", "power:tau=3.0",
                    "--blocks", "2:4"], ["cover_cost.csv"]),
    ("sample", ["sample", "--ifs", "koch", "--samples", "20000"],
     ["samples.csv"]),
]


def _run_cli(out_dir: Path, jobs: int, sub: list) -> None:
    cmd = [sys.executable, "-m", "fracapprox", "--seed", "99",
           "--out", str(out_dir), "--jobs", str(jobs)] + sub
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_criterion_9_cli_determinism(tmp_path):
    mismatched = []
    for name, sub, files in _CLI_CASES:
        runs = []
        for tag, jobs in (("r1", 1), ("r2", 1), ("r4", 4)):
            out = tmp_path / name / tag
            _run_cli(out, jobs, sub)
            runs.append(out)
        for fname in files:
            blobs = [(run / fname).read_bytes() for run in runs]
            if not (blobs[0] == blobs[1] == blobs[2]):
                mismatched.append(f"{name}/{fname}")
    ok = not mismatched
    _report(9, "CLI determinism: byte-identical outputs across repeats and "
               "--jobs in {1,4}", ok, f"mismatches={mismatched}")
    assert ok
