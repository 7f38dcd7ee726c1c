"""Workload table and layer map of the fracapprox benchmark.

Every workload is a closed loop in one process: the CLI commands below run
one after another through ``fracapprox.cli.main``, with the workload seed
passed as the global ``--seed``.  The gated end-to-end time is ``wall_s``,
the whole pass; the report also prints each command's median time under its
label, so a gain in one command that hides a loss in its neighbour shows
there.  The per-command times are not gated metrics: a metric must exist on
every workload, and on a shared box the shortest commands spread past the
largest bound allowed.

Sizes were chosen on a 2-core x86-64 box so that one pass of a workload
takes 2-4 s and a run of the benchmark holds about ten passes.  A fourth
workload, ``sample`` (bulk sampling and its process pool), was left out: on
that shared box its run-to-run spread exceeded the largest bound allowed.
"""

from __future__ import annotations

# The seed at which bench/golden/ was captured (ExperimentConfig's default).
GOLDEN_SEED = 0

# name -> why, and the commands as (label, argv, output files).  argv holds
# global flags first; --seed and --out are prepended by the harness.
WORKLOADS = {
    "certify": {
        "why": "mass oracle: certify cantor (plain frontier), then certify "
               "koch (rotation frontier); ~75% in ifs "
               "measure_of_ball/slab, ~20% in sample_measure trial centres",
        "commands": [
            ("certify_s[cantor]", ["certify", "--ifs", "cantor", "--trials", "300"],
             ["doubling.csv", "decay.csv", "regularity.csv"]),
            ("certify_s[koch]", ["certify", "--ifs", "koch", "--trials", "90"],
             ["doubling.csv", "decay.csv", "regularity.csv"]),
        ],
    },
    "layers": {
        "why": "layer hit test: decay (4e4 points, blocks 1-10), then "
               "dim-report (4e4-point batches, blocks 5-10); ~90% in "
               "approx.layer_hit_mask, mass oracle idle",
        "commands": [
            ("decay_s", ["decay", "--ifs", "cantor", "--psi", "power:tau=2.5",
                         "--blocks", "1:10", "--samples", "40000"],
             ["decay_experiment.csv"]),
            ("dim_report_s", ["dim-report", "--ifs", "cantor", "--taus", "3.0",
                              "--samples", "40000"],
             ["dim_report.csv"]),
        ],
    },
    "covers": {
        "why": "rational enumeration, exact hyperplane witness, greedy cover and "
               "cylinder nets: cover-cost (d=1), then lemma-audit (d=2)",
        "commands": [
            ("cover_cost_s", ["cover-cost", "--ifs", "cantor", "--psi",
                              "power:tau=3.0", "--blocks", "2:7"],
             ["cover_cost.csv"]),
            ("lemma_audit_s", ["lemma-audit", "--ifs", "dust", "--blocks", "1:11",
                               "--trials", "150"],
             ["lemma_audit.csv"]),
        ],
    },
}

# The layers whose public functions the traced run wraps, in the order they
# are imported, with the workloads on which each must record calls and the
# end-to-end metrics its per-layer metrics should move.
LAYERS = {
    "geometry": {
        "used_on": ["covers"],
        "moves": "hyperplane_witness, greedy_cover: wall_s on covers (both commands)",
    },
    "ifs": {
        "used_on": ["certify", "layers", "covers"],
        "moves": "measure_of_ball, measure_of_slab_in_ball, mass: wall_s "
                 "on certify, no change elsewhere; sample_measure: "
                 "certify (trial centres), small on layers and covers; "
                 "bundled_system: setup_s everywhere",
    },
    "approx": {
        "used_on": ["layers", "covers"],
        "moves": "layer_hit_mask: wall_s on layers (decay and dim-report), "
                 "no change on certify; enumerate_rationals: wall_s on covers "
                 "(cover-cost and lemma-audit)",
    },
    "diagnostics": {
        "used_on": ["certify"],
        "moves": "certify_doubling/decay/regularity, discard_frac: wall_s "
                 "on certify only",
    },
    "analysis": {
        "used_on": ["layers", "covers"],
        "moves": "build_dn_cover, build_cdn_cover, hs_upper_bound, "
                 "audit_hyperplane_lemma: covers; layer_decay_experiment, "
                 "approximant_points, box_dimension: layers",
    },
    "cli": {
        "used_on": ["certify", "layers", "covers"],
        "moves": "main self time (CLI parsing and CSV writer): under 1% of "
                 "wall_s everywhere",
    },
}
