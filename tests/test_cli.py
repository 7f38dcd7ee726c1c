import json

import numpy as np
import pytest

from fracapprox.cli import ExperimentConfig, main, resolve_config


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_config_defaults_and_overrides(tmp_path):
    cfg_file = tmp_path / "exp.json"
    cfg_file.write_text(json.dumps({"ifs_path": "cantor", "trials": 77, "seed": 5}))
    cfg = resolve_config(str(cfg_file))
    assert cfg.ifs_path == "cantor" and cfg.trials == 77 and cfg.seed == 5
    cfg2 = resolve_config(str(cfg_file), seed=9, trials=11)
    assert cfg2.seed == 9 and cfg2.trials == 11


def test_config_rejects_unknown_fields(tmp_path):
    from fracapprox.cli import UsageFailure

    cfg_file = tmp_path / "exp.json"
    cfg_file.write_text(json.dumps({"ifs_path": "cantor", "mystery": 1}))
    with pytest.raises(UsageFailure):
        resolve_config(str(cfg_file))


def test_config_hash_ignores_output_dir_and_jobs():
    a = ExperimentConfig(ifs_path="cantor", output_dir="x", jobs=1)
    b = ExperimentConfig(ifs_path="cantor", output_dir="y", jobs=4)
    assert a.hash() == b.hash()
    c = ExperimentConfig(ifs_path="cantor", seed=1)
    assert a.hash() != c.hash()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_trials_zero_is_usage_error(tmp_path):
    assert run(["--out", tmp_path, "certify", "--ifs", "cantor",
                "--trials", 0]) == 1


def test_missing_ifs_path_names_the_field(tmp_path, capsys):
    code = run(["--out", tmp_path, "certify"])
    assert code == 1
    assert "ifs_path" in capsys.readouterr().err


def test_bad_config_file_is_usage_error(tmp_path):
    assert run(["--config", tmp_path / "nope.json", "certify"]) == 1


def test_empty_taus_is_usage_error(tmp_path):
    assert run(["--out", tmp_path, "dim-report", "--ifs", "cantor",
                "--taus", ""]) == 1


def test_unknown_subcommand_is_usage_error(tmp_path):
    assert run(["frobnicate"]) == 1


_BOX = '"open_set": {"type": "box", "min": [0.0], "max": [1.0]}'
_MAPS = ('"maps": [{"ratio": 0.3333333333333333, "rotation": [1.0], "translation": [0.0]}, '
         '{"ratio": 0.3333333333333333, "rotation": [1.0], '
         '"translation": [0.6666666666666666]}], ')


@pytest.mark.parametrize("field, files, argv", [
    ("alpha", {}, ["certify", "--ifs", "cantor", "--alpha", "nan"]),
    ("tolerance", {"exp.json": '{"ifs_path": "cantor", "tolerance": NaN}'},
     ["--config", "exp.json", "certify"]),
    ("trials", {"exp.json": '{"ifs_path": "cantor", "trials": "5"}'},
     ["--config", "exp.json", "certify"]),
    ("maps", {"sys.json": '{"dimension": 1, "maps": 3, ' + _BOX + "}"},
     ["certify", "--ifs", "sys.json"]),
    ("seed", {}, ["--seed", "-5", "decay", "--ifs", "cantor", "--blocks", "1:2",
                  "--samples", "100"]),
    ("seed", {"exp.json": '{"ifs_path": "cantor", "seed": -5}'},
     ["--config", "exp.json", "sample"]),
    ("psi_spec", {"t.csv": "2.0\n4.0,0.1\n"},
     ["sums", "--ifs", "cantor", "--psi", "table:t.csv"]),
    ("ifs_path", {}, ["sums", "--ifs", "."]),
    ("dimension", {"sys.json": '{"dimension": 1.7, ' + _MAPS + _BOX + "}"},
     ["sums", "--ifs", "sys.json"]),
    ("dimension", {"sys.json": '{"dimension": true, ' + _MAPS + _BOX + "}"},
     ["sums", "--ifs", "sys.json"]),
    ("dimension", {"sys.json": '{"dimension": "1", ' + _MAPS + _BOX + "}"},
     ["sums", "--ifs", "sys.json"]),
    ("blocks", {}, ["lemma-audit", "--ifs", "cantor", "--blocks", "70:70",
                    "--trials", "1"]),
    ("blocks", {}, ["lemma-audit", "--ifs", "cantor", "--blocks", "53:53",
                    "--trials", "1"]),
    ("blocks", {}, ["lemma-audit", "--ifs", "cantor", "--blocks", "52:52",
                    "--trials", "1"]),
    ("blocks", {}, ["lemma-audit", "--ifs", "cantor", "--blocks", "26:26",
                    "--trials", "1"]),
    ("blocks", {}, ["lemma-audit", "--ifs", "cantor", "--blocks", "13:13",
                    "--trials", "200"]),
    ("blocks", {}, ["cover-cost", "--ifs", "cantor", "--blocks", "14:14"]),
    ("blocks", {}, ["cover-cost", "--ifs", "cantor", "--blocks", "50:50"]),
    ("blocks", {}, ["cover-cost", "--ifs", "dust", "--blocks", "700:700"]),
    ("blocks", {}, ["cover-cost", "--ifs", "cantor", "--blocks", "900:900"]),
    ("s", {}, ["cover-cost", "--ifs", "cantor", "--s-param", "-1"]),
    ("kind", {}, ["sums", "--ifs", "cantor", "--kind", "bogus"]),
    ("s", {}, ["sums", "--ifs", "cantor", "--kind", "hausdorff", "--s-param", "5"]),
    ("s", {}, ["sums", "--ifs", "cantor", "--kind", "hausdorff", "--s-param", "-1"]),
], ids=["alpha-nan", "tolerance-nan", "trials-string", "maps-number",
        "seed-negative", "seed-negative-config", "psi-table-one-column",
        "ifs-directory", "dimension-fraction", "dimension-bool",
        "dimension-string", "blocks-70", "blocks-53", "blocks-52", "blocks-26",
        "blocks-13-rounding", "cover-cost-blocks-14", "blocks-50",
        "dust-blocks-700", "blocks-900", "cover-cost-s-negative",
        "sums-kind-bogus", "sums-s-above-delta", "sums-s-negative"])
def test_bad_input_is_one_error_line_naming_the_field(tmp_path, capsys, monkeypatch,
                                                       field, files, argv):
    monkeypatch.chdir(tmp_path)  # relative paths, as in a table: spec, are files here
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    args = [tmp_path / a if a in files else a for a in argv]
    assert run(["--out", tmp_path / "out", *args]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"'{field}'" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ifs, blocks, reason", [
    ("cantor", "2:60", "block 12 refused: float64 numerator bounds"),
    ("cantor", "50:50", "block 50 refused: its cylinder net of 2^67 candidates exceeds "
                        "the budget of 4000000"),
    ("dust", "700:700", "block 700 refused: its cylinder net of 4^528 candidates exceeds "
                        "the budget of 4000000"),
    ("cantor", "900:900", "block 900 refused: its radius r_n underflows to 0"),
], ids=["rounding-12", "budget-50", "dust-budget-700", "underflow-900"])
def test_cover_cost_refuses_a_block_range_before_any_pool(tmp_path, capsys, monkeypatch,
                                                          ifs, blocks, reason):
    # blocks 2-11 are fine; the range is refused before any of them is covered
    from fracapprox import analysis

    def no_pool(*args):
        raise AssertionError("a sample pool was drawn")

    monkeypatch.setattr(analysis, "sample_measure", no_pool)
    assert run(["--out", tmp_path / "out", "cover-cost", "--ifs", ifs,
                "--blocks", blocks]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config field 'blocks': {reason}")


@pytest.mark.parametrize("argv", [
    ["sample", "--ifs", "koch"],
    ["decay", "--ifs", "cantor", "--blocks", "1:2"],
    ["dim-report", "--ifs", "cantor", "--taus", "3.0"],
], ids=["sample", "decay", "dim-report"])
def test_samples_above_the_cap_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                 argv):
    from fracapprox import ifs

    def no_rng(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(ifs.np.random, "default_rng", no_rng)
    over = ifs._SAMPLE_DIGIT_CAP // ifs.SAMPLE_DEPTH + 1
    assert run(["--out", tmp_path / "out", *argv, "--samples", over]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: config field 'samples' must be <= {over - 1}"]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_writes_three_certificates(tmp_path):
    out = tmp_path / "run"
    code = run(["--seed", 3, "--out", out, "certify", "--ifs", "cantor",
                "--trials", 60])
    assert code == 0
    constants = {}
    for name, key in (("doubling.csv", "D"), ("decay.csv", "C"),
                      ("regularity.csv", "a")):
        text = (out / name).read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "# fracapprox v0.1.0"
        assert lines[1].startswith("# config_hash=")
        assert lines[2] == "# seed=3"
        tail = lines[-1]
        assert tail.startswith("# ")
        val = dict(kv.split("=") for kv in tail[2:].split())[key]
        constants[key] = float(val)
    assert constants["D"] >= 1.0
    assert constants["C"] > 0.0
    assert constants["a"] > 0.0


def test_certify_deterministic_across_jobs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["--seed", 11, "--out", out1, "certify", "--ifs", "cantor",
                "--trials", 40]) == 0
    assert run(["--seed", 11, "--out", out2, "--jobs", 4, "certify",
                "--ifs", "cantor", "--trials", 40]) == 0
    for name in ("doubling.csv", "decay.csv", "regularity.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------------------
# other subcommands
# ---------------------------------------------------------------------------


def test_decay_experiment_output(tmp_path):
    out = tmp_path / "run"
    code = run(["--seed", 2, "--out", out, "decay", "--ifs", "cantor",
                "--psi", "power:tau=2.5", "--blocks", "1:4",
                "--samples", 20000])
    assert code == 0
    text = (out / "decay_experiment.csv").read_text()
    assert "empirical_slope=" in text and "predicted_slope=" in text
    assert "smallness_onset" in text
    rows = [l for l in text.splitlines()
            if l and not l.startswith("#") and not l.startswith("n,")]
    assert len(rows) == 4


def test_lemma_audit_zero_counterexamples(tmp_path):
    out = tmp_path / "run"
    code = run(["--seed", 2, "--out", out, "lemma-audit", "--ifs", "cantor",
                "--blocks", "1:3", "--trials", 20])
    assert code == 0
    rows = [l.split(",") for l in (out / "lemma_audit.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("d,")]
    assert all(r[-1] == "0" for r in rows)


def test_sums_closed_form_verdict(tmp_path):
    out = tmp_path / "run"
    code = run(["--seed", 2, "--out", out, "sums", "--ifs", "cantor",
                "--psi", "power:tau=2.5", "--kind", "measure_zero"])
    assert code == 0
    text = (out / "sums.csv").read_text()
    assert "# converges=yes" in text
    assert "# method=closed_form" in text


def test_sums_with_table_psi(tmp_path):
    table = tmp_path / "psi.csv"
    r = np.geomspace(2.0, 2.0**45, 200)
    table.write_text("\n".join(f"{float(a)!r},{float(a**-2.5)!r}" for a in r))
    out = tmp_path / "run"
    code = run(["--seed", 2, "--out", out, "sums", "--ifs", "cantor",
                "--psi", f"table:{table}", "--kind", "measure_zero"])
    assert code == 0
    text = (out / "sums.csv").read_text()
    assert "# method=condensation_numeric" in text
    assert "# converges=yes" in text


def test_cover_cost_decreasing_tail(tmp_path):
    out = tmp_path / "run"
    code = run(["--seed", 2, "--out", out, "cover-cost", "--ifs", "cantor",
                "--psi", "power:tau=3.0", "--blocks", "2:5"])
    assert code == 0
    rows = [l.split(",") for l in (out / "cover_cost.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("n,")]
    tails = [float(r[3]) for r in rows]
    assert all(a > b for a, b in zip(tails, tails[1:]))


def test_sample_sharding_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["--seed", 7, "--out", out1, "sample", "--ifs", "gasket",
                "--samples", 25000]) == 0
    assert run(["--seed", 7, "--out", out2, "--jobs", 3, "sample",
                "--ifs", "gasket", "--samples", 25000]) == 0
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    lines = (out1 / "samples.csv").read_text().strip().splitlines()
    assert lines[3] == "x_0,x_1"
    assert len(lines) == 3 + 1 + 25000


def test_dim_report_rejects_low_tau_on_stderr(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["--seed", 2, "--out", out, "dim-report", "--ifs", "cantor",
                "--taus", "1.5,2.0", "--samples", 60000])
    assert code == 0
    assert "Dirichlet" in capsys.readouterr().err
    rows = [l for l in (out / "dim_report.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("tau,")]
    assert len(rows) == 1 and rows[0].startswith("2.0,")


def test_dim_report_names_short_approximants_on_stderr(tmp_path, capsys):
    # 200-sample batches leave too few layer points for box counting: the
    # CSV keeps its blank estimates and stderr says why, once per tau
    out = tmp_path / "run"
    code = run(["--seed", 0, "--out", out, "dim-report", "--ifs", "cantor",
                "--taus", "3.0,6.0", "--samples", 200])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "tau=3.0: only 193 approximant points when the budget of 200-sample "
        "batches ran out, too few for box counting; box_estimate left blank",
        "tau=6.0: only 0 approximant points when the budget of 200-sample "
        "batches ran out, too few for box counting; box_estimate left blank",
    ]
    rows = [l for l in (out / "dim_report.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("tau,")]
    assert rows == ["3.0,0.4206198357143004,", "6.0,0.21030991785715014,"]


def test_ifs_file_path_roundtrip(tmp_path):
    from fracapprox.ifs import dump_system, four_corner_dust

    sys_file = tmp_path / "dust.json"
    dump_system(four_corner_dust(), sys_file)
    out = tmp_path / "run"
    code = run(["--seed", 1, "--out", out, "sample", "--ifs", sys_file,
                "--samples", 100])
    assert code == 0
