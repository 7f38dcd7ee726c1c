import contextlib
import functools
import importlib.util
import io
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracapprox import cli as cli_module
from fracapprox.analysis import HsTail, LayerDecayResult, LemmaAuditReport, SumVerdict
from fracapprox.approx import _PSI_SPECS, parse_psi_spec
from fracapprox.cli import ExperimentConfig, _parse_blocks, _parse_taus, main, resolve_config

ROOT = Path(__file__).resolve().parents[1]


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
    ("alpha", {}, ["certify", "--ifs", "cantor", "--alpha", "100"]),
    ("alpha", {}, ["decay", "--ifs", "cantor", "--blocks", "1:10", "--alpha", "1000"]),
    ("taus", {}, ["dim-report", "--ifs", "cantor", "--taus", "3,abc"]),
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
    ("blocks", {}, ["decay", "--ifs", "cantor", "--blocks", "21:21", "--samples", "10"]),
    ("taus", {}, ["dim-report", "--ifs", "cantor", "--taus", "3,40", "--samples", "40000"]),
    ("kind", {}, ["sums", "--ifs", "cantor", "--kind", "bogus"]),
    ("s", {}, ["sums", "--ifs", "cantor", "--kind", "hausdorff", "--s-param", "5"]),
    ("s", {}, ["sums", "--ifs", "cantor", "--kind", "hausdorff", "--s-param", "-1"]),
    *[("psi_spec", {"t.csv": f"{row}\n{last}\n"},
       ["decay", "--ifs", "cantor", "--psi", "table:t.csv", "--blocks", "1:2",
        "--samples", "100"])
      for row, last in (("1,nan", "2,0.5"), ("1,inf", "2,0.5"), ("0,1", "2,0.5"),
                        ("1,1", "1e400,0.5"))],
    ("psi_spec", {"t.csv": "0,1\n2,0.5\n"},
     ["sums", "--ifs", "cantor", "--psi", "table:t.csv"]),
    *[("psi_spec", {}, ["sums", "--ifs", "cantor", "--psi", spec])
      for spec in ("power:tau=2.5,beta=9", "powerlog:tau=9,beta=2", "power:tau=2.5,tau=9",
                   "power")],
    *[("blocks", {}, ["decay", "--ifs", "cantor", "--blocks", blocks])
      for blocks in ("1-3", "2,3")],
], ids=["alpha-nan", "certify-alpha-above-delta", "decay-alpha-above-delta",
        "dim-report-taus-unparsable", "tolerance-nan", "trials-string", "maps-number",
        "seed-negative", "seed-negative-config", "psi-table-one-column",
        "ifs-directory", "dimension-fraction", "dimension-bool",
        "dimension-string", "blocks-70", "blocks-53", "blocks-52", "blocks-26",
        "blocks-13-rounding", "cover-cost-blocks-14", "blocks-50",
        "dust-blocks-700", "blocks-900", "cover-cost-s-negative", "decay-blocks-21",
        "dim-report-taus-40", "sums-kind-bogus", "sums-s-above-delta", "sums-s-negative",
        "decay-psi-table-nan", "decay-psi-table-inf", "decay-psi-table-r-zero",
        "decay-psi-table-r-overflow", "sums-psi-table-r-zero", "psi-extra-key",
        "psi-other-family-key", "psi-repeated-key", "psi-no-keys", "blocks-dash",
        "blocks-comma"])
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


@pytest.mark.parametrize("ifs, blocks, trials, reason", [
    ("gasket", "1:13", "5000", "block 13 refused: float64 numerator bounds for window "
                               "endpoints up to 0.999768"),
    ("cantor", "1:70", "200", "block 13 refused: float64 numerator bounds for window "
                              "endpoints up to 0.988892"),
], ids=["gasket-rounding-13", "cantor-rounding-13"])
def test_lemma_audit_refuses_a_block_range_before_any_audit(tmp_path, capsys, monkeypatch,
                                                            ifs, blocks, trials, reason):
    # the earlier blocks are fine; the range is refused before any is enumerated
    from fracapprox import analysis

    def no_enumeration(*args):
        raise AssertionError("a block was enumerated")

    monkeypatch.setattr(analysis, "_enumerate_windows", no_enumeration)
    assert run(["--out", tmp_path / "out", "lemma-audit", "--ifs", ifs,
                "--blocks", blocks, "--trials", trials]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config field 'blocks': {reason}")
    assert not (tmp_path / "out").exists()


def test_decay_refuses_a_block_range_before_sampling(tmp_path, capsys, monkeypatch):
    from fracapprox import analysis

    def no_samples(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(analysis, "sample_measure", no_samples)
    assert run(["--out", tmp_path / "out", "decay", "--ifs", "cantor",
                "--blocks", "1:40"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: config field 'blocks': block 21 refused: its 2^21 "
                   "denominators per window exceed the ceiling of 1048576 cells"]


_DENOMINATORS = "its 2^21 denominators per window exceed the ceiling"
_HUGE = f"block {2**62} refused: "


@pytest.mark.parametrize("command, blocks, reason", [
    ("decay", f"0:{2**70}", f"block 21 refused: {_DENOMINATORS}"),
    ("decay", f"0:{2**62}", f"block 21 refused: {_DENOMINATORS}"),
    ("decay", f"{2**62}:{2**70}", f"{_HUGE}its 2^{2**62} denominators per window"),
    ("lemma-audit", f"0:{2**70}", "block 13 refused: float64 numerator bounds"),
    ("lemma-audit", f"0:{2**62}", "block 13 refused: float64 numerator bounds"),
    ("lemma-audit", f"{2**62}:{2**70}", f"{_HUGE}its 2^{2**62} denominators per window"),
    ("cover-cost", f"0:{2**70}", "block 12 refused: float64 numerator bounds"),
    ("cover-cost", f"0:{2**62}", "block 12 refused: float64 numerator bounds"),
    ("cover-cost", f"{2**62}:{2**70}", f"{_HUGE}its radius r_n underflows to 0"),
], ids=[f"{command}-{ends}" for command in ("decay", "lemma-audit", "cover-cost")
        for ends in ("0-2^70", "0-2^62", "2^62-2^70")])
def test_a_huge_block_range_is_refused_at_its_first_refused_block(
        tmp_path, capsys, monkeypatch, command, blocks, reason):
    # the range is walked lazily, so its length costs nothing, and no 2^n is
    # built for a block index n = 2^62
    from fracapprox import analysis

    def no_work(*args):
        raise AssertionError("a block was sampled or enumerated")

    monkeypatch.setattr(analysis, "sample_measure", no_work)
    monkeypatch.setattr(analysis, "_enumerate_windows", no_work)
    assert run(["--out", tmp_path / "out", command, "--ifs", "cantor",
                "--blocks", blocks]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config field 'blocks': {reason}")
    assert not (tmp_path / "out").exists()


def test_lemma_audit_counterexample_exits_2_with_one_failure_line(tmp_path, capsys,
                                                                  monkeypatch):
    # with two or more points read as spanning a simplex, the balls of gasket
    # blocks 4-5 that hold two rationals are counterexamples
    from fracapprox import geometry

    monkeypatch.setattr(geometry, "_eliminate",
                        lambda rows: len(rows[0]) if len(rows) > 1 else len(rows))
    assert run(["--out", tmp_path / "out", "lemma-audit", "--ifs", "gasket",
                "--blocks", "4:5", "--trials", "300"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    csv = (tmp_path / "out" / "lemma_audit.csv").read_text().splitlines()
    bad = sum(int(line.split(",")[-1]) for line in csv if line[:1].isdigit())
    assert bad > 0
    assert err == [f"FAILURE: {bad} simplex counterexamples found; the volume "
                   "obstruction failed"]


def test_dim_report_refuses_a_tau_before_sampling(tmp_path, capsys, monkeypatch):
    # tau = 3 is fine; psi(r) = r^-40 underflows to 0 on its domain
    from fracapprox import analysis

    def no_samples(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(analysis, "sample_measure", no_samples)
    assert run(["--out", tmp_path / "out", "dim-report", "--ifs", "cantor",
                "--taus", "3,40"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: config field 'taus': tau=40.0: psi must be positive and "
                   "finite on its domain"]
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("argv, files", [
    (["certify", "--ifs", "cantor", "--trials", "100000000000"], {}),
    (["certify", "--ifs", "cantor", "--trials", "1000001"], {}),
    (["--config", "exp.json", "lemma-audit", "--ifs", "cantor"],
     {"exp.json": json.dumps({"trials": 2**70})}),
], ids=["certify-1e11", "certify-cap-plus-1", "lemma-audit-2^70-config"])
def test_trials_above_the_cap_is_one_error_line(tmp_path, capsys, monkeypatch, argv, files):
    # refused before any trial: the heavy work fails the test if it is reached
    from fracapprox import cli

    def no_trials(*args, **kwargs):
        raise AssertionError("trials were run")

    monkeypatch.setattr(cli, "certify_all", no_trials)
    monkeypatch.setattr(cli, "audit_hyperplane_lemma", no_trials)
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run(["--out", tmp_path / "out", *argv]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: config field 'trials' must be <= {cli._TRIALS_CAP}"]
    assert cli._TRIALS_CAP == 10**6
    assert not (tmp_path / "out").exists()


# the values each kind of flag draws, as argv text: ints at the edges of
# int64 and past it, floats that are not finite or are subnormal, ranges
# with huge ends, and psi specs of every symbolic family with missing,
# repeated or non-numeric keys
_INT_TEXT = st.sampled_from(["0", "-1", "1", "3", str(2**63), str(2**70)])
_FLOAT_TEXT = st.sampled_from(["nan", "inf", "-inf", "5e-324", "2.2250738585072014e-308",
                               "-0.0", "0.5", "2.5", "1e308"])
_BLOCK_END = st.sampled_from(["0", "1", "3", "-1", str(2**62), str(2**63), str(2**70),
                              "9" * 400])
_PSI_VALUE = st.sampled_from(["2.5", "3", "0", "-1", "nan", "inf", "5e-324", "1e400",
                              "abc", ""])


@st.composite
def _psi_text(draw):
    """A symbolic head with its own keys, one of them dropped or repeated
    or a foreign key added now and then, each key with a drawn value."""
    head = draw(st.sampled_from(sorted(_PSI_SPECS)))
    keys = list(_PSI_SPECS[head][1])
    change = draw(st.sampled_from(["none", "none", "missing", "repeated", "foreign"]))
    if change == "missing":
        keys.pop(draw(st.integers(0, len(keys) - 1)))
    elif change == "repeated":
        keys.append(draw(st.sampled_from(keys)))
    elif change == "foreign":
        keys.append("x")
    return f"{head}:" + ",".join(f"{k}={draw(_PSI_VALUE)}" for k in keys)


_FLAG_TEXT = {
    "ifs_path": st.sampled_from(["cantor", "gasket", "dust", "koch", "nosuch"]),
    "psi_spec": _psi_text(),
    "blocks": st.builds(lambda lo, hi: f"{lo}:{hi}", _BLOCK_END, _BLOCK_END),
    "taus": st.lists(_FLOAT_TEXT, max_size=3).map(",".join),
    "kind": st.sampled_from(["lebesgue", "measure_zero", "hausdorff", "bogus", ""]),
    int: _INT_TEXT,
    float: _FLOAT_TEXT,
}


@functools.cache
def _certificates() -> tuple:
    from fracapprox.diagnostics import certify_all
    from fracapprox.ifs import bundled_system

    cantor = bundled_system("cantor")
    return certify_all(cantor, cantor.delta, 3)


_STAND_INS = {
    # each driver a subcommand calls, with a result of the real shape; blocks
    # past the third of a range are never reached
    "certify_all": lambda *args, **kwargs: _certificates(),
    "layer_decay_experiment": lambda sys_, psi, a, blocks, *rest: LayerDecayResult(
        tuple((n, 0.25, 0.5) for n in itertools.islice(blocks, 3)), -1.0, -1.0, 10),
    "audit_hyperplane_lemma": lambda d, blocks, trials, seed: [
        LemmaAuditReport(d, n, trials, 1, 0) for n in itertools.islice(blocks, 3)],
    "dimension_report": lambda sys_, a, taus, **kwargs: [
        (tau, 0.5 if tau >= 2.0 else None, 0.25) for tau in taus],
    "classify_sum": lambda spec: SumVerdict("yes", "closed_form", "A < -1", 1.0,
                                            ((1, 0.5),), ((1, 0.5),)),
    "hs_upper_bound": lambda sys_, psi, s, blocks, seed: HsTail(
        s, tuple((n, 1, 1, 0.5) for n in itertools.islice(blocks, 3)),
        tuple((n, 0.5) for n in itertools.islice(blocks, 3)), (1,)),
    "_sharded_samples": lambda sys_, total, seed, jobs: np.zeros((min(total, 3), sys_.dim)),
}


@st.composite
def _command_lines(draw):
    """A subcommand and, for each of its _FLAGS, a value of its kind or
    now and then none (the flag left out)."""
    name = draw(st.sampled_from(sorted(cli_module.cli.commands)))
    argv = [name]
    for param in cli_module.cli.commands[name].params:
        flag = param.opts[0]
        field, kind, _, _ = cli_module._FLAGS[flag]
        values = _FLAG_TEXT[field] if field in _FLAG_TEXT else _FLAG_TEXT[kind]
        text = draw(st.one_of(st.none(), values))
        argv += [] if text is None else [flag, text]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_command_lines())
def test_generated_flag_values_exit_cleanly(tmp_path_factory, argv):
    """Any value of a flag's kind ends the run with exit 0, 1 or 2, and an
    exit 1 prints exactly one stderr line.  The drivers are stand-ins, so a
    value that passes validation costs nothing."""
    out = tmp_path_factory.mktemp("out")
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        for name, stand_in in _STAND_INS.items():
            mp.setattr(cli_module, name, stand_in)
        code = run(["--out", out, *argv])
    assert code in (0, 1, 2)
    if code == 1:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


def _collinear_system(tmp_path) -> Path:
    """A planar two-map system whose fixed points lie on a line: loading it
    warns (IrreducibilityWarning), and delta - (d - 1) < 0 leaves no default
    alpha."""
    maps = [{"ratio": 1 / 3, "rotation": [[1.0, 0.0], [0.0, 1.0]], "translation": t}
            for t in ([0.0, 0.0], [2 / 3, 0.0])]
    path = tmp_path / "red.json"
    path.write_text(json.dumps({"dimension": 2, "maps": maps, "open_set": {
        "type": "box", "min": [0.0, 0.0], "max": [1.0, 1.0]}}))
    return path


@pytest.mark.parametrize("argv, code, stderr", [
    (["certify", "--trials", "5"], 1,
     "error: config field 'alpha' is required: delta - (d-1) is not positive for this system"),
    (["sums", "--alpha", "0.5"], 0,
     "warning: map fixed points do not affinely span R^d; the sufficient irreducibility "
     "check failed"),
], ids=["refused", "succeeds"])
def test_warnings_print_as_one_line_and_only_if_the_run_is_not_refused(tmp_path, argv,
                                                                      code, stderr):
    # the system warns while it loads; a run in its own interpreter shows what
    # Python's own warning display would add (two lines per warning)
    red = _collinear_system(tmp_path)
    done = subprocess.run([sys.executable, "-m", "fracapprox", "--out", str(tmp_path / "out"),
                           argv[0], "--ifs", str(red), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    assert done.stderr.splitlines() == [stderr]


def _readme_shell() -> str:
    """The README's bash blocks, one after another."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return "\n".join(part.split("```", 1)[0] for part in readme.split("```bash\n")[1:])


def _bench_commands() -> list:
    """The argv of every command in bench/workloads.py, subcommand first."""
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [args for workload in workloads.WORKLOADS.values()
            for _label, args, _files in workload["commands"]]


def _documented_values() -> dict:
    """The --psi specs, --blocks ranges and --taus lists the README
    documents and the benchmark runs, by source: every --psi, --blocks and
    --taus value in the README's shell blocks, every backticked power,
    powerlog or gpl spec and the psi_spec of its config example, and the
    --psi, --blocks and --taus values of bench/workloads.py's commands."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    shell = _readme_shell()
    argv = [arg for args in _bench_commands() for arg in args]
    out = {source: {"--psi": [], "--blocks": [], "--taus": []}
           for source in ("README", "bench")}
    for flag, value in zip(argv, argv[1:]):
        if flag in out["bench"]:
            out["bench"][flag].append(value)
    for flag, value in re.findall(r"(--psi|--blocks|--taus)\s+(\S+)", shell):
        out["README"][flag].append(value)
    out["README"]["--psi"] += re.findall(r"`((?:power|powerlog|gpl):[^`]*)`", readme)
    out["README"]["--psi"] += re.findall(r'"psi_spec":\s*"([^"]+)"', readme)
    return out


def test_documented_psi_specs_and_block_ranges_parse():
    # a stricter grammar must not silently break a documented or benchmarked command
    for source, flags in _documented_values().items():
        assert flags["--psi"] and flags["--blocks"] and flags["--taus"], source
        for spec in flags["--psi"]:
            assert parse_psi_spec(spec).family in ("power", "power_log", "generic_power_log")
        for text in flags["--blocks"]:
            lo, hi = _parse_blocks(text)
            assert 0 <= lo <= hi
        for text in flags["--taus"]:
            assert _parse_taus(text)


def test_documented_commands_use_declared_flags():
    # every subcommand the README or the benchmark runs exists and declares
    # every flag given to it; the global flags come before it, each with a value
    from fracapprox.cli import cli

    commands = [line.split()[1:] for line in _readme_shell().splitlines()
                if line.startswith("fracapprox ")] + _bench_commands()
    global_flags = {opt for param in cli.params for opt in param.opts}
    seen = set()
    for argv in commands:
        i = 0
        while argv[i] in global_flags:
            i += 2
        name, rest = argv[i], argv[i + 1:]
        if name == "<subcommand>":
            continue
        assert name in cli.commands, argv
        declared = {opt for param in cli.commands[name].params for opt in param.opts}
        assert {a for a in rest if a.startswith("-")} <= declared, argv
        seen.add(name)
    assert seen == set(cli.commands)


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


def test_one_block_decay_has_no_slopes(tmp_path):
    # a least-squares line through a single block's point has no slope
    out = tmp_path / "run"
    assert run(["--out", out, "decay", "--ifs", "cantor", "--blocks", "3:3",
                "--samples", 1000]) == 0
    lines = (out / "decay_experiment.csv").read_text().splitlines()
    assert lines[-3:-1] == ["# empirical_slope=nan", "# predicted_slope=nan"]


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
    from fracapprox.ifs import BUNDLED_SYSTEMS

    sys_file = tmp_path / "dust.json"
    with open(sys_file, "w", encoding="utf-8") as fh:
        json.dump(BUNDLED_SYSTEMS["dust"], fh)
    out = tmp_path / "run"
    code = run(["--seed", 1, "--out", out, "sample", "--ifs", sys_file,
                "--samples", 100])
    assert code == 0
