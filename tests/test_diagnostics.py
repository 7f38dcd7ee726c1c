import concurrent.futures
import math
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import trial_oracle
from fracapprox import diagnostics, ifs
from fracapprox.cli import ExperimentConfig, _write_csv
from fracapprox.diagnostics import (
    CertificationError,
    DecayCertificate,
    DoublingCertificate,
    RegularityCertificate,
    _certify,
    _finish,
    _run_ordered,
    certificate_table,
    certify_all,
    decay_alpha_from_regularity,
    default_r0,
)
from fracapprox.geometry import Ball, Hyperplane, Slab
from fracapprox.ifs import measure_many, sample_measure

ALPHA_CANTOR = math.log(2.0) / math.log(3.0)


# ---------------------------------------------------------------------------
# doubling
# ---------------------------------------------------------------------------


def test_doubling_certificate_fits_and_revalidates(cantor):
    cert = _certify((DoublingCertificate,), cantor, 500, None, 1, 1)[0]
    assert cert.D >= 1.0 and math.isfinite(cert.D)
    assert cert.discarded <= 0.2 * 500
    assert all(hi <= cert.D for *_, hi in cert.samples)
    assert all(r < cert.r0 for _, r, _, _ in cert.samples)
    assert cert.validate(cantor, 500, seed=2) == 0


def test_doubling_saturated_when_balls_swallow_attractor(cantor):
    # radii in [2 diam, 200 diam): every ball and its double hold all mass
    cert = _certify((DoublingCertificate,), cantor, 5, 200.0 * cantor.diameter, 3, 1)[0]
    assert cert.D == pytest.approx(1.0, abs=1e-6)


def test_doubling_single_trial(cantor):
    cert = _certify((DoublingCertificate,), cantor, 1, 200.0 * cantor.diameter, 4, 1)[0]
    assert cert.D >= 1.0 - 1e-9


def test_doubling_validation_errors(cantor):
    with pytest.raises(ValueError):
        _certify((DoublingCertificate,), cantor, 0, None, 0, 1)[0]
    with pytest.raises(ValueError):
        _certify((DoublingCertificate,), cantor, 10, -1.0, 0, 1)[0]
    with pytest.raises(ValueError, match="r0"):
        _certify((DoublingCertificate,), cantor, 3, math.inf, 0, 1)[0]


def test_revalidation_failure_rate(cantor):
    # constants fitted on seed s hold on seed s+1; over 20 repetitions at most
    # one repetition may see any violation
    failures = 0
    for rep in range(20):
        cert = _certify((DoublingCertificate,), cantor, 500, None, 100 + rep, 1)[0]
        if cert.validate(cantor, 500, seed=101 + rep) > 0:
            failures += 1
    assert failures <= 1


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------


def test_decay_certificate_fits_and_revalidates(cantor):
    cert = _certify((DecayCertificate,), cantor, 500, None, 1, 1, ALPHA_CANTOR)[0]
    assert math.isfinite(cert.C) and cert.C > 0
    assert cert.small_ball_C == pytest.approx(cert.C * 2.0**ALPHA_CANTOR)
    assert all(hi <= cert.C for *_, hi in cert.samples)
    # inequality with the corollary constant holds on every sample
    assert all(x <= cert.small_ball_C * (1 + 1e-12)
               for x in cert.small_ball_ratios)
    assert cert.validate(cantor, 500, seed=2) == 0


def test_decay_slab_through_gap_has_tiny_ratio(cantor):
    ball = Ball([0.5], 0.3)
    slab = Slab(Hyperplane([1.0], 0.5), 1e-3)
    m_slab = measure_many(cantor, [(ball, slab)], [1e-6])[0]
    assert m_slab.hi <= 1e-6 + 1e-9


def test_decay_max_epsilon_ratio_finite(cantor):
    ball = Ball([1 / 3], 0.2)
    eps = ball.radius / 4.0
    slab = Slab(Hyperplane([1.0], 1 / 3), eps)
    m_slab = measure_many(cantor, [(ball, slab)], [1e-5])[0]
    m_ball = measure_many(cantor, [ball], [1e-5])[0]
    ratio = m_slab.hi / ((eps / ball.radius) ** ALPHA_CANTOR * m_ball.lo)
    assert math.isfinite(ratio) and ratio > 0


def test_decay_epsilon_monotonicity(cantor):
    ball = Ball([0.25], 0.2)
    plane = Hyperplane([1.0], 0.25)
    tol = 1e-5
    prev = None
    for eps in (1e-4, 1e-3, 1e-2, 5e-2):
        iv = measure_many(cantor, [(ball, Slab(plane, eps))], [tol])[0]
        if prev is not None:
            assert prev.lo <= iv.lo + tol
            assert prev.hi <= iv.hi + tol
        prev = iv


def test_decay_requires_positive_alpha(cantor):
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha"):
            _certify((DecayCertificate,), cantor, 10, None, 0, 1, alpha)[0]


def test_decay_refuses_alpha_above_delta(monkeypatch, cantor, gasket, dust):
    # no alpha-decaying delta-regular measure has alpha > delta; the refusal
    # comes before any trial is drawn
    def no_trials(*args):
        raise AssertionError("a trial block was run")

    monkeypatch.setattr(diagnostics, "_trial_block", no_trials)
    for sys_, alpha in ((cantor, 100.0), (cantor, 0.64), (gasket, 1.6)):
        with pytest.raises(ValueError, match="'alpha' must be in"):
            _certify((DecayCertificate,), sys_, 20, None, 0, 1, alpha)[0]
        with pytest.raises(ValueError, match="'alpha' must be in"):
            certify_all(sys_, alpha, 20)
    monkeypatch.undo()
    # delta is a bisection root: the exact dimensions log 2/log 3 and 1 sit
    # a few ulps above cantor's and dust's delta and are still accepted
    assert ALPHA_CANTOR > cantor.delta and 1.0 > dust.delta
    (cert,) = _certify((DecayCertificate,), cantor, 3, None, 0, 1, ALPHA_CANTOR)
    assert cert.alpha == ALPHA_CANTOR
    assert _certify((DecayCertificate,), dust, 3, None, 0, 1, 1.0)[0].alpha == 1.0


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def test_regularity_certificate_envelope(cantor):
    cert = _certify((RegularityCertificate,), cantor, 500, 0.1, 1, 1)[0]
    assert 0.0 < cert.a <= cert.b < math.inf
    assert math.log(cert.b / cert.a) < math.log(10.0)
    assert cert.validate(cantor, 500, seed=2) == 0


def test_regularity_cylinder_radius_ratio_inside_envelope(cantor):
    cert = _certify((RegularityCertificate,), cantor, 500, 0.1, 5, 1)[0]
    x = sample_measure(cantor, 1, seed=9)[0]
    r = 3.0**-8
    m = measure_many(cantor, [Ball(x, r)], [1e-9 * 2])[0]
    ratio_lo = m.lo / r**cantor.delta
    ratio_hi = m.hi / r**cantor.delta
    assert ratio_hi >= cert.a * 0.999
    assert ratio_lo <= cert.b * 1.001


def test_regularity_gasket_exists(gasket):
    cert = _certify((RegularityCertificate,), gasket, 120, None, 1, 1)[0]
    assert 0.0 < cert.a <= cert.b < math.inf


def test_gasket_regularity_implies_decay(gasket):
    # delta > d-1 so the implied decay exponent is positive and certifiable
    alpha = decay_alpha_from_regularity(gasket.delta, 2)
    assert alpha == pytest.approx(math.log(3.0) / math.log(2.0) - 1.0)
    cert = _certify((DecayCertificate,), gasket, 120, None, 1, 1, alpha)[0]
    assert math.isfinite(cert.C)
    assert cert.validate(gasket, 120, seed=2) == 0


def test_decay_alpha_from_regularity_values():
    assert decay_alpha_from_regularity(math.log(3.0) / math.log(2.0), 2) == (
        pytest.approx(0.5849625007211562)
    )
    assert decay_alpha_from_regularity(2.0, 2) == 1.0
    assert decay_alpha_from_regularity(0.5, 2) is None
    with pytest.raises(ValueError):
        decay_alpha_from_regularity(1.0, 0)


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------


def test_discard_threshold_enforced():
    results = [None] * 15 + [(None, 1.0, 1.0, 1.0)] * 85
    assert len(_finish(list(results), 100)) == 85
    results = [None] * 21 + [(None, 1.0, 1.0, 1.0)] * 79
    with pytest.raises(CertificationError):
        _finish(list(results), 100)


def test_parallel_trials_match_serial(cantor):
    serial = _certify((DoublingCertificate,), cantor, 60, None, 7, 1)[0]
    parallel = _certify((DoublingCertificate,), cantor, 60, None, 7, 3)[0]
    assert serial.D == parallel.D
    assert serial.samples == parallel.samples


@pytest.mark.parametrize("name", ["cantor", "gasket", "koch", "dust"])
def test_certificates_revalidate_on_their_own_trials(request, name):
    # the fitted constants bound every row they were fitted on, for every kind
    sys_ = request.getfixturevalue(name)
    alpha = 0.5 if name == "dust" else decay_alpha_from_regularity(sys_.delta, sys_.dim)
    for cert in certify_all(sys_, alpha, 30, seed=3):
        assert cert.validate(sys_, cert.trials, seed=cert.seed) == 0, type(cert).__name__


def test_default_r0(cantor):
    assert default_r0(cantor) == pytest.approx(cantor.diameter / 10.0)


def test_negative_seed_rejected(cantor):
    cert = _certify((DoublingCertificate,), cantor, 3, None, 0, 1)[0]
    calls = (
        lambda: _certify((DoublingCertificate,), cantor, 3, None, -5, 1)[0],
        lambda: _certify((DecayCertificate,), cantor, 3, None, -5, 1, ALPHA_CANTOR)[0],
        lambda: _certify((RegularityCertificate,), cantor, 3, None, -1, 1)[0],
        lambda: certify_all(cantor, ALPHA_CANTOR, 3, seed=-5),
        lambda: cert.validate(cantor, 3, seed=-1),
    )
    for call in calls:
        with pytest.raises(ValueError, match="seed"):
            call()


def test_pool_size_is_capped(monkeypatch):
    # at most one worker per payload and per CPU; never starts a real pool
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(diagnostics.os, "cpu_count", lambda: 4)
    assert _run_ordered(abs, [-1, 2, -3], 64) == [1, 2, 3]
    assert _run_ordered(abs, list(range(-9, 0)), 64) == list(range(9, 0, -1))
    assert _run_ordered(abs, list(range(-9, 0)), 2) == list(range(9, 0, -1))
    assert sizes == [3, 4, 2]
    # a pool of one would gain nothing: those run serially
    assert _run_ordered(abs, [-7], 64) == [7]
    monkeypatch.setattr(diagnostics.os, "cpu_count", lambda: None)
    assert _run_ordered(abs, [-1, -2], 8) == [1, 2]
    assert sizes == [3, 4, 2]


def test_cli_import_leaves_the_pool_unloaded():
    # the pool's modules load only when _run_ordered starts a pool
    code = ("import sys, fracapprox.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# one trial pass for all three certificates
# ---------------------------------------------------------------------------


def _separate(sys_, alpha, trials, r0, seed):
    return (_certify((DoublingCertificate,), sys_, trials, r0, seed, 1)[0],
            _certify((DecayCertificate,), sys_, trials, r0, seed, 1, alpha)[0],
            _certify((RegularityCertificate,), sys_, trials, r0, seed, 1)[0])


@pytest.mark.parametrize("name, trials, r0_diams, seed, jobs", [
    ("cantor", 40, None, 1, 1),
    ("gasket", 20, None, 2, 1),
    ("koch", 20, None, 1, 2),  # rotation frontier, over a process pool
    ("gasket", 20, 1e-5, 1, 1),  # tiny balls: some trials discarded
    ("koch", 20, 1e-6, 3, 2),
])
def test_certify_all_matches_separate_calls(request, name, trials, r0_diams, seed, jobs):
    sys_ = request.getfixturevalue(name)
    alpha = decay_alpha_from_regularity(sys_.delta, sys_.dim)
    r0 = None if r0_diams is None else r0_diams * sys_.diameter
    joint = certify_all(sys_, alpha, trials, r0=r0, seed=seed, jobs=jobs)
    separate = _separate(sys_, alpha, trials, r0=r0, seed=seed)
    for a, b in zip(joint, separate, strict=True):
        assert type(a) is type(b)
        for f in fields(a):
            assert getattr(a, f.name) == getattr(b, f.name), f.name
    assert (joint[0].discarded > 0) == (r0_diams is not None)


def _assert_same_certificates(got, want):
    for a, b in zip(got, want, strict=True):
        assert type(a) is type(b)
        for f in fields(a):
            assert getattr(a, f.name) == getattr(b, f.name), f.name


def _spy_frontiers(monkeypatch) -> tuple:
    """(frontiers, chunks), filled in as the mass oracle runs: after each
    expansion, (rows, whether the rows belong to one query alone), and each
    chunk's query count."""
    seen, chunks = [], []
    real_chunk = ifs._measure_chunk

    class Frontier(ifs._Frontier):
        def expand(self, mask):
            super().expand(mask)
            q = self.query
            seen.append((q.size, q.size > 0 and q[0] == q[-1]))

    def chunk(sys_, queries, tols):
        chunks.append(queries.radii.size)
        return real_chunk(sys_, queries, tols)

    monkeypatch.setattr(ifs, "_Frontier", Frontier)
    monkeypatch.setattr(ifs, "_measure_chunk", chunk)
    return seen, chunks


# a seam between trial blocks, or between frontier chunks: under a one-row
# budget every query that reaches an expansion beside another is left for a
# chunk of its own, and under 64 rows most chunks are cut part way
@pytest.mark.parametrize("module, attr, value", [
    pytest.param(diagnostics, "_TRIAL_BLOCK", 1, id="1"),
    pytest.param(diagnostics, "_TRIAL_BLOCK", 3, id="3"),
    pytest.param(ifs, "_FRONTIER_ROWS", 1, id="rows1"),
    pytest.param(ifs, "_FRONTIER_ROWS", 64, id="rows64"),
])
@pytest.mark.parametrize("name, trials, r0_diams, seed", [
    ("cantor", 20, None, 2),
    ("koch", 34, None, 2),
    ("gasket", 20, 1e-5, 1),  # discarded trials on both sides of the seams
])
def test_certify_all_trial_blocks_are_seamless(monkeypatch, request, name, trials,
                                               r0_diams, seed, module, attr, value):
    """The certificates do not move with the trial block or the frontier
    budget, and no frontier goes past the budget unless it holds one query
    alone."""
    sys_ = request.getfixturevalue(name)
    alpha = decay_alpha_from_regularity(sys_.delta, sys_.dim)
    r0 = None if r0_diams is None else r0_diams * sys_.diameter
    whole = certify_all(sys_, alpha, trials, r0=r0, seed=seed)
    assert (whole[0].discarded > 0) == (r0_diams is not None)
    monkeypatch.setattr(module, attr, value)
    frontiers, chunks = _spy_frontiers(monkeypatch)
    _assert_same_certificates(certify_all(sys_, alpha, trials, r0=r0, seed=seed), whole)
    assert frontiers
    assert all(rows <= ifs._FRONTIER_ROWS or alone for rows, alone in frontiers)
    if module is ifs:
        # one trial block, so two oracle calls; the budget cut some chunks
        assert len(chunks) > 2


@pytest.mark.parametrize("name, trials, r0_diams, seed", [
    ("cantor", 30, None, 0),
    ("gasket", 12, None, 3),
    ("gasket", 20, 1e-5, 1),  # discarded trials
    ("dust", 12, None, 1),
    ("koch", 10, None, 2),
])
def test_certify_all_matches_trial_oracle(monkeypatch, request, name, trials, r0_diams,
                                          seed):
    """Certificates from the array trial phase equal, field for field,
    those of the per-trial oracle: one rng draw for the centre and another
    for the radius, Ball and Slab queries, and one subdivision per mass."""
    sys_ = request.getfixturevalue(name)
    # dust's delta - (d - 1) is not positive, so its exponent is given
    alpha = decay_alpha_from_regularity(sys_.delta, sys_.dim) or 0.5
    r0 = None if r0_diams is None else r0_diams * sys_.diameter
    got = certify_all(sys_, alpha, trials, r0=r0, seed=seed)
    assert (got[0].discarded > 0) == (r0_diams is not None)
    monkeypatch.setattr(diagnostics, "_trial_block", trial_oracle._trial_block)
    _assert_same_certificates(got, certify_all(sys_, alpha, trials, r0=r0, seed=seed))


@pytest.mark.parametrize("trials", [7, 21])
def test_certify_all_jobs_with_uneven_blocks(koch, trials):
    # 7 and 21 trials do not split evenly over two workers
    alpha = decay_alpha_from_regularity(koch.delta, koch.dim)
    _assert_same_certificates(certify_all(koch, alpha, trials, seed=4, jobs=2),
                              certify_all(koch, alpha, trials, seed=4, jobs=1))


def test_certify_all_ball_masses_per_trial(monkeypatch, gasket):
    # 3 ball masses per kept trial (r, 2r, eps) and 1 per discarded trial,
    # counted as the queries without a slab in the arrays handed to the
    # mass oracle; one slab query per kept trial
    balls, slabs = [], []
    real = diagnostics.measure_many

    def counting(sys_, queries, tols):
        assert isinstance(queries, ifs._Queries)  # no Ball is built per trial
        on = (np.zeros(queries.radii.size, dtype=bool) if queries.slabs is None
              else queries.slabs[0])
        balls.append(int((~on).sum()))
        slabs.append(int(on.sum()))
        return real(sys_, queries, tols)

    monkeypatch.setattr(diagnostics, "measure_many", counting)
    alpha = decay_alpha_from_regularity(gasket.delta, 2)
    dbl, dec, reg = certify_all(gasket, alpha, 20, r0=1e-5 * gasket.diameter, seed=1)
    assert dbl.discarded > 0
    assert len(dbl.samples) == len(dec.samples) == len(reg.samples) == 20 - dbl.discarded
    assert sum(balls) == 3 * len(dbl.samples) + dbl.discarded
    assert sum(slabs) == len(dbl.samples)


def test_certify_all_errors_match_separate_calls(monkeypatch, gasket):
    alpha = decay_alpha_from_regularity(gasket.delta, 2)

    def messages(trials, r0, seed):
        out = []
        for call in (lambda: certify_all(gasket, alpha, trials, r0=r0, seed=seed),
                     lambda: _certify((DoublingCertificate,), gasket, trials, r0, seed, 1),
                     lambda: _certify((DecayCertificate,), gasket, trials, r0, seed, 1, alpha),
                     lambda: _certify((RegularityCertificate,), gasket, trials, r0, seed, 1)):
            with pytest.raises(CertificationError) as err:
                call()
            out.append(str(err.value))
        return out

    # too many discards: balls too small to bound their mass away from zero
    joint, *alone = messages(20, r0=3e-6 * gasket.diameter, seed=1)
    assert "trials discarded" in joint
    assert alone == [joint] * 3

    # a corollary violation: every small-ball ratio made infinite
    real = diagnostics._decay_row

    def violating(*args):
        return real(*args)[:5] + (math.inf,)

    monkeypatch.setattr(diagnostics, "_decay_row", violating)
    with pytest.raises(CertificationError) as joint:
        certify_all(gasket, alpha, 10, seed=1)
    with pytest.raises(CertificationError) as alone:
        _certify((DecayCertificate,), gasket, 10, None, 1, 1, alpha)[0]
    assert str(joint.value) == str(alone.value)
    assert str(joint.value).startswith("10 trials violate the concentric-ball corollary")


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _export(cert, path):
    """Write the certificate as the certify command does; return its lines
    after the three provenance comments."""
    cfg = ExperimentConfig(output_dir=str(path.parent))
    _write_csv(cfg, path.name, *certificate_table(cert))
    return path.read_text().strip().split("\n")[3:]


def test_export_doubling_csv(tmp_path, cantor):
    cert = _certify((DoublingCertificate,), cantor, 20, None, 1, 1)[0]
    lines = _export(cert, tmp_path / "doubling.csv")
    assert lines[0] == "center_0,radius,epsilon,ratio_lo,ratio_hi"
    assert len(lines) == 1 + len(cert.samples) + 1
    assert lines[-1].startswith("# D=") and "r0=" in lines[-1]
    row = lines[1].split(",")
    assert row[2] == ""  # epsilon blank for doubling
    float(row[0]), float(row[1]), float(row[3]), float(row[4])


def test_export_decay_csv_has_epsilon(tmp_path, cantor):
    cert = _certify((DecayCertificate,), cantor, 20, None, 1, 1, ALPHA_CANTOR)[0]
    lines = _export(cert, tmp_path / "decay.csv")
    row = lines[1].split(",")
    assert float(row[2]) > 0.0
    assert "small_ball_C=" in lines[-1]


def test_export_regularity_csv_constants(tmp_path, cantor):
    cert = _certify((RegularityCertificate,), cantor, 20, None, 1, 1)[0]
    tail = _export(cert, tmp_path / "reg.csv")[-1]
    assert tail.startswith("# a=") and "b=" in tail and "delta=" in tail

