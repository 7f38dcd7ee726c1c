import math
from dataclasses import fields

import pytest

from fracapprox import diagnostics
from fracapprox.cli import ExperimentConfig, _write_csv
from fracapprox.diagnostics import (
    CertificationError,
    _finish,
    _run_ordered,
    certificate_table,
    certify_all,
    certify_decay,
    certify_doubling,
    certify_regularity,
    decay_alpha_from_regularity,
    default_r0,
)
from fracapprox.geometry import Ball, Hyperplane, Slab
from fracapprox.ifs import measure_of_ball, measure_of_slab_in_ball, sample_measure

ALPHA_CANTOR = math.log(2.0) / math.log(3.0)


# ---------------------------------------------------------------------------
# doubling
# ---------------------------------------------------------------------------


def test_doubling_certificate_fits_and_revalidates(cantor):
    cert = certify_doubling(cantor, 500, seed=1)
    assert cert.D >= 1.0 and math.isfinite(cert.D)
    assert cert.discarded <= 0.2 * 500
    assert all(hi <= cert.D for *_, hi in cert.samples)
    assert all(r < cert.r0 for _, r, _, _ in cert.samples)
    assert cert.validate(cantor, 500, seed=2) == 0


def test_doubling_saturated_when_balls_swallow_attractor(cantor):
    # radii in [2 diam, 200 diam): every ball and its double hold all mass
    cert = certify_doubling(cantor, 5, r0=200.0 * cantor.diameter, seed=3)
    assert cert.D == pytest.approx(1.0, abs=1e-6)


def test_doubling_single_trial(cantor):
    cert = certify_doubling(cantor, 1, r0=200.0 * cantor.diameter, seed=4)
    assert cert.D >= 1.0 - 1e-9


def test_doubling_validation_errors(cantor):
    with pytest.raises(ValueError):
        certify_doubling(cantor, 0)
    with pytest.raises(ValueError):
        certify_doubling(cantor, 10, r0=-1.0)
    with pytest.raises(ValueError, match="r0"):
        certify_doubling(cantor, 3, r0=math.inf)


def test_revalidation_failure_rate(cantor):
    # constants fitted on seed s hold on seed s+1; over 20 repetitions at most
    # one repetition may see any violation
    failures = 0
    for rep in range(20):
        cert = certify_doubling(cantor, 500, seed=100 + rep)
        if cert.validate(cantor, 500, seed=101 + rep) > 0:
            failures += 1
    assert failures <= 1


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------


def test_decay_certificate_fits_and_revalidates(cantor):
    cert = certify_decay(cantor, ALPHA_CANTOR, 500, seed=1)
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
    m_slab = measure_of_slab_in_ball(cantor, ball, slab, 1e-6)
    assert m_slab.hi <= 1e-6 + 1e-9


def test_decay_max_epsilon_ratio_finite(cantor):
    ball = Ball([1 / 3], 0.2)
    eps = ball.radius / 4.0
    slab = Slab(Hyperplane([1.0], 1 / 3), eps)
    m_slab = measure_of_slab_in_ball(cantor, ball, slab, 1e-5)
    m_ball = measure_of_ball(cantor, ball, 1e-5)
    ratio = m_slab.hi / ((eps / ball.radius) ** ALPHA_CANTOR * m_ball.lo)
    assert math.isfinite(ratio) and ratio > 0


def test_decay_epsilon_monotonicity(cantor):
    ball = Ball([0.25], 0.2)
    plane = Hyperplane([1.0], 0.25)
    tol = 1e-5
    prev = None
    for eps in (1e-4, 1e-3, 1e-2, 5e-2):
        iv = measure_of_slab_in_ball(cantor, ball, Slab(plane, eps), tol)
        if prev is not None:
            assert prev.lo <= iv.lo + tol
            assert prev.hi <= iv.hi + tol
        prev = iv


def test_decay_requires_positive_alpha(cantor):
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha"):
            certify_decay(cantor, alpha, 10)


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def test_regularity_certificate_envelope(cantor):
    cert = certify_regularity(cantor, 500, r0=0.1, seed=1)
    assert 0.0 < cert.a <= cert.b < math.inf
    assert math.log(cert.b / cert.a) < math.log(10.0)
    assert cert.validate(cantor, 500, seed=2) == 0


def test_regularity_cylinder_radius_ratio_inside_envelope(cantor):
    cert = certify_regularity(cantor, 500, r0=0.1, seed=5)
    x = sample_measure(cantor, 1, seed=9)[0]
    r = 3.0**-8
    m = measure_of_ball(cantor, Ball(x, r), 1e-9 * 2)
    ratio_lo = m.lo / r**cantor.delta
    ratio_hi = m.hi / r**cantor.delta
    assert ratio_hi >= cert.a * 0.999
    assert ratio_lo <= cert.b * 1.001


def test_regularity_gasket_exists(gasket):
    cert = certify_regularity(gasket, 120, seed=1)
    assert 0.0 < cert.a <= cert.b < math.inf


def test_gasket_regularity_implies_decay(gasket):
    # delta > d-1 so the implied decay exponent is positive and certifiable
    alpha = decay_alpha_from_regularity(gasket.delta, 2)
    assert alpha == pytest.approx(math.log(3.0) / math.log(2.0) - 1.0)
    cert = certify_decay(gasket, alpha, 120, seed=1)
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
    serial = certify_doubling(cantor, 60, seed=7, jobs=1)
    parallel = certify_doubling(cantor, 60, seed=7, jobs=3)
    assert serial.D == parallel.D
    assert serial.samples == parallel.samples


def test_default_r0(cantor):
    assert default_r0(cantor) == pytest.approx(cantor.diameter / 10.0)


def test_negative_seed_rejected(cantor):
    cert = certify_doubling(cantor, 3, seed=0)
    calls = (
        lambda: certify_doubling(cantor, 3, seed=-5),
        lambda: certify_decay(cantor, ALPHA_CANTOR, 3, seed=-5),
        lambda: certify_regularity(cantor, 3, seed=-1),
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

    monkeypatch.setattr(diagnostics, "ProcessPoolExecutor", FakePool)
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


# ---------------------------------------------------------------------------
# one trial pass for all three certificates
# ---------------------------------------------------------------------------


def _separate(sys_, alpha, trials, **kw):
    return (certify_doubling(sys_, trials, **kw),
            certify_decay(sys_, alpha, trials, **kw),
            certify_regularity(sys_, trials, **kw))


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


def test_certify_all_ball_masses_per_trial(monkeypatch, gasket):
    # 3 ball masses per kept trial (r, 2r, eps) and 1 per discarded trial
    calls = []
    real = diagnostics.measure_of_ball

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "measure_of_ball", counting)
    alpha = decay_alpha_from_regularity(gasket.delta, 2)
    dbl, dec, reg = certify_all(gasket, alpha, 20, r0=1e-5 * gasket.diameter, seed=1)
    assert dbl.discarded > 0
    assert len(dbl.samples) == len(dec.samples) == len(reg.samples) == 20 - dbl.discarded
    assert len(calls) == 3 * len(dbl.samples) + dbl.discarded


def test_certify_all_errors_match_separate_calls(monkeypatch, gasket):
    alpha = decay_alpha_from_regularity(gasket.delta, 2)

    def messages(trials, **kw):
        out = []
        for call in (lambda: certify_all(gasket, alpha, trials, **kw),
                     lambda: certify_doubling(gasket, trials, **kw),
                     lambda: certify_decay(gasket, alpha, trials, **kw),
                     lambda: certify_regularity(gasket, trials, **kw)):
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
        certify_decay(gasket, alpha, 10, seed=1)
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
    cert = certify_doubling(cantor, 20, seed=1)
    lines = _export(cert, tmp_path / "doubling.csv")
    assert lines[0] == "center_0,radius,epsilon,ratio_lo,ratio_hi"
    assert len(lines) == 1 + len(cert.samples) + 1
    assert lines[-1].startswith("# D=") and "r0=" in lines[-1]
    row = lines[1].split(",")
    assert row[2] == ""  # epsilon blank for doubling
    float(row[0]), float(row[1]), float(row[3]), float(row[4])


def test_export_decay_csv_has_epsilon(tmp_path, cantor):
    cert = certify_decay(cantor, ALPHA_CANTOR, 20, seed=1)
    lines = _export(cert, tmp_path / "decay.csv")
    row = lines[1].split(",")
    assert float(row[2]) > 0.0
    assert "small_ball_C=" in lines[-1]


def test_export_regularity_csv_constants(tmp_path, cantor):
    cert = certify_regularity(cantor, 20, seed=1)
    tail = _export(cert, tmp_path / "reg.csv")[-1]
    assert tail.startswith("# a=") and "b=" in tail and "delta=" in tail

