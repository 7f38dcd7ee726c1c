import math

import numpy as np
import pytest

from fracapprox.analysis import (
    CoverCost,
    SumSpec,
    _cylinder_net,
    audit_hyperplane_lemma,
    box_dimension,
    build_cdn_cover,
    build_dn_cover,
    classify_sum,
    condensed_term_log,
    cover_cost,
    dimension_bound,
    hs_upper_bound,
    layer_decay_experiment,
    predict_measure_zero,
    sum_term_log,
)
from fracapprox.approx import PsiFunction
from fracapprox.geometry import Ball, DyadicScale, Hyperplane, Slab
from fracapprox.ifs import sample_measure

from cover_oracle import greedy_cover as reference_greedy_cover
from cover_oracle import reference_hs_upper_bound

ALPHA_CANTOR = math.log(2.0) / math.log(3.0)


# ---------------------------------------------------------------------------
# sum classification
# ---------------------------------------------------------------------------


def test_sum_spec_validation():
    psi = PsiFunction.power(2.5)
    with pytest.raises(ValueError):
        SumSpec("hausdorff", psi, 1, alpha=0.5, delta=0.6, s=0.7)  # s > delta
    with pytest.raises(ValueError):
        SumSpec("measure_zero", psi, 1)  # alpha missing
    with pytest.raises(ValueError):
        SumSpec("mystery", psi, 1)


def test_power_tau_above_dirichlet_converges():
    # the reduced summand is r^(-1 - alpha (tau - (d+1)/d))
    spec = SumSpec("measure_zero", PsiFunction.power(2.5), 1, alpha=ALPHA_CANTOR)
    v = classify_sum(spec)
    assert v.converges == "yes" and v.method == "closed_form"
    expected_exp = -1.0 - ALPHA_CANTOR * 0.5
    r = 37.0
    assert np.exp(sum_term_log(spec, r)) == pytest.approx(r**expected_exp, rel=1e-12)


def test_power_log_above_one_over_alpha_converges():
    # the reduced summand is r^-1 (log r)^(-alpha beta)
    beta = 1.5 / ALPHA_CANTOR
    spec = SumSpec("measure_zero", PsiFunction.power_log(beta, d=1), 1,
                   alpha=ALPHA_CANTOR)
    v = classify_sum(spec)
    assert v.converges == "yes"
    r = 53.0
    assert np.exp(sum_term_log(spec, r)) == pytest.approx(
        (1.0 / r) * math.log(r) ** (-ALPHA_CANTOR * beta), rel=1e-12
    )
    below = SumSpec("measure_zero", PsiFunction.power_log(0.5 / ALPHA_CANTOR, d=1),
                    1, alpha=ALPHA_CANTOR)
    assert classify_sum(below).converges == "no"


def test_dirichlet_exponent_is_harmonic():
    spec = SumSpec("measure_zero", PsiFunction.power(2.0), 1, alpha=ALPHA_CANTOR)
    assert classify_sum(spec).converges == "no"


def test_measure_zero_term_matches_lebesgue_term_for_d1_alpha1():
    psi = PsiFunction.power(1.7)
    t1 = SumSpec("measure_zero", psi, 1, alpha=1.0)
    leb = SumSpec("lebesgue", psi, 1)
    for r in (2.0, 10.0, 1234.5):
        assert np.exp(sum_term_log(t1, r)) == pytest.approx(r * psi(r), rel=1e-12)
        assert np.exp(sum_term_log(leb, r)) == pytest.approx(
            np.exp(sum_term_log(t1, r)), rel=1e-12
        )


def test_verdict_carries_condensed_evidence():
    spec = SumSpec("lebesgue", PsiFunction.power(3.0), 2)
    v = classify_sum(spec)
    assert len(v.condensed_terms) >= 30
    assert v.criterion
    ns = [n for n, _ in v.condensed_terms]
    logc = condensed_term_log(spec, np.array(ns, dtype=float))
    assert np.allclose([t for _, t in v.condensed_terms], np.exp(logc))


def _tabulate(psi, lo=2.0, hi=2.0**45, points=240):
    r = np.geomspace(lo, hi, points)
    return PsiFunction.from_table(list(zip(r, psi(r))), d=psi.d)


def test_condensation_matches_closed_form_on_symbolic_cases():
    cases = [
        SumSpec("measure_zero", PsiFunction.power(2.4), 1, alpha=ALPHA_CANTOR),
        SumSpec("measure_zero", PsiFunction.power(1.7), 1, alpha=ALPHA_CANTOR),
        SumSpec("hausdorff", PsiFunction.power(3.0), 1, alpha=ALPHA_CANTOR,
                delta=ALPHA_CANTOR, s=ALPHA_CANTOR),
        SumSpec("lebesgue", PsiFunction.power(2.5), 2),
        SumSpec("lebesgue", PsiFunction.power(1.2), 2),
    ]
    for spec in cases:
        closed = classify_sum(spec)
        assert closed.margin > 0.05
        tab = _tabulate(spec.psi)
        numeric = classify_sum(
            SumSpec(spec.kind, tab, spec.d, alpha=spec.alpha,
                    delta=spec.delta, s=spec.s)
        )
        assert numeric.method == "condensation_numeric"
        assert numeric.converges == closed.converges


def test_short_table_is_undetermined():
    r = np.geomspace(2.0, 50.0, 20)  # fewer than 8 dyadic blocks
    tab = PsiFunction.from_table(list(zip(r, r**-3.0)))
    v = classify_sum(SumSpec("measure_zero", tab, 1, alpha=0.5))
    assert v.converges == "undetermined"
    assert "dyadic blocks" in v.criterion


def test_predictions_are_trivalent():
    conv = SumSpec("measure_zero", PsiFunction.power(2.5), 1, alpha=ALPHA_CANTOR)
    bound = SumSpec("measure_zero", PsiFunction.power(2.0), 1, alpha=ALPHA_CANTOR)
    assert predict_measure_zero(conv) == "mu_null"
    assert predict_measure_zero(bound) == "no_conclusion"
    r = np.geomspace(2.0, 50.0, 20)
    tab = PsiFunction.from_table(list(zip(r, r**-3.0)))
    und = SumSpec("measure_zero", tab, 1, alpha=0.5)
    assert predict_measure_zero(und) == "no_conclusion"
    with pytest.raises(ValueError):
        predict_measure_zero(SumSpec("lebesgue", PsiFunction.power(2.5), 1))


# ---------------------------------------------------------------------------
# dimension bound
# ---------------------------------------------------------------------------


def test_dimension_bound_examples():
    d = 1
    delta = alpha = ALPHA_CANTOR
    assert dimension_bound(delta, alpha, d, 2.0) == pytest.approx(delta, abs=1e-15)
    assert dimension_bound(delta, alpha, d, 4.0) == pytest.approx(delta / 2, abs=1e-15)
    assert dimension_bound(delta, alpha, d, 3.0) == pytest.approx(2 * delta / 3,
                                                                  abs=1e-15)
    # large lambda tends to delta - alpha
    assert dimension_bound(delta, alpha, d, 1e12) == pytest.approx(
        delta - alpha, abs=1e-9
    )
    with pytest.raises(ValueError):
        dimension_bound(delta, alpha, d, 1.5)


def test_dimension_bound_decreasing_in_lambda():
    vals = [dimension_bound(1.5, 0.5, 2, lam) for lam in (1.5, 2.0, 3.0, 10.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# block covers
# ---------------------------------------------------------------------------


def test_dn_cover_block1_size_and_coverage(cantor):
    dn = build_dn_cover(cantor, 1)
    scale = DyadicScale(1, 1)
    assert len(dn) <= math.ceil(1.0 / (2.0 * scale.r_n))
    centers = np.array([b.center for b in dn])
    gaps = np.abs(centers[:, None, 0] - centers[None, :, 0])
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() > 2 * scale.r_n
    pts = sample_measure(cantor, 10_000, seed=2)
    dist = np.abs(pts[:, 0][:, None] - centers[None, :, 0])
    assert np.all(dist.min(axis=1) <= 3 * scale.r_n * (1 + 1e-9))


def test_dn_cover_cardinality_envelope(cantor):
    # #D_n 2^(-(d+1)(n+1) delta / d) stays within a small constant band
    vals = []
    for n in range(1, 7):
        dn = build_dn_cover(cantor, n)
        vals.append(len(dn) * 2.0 ** (-2 * (n + 1) * cantor.delta))
    assert max(vals) / min(vals) <= 10.0


def test_dn_cover_refuses_infeasible_block(cantor):
    with pytest.raises(ValueError, match="feasible"):
        build_dn_cover(cantor, 60)


def test_cdn_cover_empty_when_slab_misses(cantor):
    scale = DyadicScale(3, 1)
    dn = Ball([0.1], scale.r_n)
    far = Slab(Hyperplane([1.0], 0.9), 1e-6)
    assert build_cdn_cover(cantor, dn, far, PsiFunction.power(3.0), 3) == []


def test_cdn_cover_covers_its_samples(cantor):
    psi = PsiFunction.power(3.0)
    n = 4
    scale = DyadicScale(n, 1)
    dn_balls = build_dn_cover(cantor, n)
    pool = sample_measure(cantor, 20_000, seed=6)
    eps = psi(2.0**n)
    covered_any = 0
    for dn in dn_balls[:40]:
        slab = Slab(Hyperplane([1.0], float(dn.center[0])), eps)
        cover = build_cdn_cover(cantor, dn, slab, psi, n, pool=pool)
        if not cover:
            continue
        covered_any += 1
        three = dn.dilate(3.0)
        sel = (np.abs(pool[:, 0] - three.center[0]) <= three.radius) & (
            np.abs(pool[:, 0] - slab.plane.offset) <= slab.epsilon
        )
        pts = pool[sel]
        centers = np.array([b.center for b in cover])
        dist = np.abs(pts[:, 0][:, None] - centers[None, :, 0])
        assert np.all(dist.min(axis=1) <= 3 * eps * (1 + 1e-9))
    assert covered_any >= 3


def test_cover_cost_basics():
    c = cover_cost(0.0, [Ball([0.0], 0.5)])
    assert c.cost == 1.0
    costs = [cover_cost(s, [0.5, 0.25, 0.125]).cost for s in (0.0, 0.5, 1.0)]
    assert costs[0] >= costs[1] >= costs[2]
    with pytest.raises(ValueError):
        cover_cost(0.5, [0.5], rho=0.25)
    assert isinstance(c, CoverCost)


def test_hs_upper_bound_tails_decrease(cantor):
    psi = PsiFunction.power(3.0)
    tail = hs_upper_bound(cantor, psi, cantor.delta, 2, 5, seed=0)
    costs = [t for _, t in tail.tails]
    assert all(a > b for a, b in zip(costs, costs[1:]))
    assert costs[-1] < 0.5 * costs[0]
    for n, n_dn, n_c, cost in tail.rows:
        assert n_dn > 0 and n_c >= 0 and cost >= 0.0


@pytest.mark.parametrize("name", ["dust", "gasket", "koch"])
def test_hs_upper_bound_d2_matches_full_scan(name, request):
    sys_ = request.getfixturevalue(name)
    psi = PsiFunction.power(6.0, d=2)  # psi(2^n) < r_n: many balls per D_n
    got = hs_upper_bound(sys_, psi, sys_.delta, 1, 2, seed=3)
    want = reference_hs_upper_bound(sys_, psi, sys_.delta, 1, 2, seed=3)
    assert got.rows == want.rows
    assert got.tails == want.tails
    assert got.c_max == want.c_max
    assert max(got.c_max) > 1


@pytest.mark.parametrize("name", ["cantor", "dust", "koch"])
def test_block_cover_balls_match_full_scan(name, request):
    sys_ = request.getfixturevalue(name)
    n, d = 2, sys_.dim
    psi = PsiFunction.power(8.0, d=d)  # psi(2^n) < r_n: many balls per D_n
    r_n = DyadicScale(n, d).r_n
    dn_balls = build_dn_cover(sys_, n)
    want, _ = reference_greedy_cover([Ball(c, r_n) for c in _cylinder_net(sys_, r_n)])
    assert [tuple(b.center) for b in dn_balls] == [tuple(b.center) for b in want]
    pool = sample_measure(sys_, 5000, seed=4)
    r = psi(2.0**n)
    rng = np.random.default_rng(5)
    sizes = []
    for dn in dn_balls[:20]:
        normal = rng.normal(size=d)
        normal /= np.linalg.norm(normal)
        slab = Slab(Hyperplane(normal, float(normal @ dn.center)), r_n)
        got = build_cdn_cover(sys_, dn, slab, psi, n, pool=pool)
        three = dn.dilate(3.0)
        sel = pool[(np.linalg.norm(pool - three.center, axis=1) <= three.radius)
                   & (np.abs(pool @ normal - slab.plane.offset) <= slab.epsilon)]
        ref = reference_greedy_cover([Ball(p, r) for p in sel])[0]
        assert [tuple(b.center) for b in got] == [tuple(b.center) for b in ref]
        sizes.append(len(got))
    assert max(sizes) > 1


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------


def test_box_dimension_cantor_samples(cantor):
    pts = sample_measure(cantor, 100_000, seed=8)
    scales = [3.0**-k for k in range(2, 8)]
    est = box_dimension(pts, scales)
    assert abs(est.slope - ALPHA_CANTOR) <= 0.03


def test_box_dimension_plane_and_segment():
    rng = np.random.default_rng(12)
    square = rng.random((10_000, 2))
    est2 = box_dimension(square, [2.0**-k for k in range(2, 7)])
    assert abs(est2.slope - 2.0) <= 0.05
    t = rng.random(10_000)
    segment = np.column_stack([t, 0.25 + 0.5 * t])
    est1 = box_dimension(segment, [2.0**-k for k in range(2, 7)])
    assert abs(est1.slope - 1.0) <= 0.05


def test_box_dimension_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        box_dimension(rng.random((10, 1)), [0.1, 0.05, 0.02, 0.01])
    with pytest.raises(ValueError):
        box_dimension(rng.random((2000, 1)), [0.1, 0.05])


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


def test_lemma_audit_no_counterexamples():
    rep = audit_hyperplane_lemma(1, 2, 50, seed=4)
    assert rep.simplex_counterexamples == 0
    rep2 = audit_hyperplane_lemma(2, 2, 25, seed=4)
    assert rep2.simplex_counterexamples == 0
    assert rep2.max_rationals >= 0


def test_lemma_audit_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        audit_hyperplane_lemma(1, 2, 5, seed=-4)
    assert audit_hyperplane_lemma(1, 2, 5, seed=0).balls == 5


def test_layer_decay_rows_and_envelope_bound(cantor):
    psi = PsiFunction.power(2.5)
    res = layer_decay_experiment(cantor, psi, ALPHA_CANTOR, range(1, 7),
                                 30_000, seed=15)
    assert len(res.rows) == 6
    for n, emp, env in res.rows:
        assert env > 0.0
        assert emp <= 10.0 * env
    assert res.predicted_slope == pytest.approx(-ALPHA_CANTOR * 0.5, abs=1e-9)
