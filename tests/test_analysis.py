import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from fracapprox import analysis
from fracapprox.analysis import (
    SumSpec,
    _cdn_centres,
    _cylinder_net,
    _dn_centres,
    audit_hyperplane_lemma,
    box_dimension,
    build_dn_cover,
    classify_sum,
    condensed_term_log,
    dimension_bound,
    hs_upper_bound,
    layer_decay_experiment,
    predict_measure_zero,
    sum_term_log,
)
from fracapprox.approx import PsiFunction, lower_order
from fracapprox.geometry import Ball, DyadicScale
from fracapprox.ifs import sample_measure

import cover_oracle
import psi_oracle
from cover_oracle import greedy_cover as reference_greedy_cover
from cover_oracle import reference_audit_hyperplane_lemma, reference_hs_upper_bound

ALPHA_CANTOR = math.log(2.0) / math.log(3.0)


# ---------------------------------------------------------------------------
# sum classification
# ---------------------------------------------------------------------------


def test_sum_spec_validation():
    psi = PsiFunction.power(2.5)
    with pytest.raises(ValueError):
        SumSpec("hausdorff", psi, 1, alpha=0.5, delta=0.6, s=0.7)  # s > delta
    with pytest.raises(ValueError, match="'s'"):
        SumSpec("hausdorff", psi, 1, alpha=0.5, delta=0.6, s=-0.1)  # s < 0
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


def _exactly(value) -> str:
    """A float or an array of them as bits, so -0.0 and NaN compare too."""
    return np.asarray(value, dtype=float).tobytes().hex()


@st.composite
def _symbolic_sums(draw):
    """A symbolic psi with every sum kind over it, its tau and beta often on
    the values where the summand exponents hit A = -1 or B = -1 exactly."""
    family = draw(st.sampled_from(["power", "power_log", "generic_power_log"]))
    d = draw(st.integers(1, 3))
    tau = draw(st.sampled_from([(d + 1) / d, 1.5, 2.0, 3.0]) | st.floats(0.25, 6.0))
    beta = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 4.0))
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.1, 3.0))
    delta = draw(st.floats(0.1, float(d)))
    s = draw(st.sampled_from([0.0, delta]) | st.floats(0.0, delta))
    psi = PsiFunction(family=family, d=d, tau=tau, beta=beta)  # unused tau or beta dropped
    specs = [SumSpec("lebesgue", psi, d), SumSpec("measure_zero", psi, d, alpha=alpha),
             SumSpec("hausdorff", psi, d, alpha=alpha, delta=delta, s=s)]
    rs = draw(st.lists(st.floats(1e-3, 1e12) | st.sampled_from([1.0, 2.0, 2.0**60]),
                       min_size=1, max_size=6))
    return psi, specs, np.array(rs)


@settings(max_examples=300)
@given(_symbolic_sums())
def test_symbolic_psi_rules_match_family_dispatch_oracle(case):
    # one stored (tau, beta) pair gives the bits of the per-family branches
    psi, specs, r = case
    assert _exactly(psi(r)) == _exactly(psi_oracle.psi_value(psi, r))
    assert lower_order(psi) == psi_oracle.lower_order(psi)
    above = r[r > 1.0]  # the sums' domain, where the log families are finite
    for spec in specs:
        assert _exactly(sum_term_log(spec, above)) == _exactly(
            psi_oracle.sum_term_log(spec, above))
        got = classify_sum(spec)
        assert (got.converges, got.margin, got.criterion) == psi_oracle.closed_form_verdict(spec)


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
    # the net budget alone refuses every block from 14 on, deep ones included
    for n, depth in ((14, 22), (60, 80)):
        with pytest.raises(ValueError) as refused:
            build_dn_cover(cantor, n)
        assert str(refused.value) == (f"block {n} refused: its cylinder net of 2^{depth} "
                                      "candidates exceeds the budget of 4000000")


def test_cdn_cover_empty_when_slab_misses(cantor):
    # D_n = B(0.1, r_3) against the slab |x - 0.9| <= 1e-6
    pool = sample_measure(cantor, 10_000, seed=0)
    rows, ball = _cdn_centres(pool, np.array([[0.1]]), 3.0 * DyadicScale(3, 1).r_n,
                              np.array([[1.0]]), np.array([0.9]), 1e-6,
                              PsiFunction.power(3.0)(2.0**3))
    assert rows.shape == (0, 1) and ball.shape == (0,)


def test_cdn_cover_covers_its_samples(cantor):
    psi = PsiFunction.power(3.0)
    n = 4
    r_n = DyadicScale(n, 1).r_n
    centres = _dn_centres(cantor, n)[:40]
    pool = sample_measure(cantor, 20_000, seed=6)
    eps = psi(2.0**n)
    # each D_n with the slab |x - c| <= eps through its centre c
    chosen, ball = _cdn_centres(pool, centres, 3.0 * r_n, np.ones((40, 1)),
                                centres[:, 0], eps, eps)
    for k in np.unique(ball):
        c = centres[k, 0]
        pts = pool[(np.abs(pool[:, 0] - c) <= 3.0 * r_n) & (np.abs(pool[:, 0] - c) <= eps)]
        dist = np.abs(pts[:, 0][:, None] - chosen[ball == k, 0][None, :])
        assert np.all(dist.min(axis=1) <= 3 * eps * (1 + 1e-9))
    assert len(np.unique(ball)) >= 3


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


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("tau", [3.0, 8.0])
def test_hs_upper_bound_d1_matches_full_scan(cantor, tau, seed):
    # tau 8: psi(2^n) << r_n from block 2 on.  In d = 1 the slab is an
    # interval of length 2 psi, so it holds one 2 psi-separated centre at most
    psi = PsiFunction.power(tau)
    got = hs_upper_bound(cantor, psi, cantor.delta, 1, 6, seed=seed)
    want = reference_hs_upper_bound(cantor, psi, cantor.delta, 1, 6, seed=seed)
    assert got.rows == want.rows
    assert got.tails == want.tails
    assert got.c_max == want.c_max
    assert max(got.c_max) == 1


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name, tau, blocks", [
    ("cantor", 3.0, (1, 6)), ("cantor", 8.0, (1, 6)), ("dust", 3.0, (1, 3)),
    ("gasket", 3.0, (1, 2)), ("koch", 6.0, (1, 2))])
def test_hs_upper_bound_matches_per_ball_loop(name, tau, blocks, seed, request):
    # the loop makes one witness call, one pool window and one greedy pass
    # per block ball; koch at tau 6 chooses up to 13 balls per D_n
    sys_ = request.getfixturevalue(name)
    psi = PsiFunction.power(tau, d=sys_.dim)
    got = hs_upper_bound(sys_, psi, sys_.delta, *blocks, seed=seed)
    want = cover_oracle.loop_hs_upper_bound(sys_, psi, sys_.delta, *blocks, seed=seed)
    assert got == want
    assert [[type(v) for v in row] for row in got.rows] == \
        [[type(v) for v in row] for row in want.rows]


@pytest.mark.parametrize("budget", [1, 700])
@pytest.mark.parametrize("name", ["cantor", "koch"])
def test_hs_upper_bound_window_steps_are_seamless(name, budget, request):
    # a step gathers whole windows up to the row budget, or one window alone
    sys_ = request.getfixturevalue(name)
    psi = PsiFunction.power(6.0, d=sys_.dim)
    want = hs_upper_bound(sys_, psi, sys_.delta, 1, 3, seed=1)
    with mock.patch.object(analysis, "_WINDOW_ROWS", budget):
        assert hs_upper_bound(sys_, psi, sys_.delta, 1, 3, seed=1) == want


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
    # the first 20 D_n, each with a random slab of half-width r_n through its
    # centre, all in one call
    centres = np.array([b.center for b in dn_balls[:20]])
    normals = rng.normal(size=(20, d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.array([float(u @ c) for u, c in zip(normals, centres)])
    chosen, ball = _cdn_centres(pool, centres, 3.0 * r_n, normals, offsets, r_n, r)
    sizes = []
    for k, (c, normal, offset) in enumerate(zip(centres, normals, offsets)):
        sel = pool[(np.linalg.norm(pool - c, axis=1) <= 3.0 * r_n)
                   & (np.abs(pool @ normal - offset) <= r_n)]
        ref = reference_greedy_cover([Ball(p, r) for p in sel])[0]
        assert [tuple(p) for p in chosen[ball == k]] == [tuple(b.center) for b in ref]
        sizes.append(len(ref))
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


def _audit_with_witness_calls(module, audit, *args):
    """The audit's report, and the (ball centre, points) of every ball whose
    witness it asks for: one per hyperplane_witness call of the oracle, one
    per ball of each _witness_block call of the package."""
    calls = []

    def numbers(pts):
        return [(p.numerators, p.denominator) for p in pts]

    if module is analysis:
        name, block = "_witness_block", module._witness_block

        def record(nums, qs, owner, centres, scale):
            calls.extend((c.tobytes(), list(zip(map(tuple, nums[owner == k].tolist()),
                                                qs[owner == k].tolist())))
                         for k, c in enumerate(centres))
            return block(nums, qs, owner, centres, scale)
    else:
        name, witness = "hyperplane_witness", module.hyperplane_witness

        def record(pts, ball, scale):
            calls.append((ball.center.tobytes(), numbers(pts)))
            return witness(pts, ball, scale)

    with mock.patch.object(module, name, record):
        return audit(*args), calls


@pytest.mark.parametrize("block", [1, 3, analysis._AUDIT_BLOCK])
@pytest.mark.parametrize("d, n, trials", [(1, 5, 40), (1, 12, 7), (2, 3, 25),
                                          (2, 0, 10), (3, 1, 60)])
def test_lemma_audit_trial_blocks_match_per_trial_oracle(d, n, trials, block):
    want = _audit_with_witness_calls(cover_oracle, reference_audit_hyperplane_lemma,
                                     d, n, trials, 2)
    with mock.patch.object(analysis, "_AUDIT_BLOCK", block):
        got = _audit_with_witness_calls(analysis, audit_hyperplane_lemma,
                                        d, n, trials, 2)
    assert got == want


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
