import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unittest import mock

from fracapprox import approx
from fracapprox.approx import (
    PsiFunction,
    _enumerate_windows,
    enumerate_rationals,
    is_psi_approximable,
    layer_hit_mask,
    lower_order,
    parse_psi_spec,
    smallness_onset,
)
from fracapprox.geometry import Box
from fracapprox.ifs import bundled_system, sample_measure
from cover_oracle import enumerate_rationals as reference_enumerate
from layer_oracle import ApproxLayer, layer_membership, reference_hit_mask


# ---------------------------------------------------------------------------
# psi functions
# ---------------------------------------------------------------------------


@example(psi=PsiFunction.power_log(3.0), rs=[2.0, 4.0, 16.0], i=0)
@settings(max_examples=200)
@given(psi=st.one_of(
           st.floats(0.5, 5.0).map(PsiFunction.power),
           st.floats(0.1, 4.0).map(PsiFunction.power_log),
           st.tuples(st.floats(1.0, 4.0), st.floats(0.0, 3.0)).map(
               lambda a: PsiFunction.generic_power_log(*a)),
           st.floats(1.0, 4.0).map(
               lambda tau: PsiFunction.from_table([(1.0, 1.0), (2.0**40, 2.0**(-40 * tau))]))),
       rs=st.lists(st.floats(1.0, 2.0**40), min_size=1, max_size=20),
       i=st.integers(0, 19))
def test_psi_scalar_has_the_bits_of_the_array(psi, rs, i):
    # a scalar, a one-element array and a longer array agree bit for bit
    r = rs[i % len(rs)]
    assert psi(r) == psi(np.array([r]))[0] == psi(np.array(rs))[i % len(rs)]


def test_power_family_basics():
    psi = PsiFunction.power(2.0)
    assert psi(2.0) == 0.25
    assert lower_order(psi) == 2.0


def test_power_log_is_inf_below_one():
    psi = PsiFunction.power_log(3.0, d=1)
    assert psi(1.0) == math.inf
    assert psi(0.5) == math.inf
    assert np.isfinite(psi(2.0))
    assert lower_order(psi) == 2.0  # (d+1)/d with the log factor vanishing


def test_generic_power_log_order():
    psi = PsiFunction.generic_power_log(2.5, 1.0, d=2)
    assert lower_order(psi) == 2.5


def test_table_validation():
    with pytest.raises(ValueError):
        PsiFunction.from_table([(1.0, 0.5), (2.0, 0.7)])  # increasing
    with pytest.raises(ValueError):
        PsiFunction.from_table([(2.0, 0.5), (1.0, 0.4)])  # r not ascending
    with pytest.raises(ValueError):
        PsiFunction.from_table([(1.0, 0.5), (2.0, -0.1)])  # nonpositive


def test_increasing_symbolic_family_rejected():
    with pytest.raises(ValueError):
        PsiFunction.generic_power_log(0.001, -5.0, d=1)


def test_table_lower_order_matches_slope():
    r = np.geomspace(10.0, 1e6, 40)
    psi = PsiFunction.from_table(list(zip(r, r**-3.0)))
    assert abs(lower_order(psi) - 3.0) <= 0.01


def test_table_lower_order_needs_ten_points():
    r = np.geomspace(10.0, 1e3, 5)
    psi = PsiFunction.from_table(list(zip(r, r**-2.0)))
    with pytest.raises(ValueError):
        lower_order(psi)


def test_parse_psi_specs(tmp_path):
    assert parse_psi_spec("power:tau=2.0").tau == 2.0
    assert parse_psi_spec("powerlog:beta=3.0", d=2).beta == 3.0
    g = parse_psi_spec("gpl:tau=2.0,beta=1.0")
    assert (g.tau, g.beta) == (2.0, 1.0)
    table = tmp_path / "psi.csv"
    rows = [(float(r), float(r) ** -2.0) for r in np.geomspace(2, 1e5, 30)]
    table.write_text("\n".join(f"{a!r},{b!r}" for a, b in rows))
    t = parse_psi_spec(f"table:{table}")
    assert t.family == "table" and t.table_r.size == 30
    with pytest.raises(ValueError):
        parse_psi_spec("mystery:tau=1")


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_block0_unit_interval():
    pts = enumerate_rationals(1, 0, Box([0.0], [1.0]))
    assert sorted(p.fractions()[0] for p in pts) == [Fraction(0), Fraction(1)]


def test_enumerate_block1_values_deduplicated():
    pts = enumerate_rationals(1, 1, Box([0.0], [1.0]))
    got = sorted(p.fractions()[0] for p in pts)
    assert got == [
        Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
    ]
    # representative carries the smallest block denominator
    by_val = {p.fractions()[0]: p for p in pts}
    assert by_val[Fraction(0)].denominator == 2
    assert by_val[Fraction(1, 2)].denominator == 2


def test_enumerate_d2_block0_corners():
    pts = enumerate_rationals(2, 0, Box([0.0, 0.0], [1.0, 1.0]))
    assert len(pts) == 4


def test_enumerate_against_bruteforce_oracle():
    window = Box([0.2], [0.7])
    n = 2
    expected = set()
    for q in range(4, 8):
        for p in range(0, q + 1):
            v = Fraction(p, q)
            if Fraction(1, 5) <= v <= Fraction(7, 10):
                expected.add(v)
    got = {p.fractions()[0] for p in enumerate_rationals(1, n, window)}
    assert got == expected


def test_enumerate_size_guard():
    with pytest.raises(ValueError):
        enumerate_rationals(2, 12, Box([0.0, 0.0], [1.0, 1.0]))


@st.composite
def _enumeration_windows(draw):
    """(d, n, window), the window drawn by _block_window."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 12))
    return d, n, draw(_block_window(d, n))


@st.composite
def _block_window(draw, d, n):
    """A window of block n in R^d with a few hundred candidates at most.  An
    edge either lies anywhere or sits on a block rational p/q, shifted by 0 or
    +-1e-12 (the enumeration's slop).  Most windows lie in [-1.5, 2.5]^d; some
    lie near 64, -1000 or 2^30, where the numerator bounds round coarsely and
    the enumeration refuses all but the lowest blocks."""
    top = (300.0 / 2.0 ** ((d + 1) * (n + 1))) ** (1.0 / d)
    base = draw(st.sampled_from([0.0, 0.0, 0.0, 64.0, -1000.0, 2.0**30]))

    def edge(near):
        if draw(st.booleans()):
            return near
        q = draw(st.integers(2**n, 2 ** (n + 1) - 1))
        shift = draw(st.sampled_from([0.0, 1e-12, -1e-12]))
        return math.floor(near * q) / q + shift

    lo, hi = [], []
    for _ in range(d):
        a = edge(base + draw(st.floats(-1.5, 2.5)))
        b = edge(a + draw(st.floats(0.0, top)))
        lo.append(min(a, b))
        hi.append(max(a, b))
    return Box(lo, hi)


def _as_pairs(points):
    return [(p.numerators, p.denominator) for p in points]


_SLOP = 1e-12  # the enumeration's slop on the numerator bounds


def _refused(n, lo, hi) -> bool:
    """The enumeration's block refusal, restated: more denominators per window
    than the cell ceiling, or a float64 product bound lo q, hi q (q < 2^(n+1))
    whose ulp, plus that of the slop shift, can exceed the slop."""
    top = max(abs(float(v)) for v in [*np.ravel(lo), *np.ravel(hi)])
    return 2**n > approx._WINDOW_CELL_CAP or math.ulp(top * 2.0 ** (n + 1) + _SLOP) > _SLOP


def _refusal_holds(error, n, lo, hi) -> bool:
    return str(error).startswith(f"block {n} refused: ") and _refused(n, lo, hi)


@settings(max_examples=300)
@given(_enumeration_windows(), st.sampled_from([1, 3, 2**16]))
def test_enumerate_matches_reference(case, chunk):
    d, n, window = case
    try:
        with mock.patch.object(approx, "_CELL_BUDGET", chunk):
            got = enumerate_rationals(d, n, window)
    except ValueError as e:
        assert _refusal_holds(e, n, window.lo, window.hi)
        return
    assert not _refused(n, window.lo, window.hi)
    want = reference_enumerate(d, n, window)
    assert [(p.numerators, p.denominator) for p in got] == \
        [(p.numerators, p.denominator) for p in want]


@settings(max_examples=150)
@given(st.data(), st.integers(1, 3), st.integers(0, 12),
       st.sampled_from([1, 3, approx._CELL_BUDGET]))
def test_enumerate_windows_match_reference(data, d, n, budget):
    # several windows of one block in one batch: every step boundary, in
    # windows or in q, must leave each window's list as its own enumeration
    windows = data.draw(st.lists(_block_window(d, n), min_size=1, max_size=6))
    lo = np.array([w.lo for w in windows])
    hi = np.array([w.hi for w in windows])
    try:
        with mock.patch.object(approx, "_CELL_BUDGET", budget):
            nums, qs, owner = _enumerate_windows(d, n, lo, hi)
    except ValueError as e:
        assert _refusal_holds(e, n, lo, hi)
        return
    assert not _refused(n, lo, hi)
    assert nums.dtype == qs.dtype == owner.dtype == np.int64
    assert nums.shape == (len(qs), d) and np.all(np.diff(owner) >= 0)
    got = [list(zip(map(tuple, nums[owner == k].tolist()), qs[owner == k].tolist()))
           for k in range(len(windows))]
    assert got == [_as_pairs(reference_enumerate(d, n, w)) for w in windows]


@settings(max_examples=300)
@given(_enumeration_windows())
def test_enumerate_windows_against_exact_bounds(case):
    # the oracle above does the same float arithmetic; here the window's edges
    # are read as exact Fractions: every rational of the closed window is
    # returned, and none lies more than 2 slop / q outside it
    d, n, window = case
    try:
        nums, qs, _ = _enumerate_windows(d, n, window.lo[None], window.hi[None])
    except ValueError as e:
        assert _refusal_holds(e, n, window.lo, window.hi)
        return
    lo = [Fraction(v) for v in window.lo]
    hi = [Fraction(v) for v in window.hi]
    exact = set()
    for q in range(2**n, 2 ** (n + 1)):
        ranges = [range(math.ceil(a * q), math.floor(b * q) + 1) for a, b in zip(lo, hi)]
        exact.update(tuple(Fraction(p, q) for p in ps) for ps in product(*ranges))
    got = set()
    for ps, q in zip(nums.tolist(), qs.tolist()):
        assert 2**n <= q < 2 ** (n + 1)
        reach = 2 * Fraction(_SLOP) / q
        value = tuple(Fraction(p, q) for p in ps)
        assert all(a - reach <= v <= b + reach for v, a, b in zip(value, lo, hi))
        got.add(value)
    assert exact <= got


def test_enumerate_windows_cap_refuses_before_any_cell():
    small, big = Box([0.0, 0.0], [0.01, 0.01]), Box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError) as want:
        reference_enumerate(2, 12, big)
    lo = np.array([small.lo, big.lo, small.lo])
    hi = np.array([small.hi, big.hi, small.hi])
    with mock.patch.object(np, "ceil", side_effect=AssertionError("cell computed")):
        with pytest.raises(ValueError) as got:
            _enumerate_windows(2, 12, lo, hi)
        with pytest.raises(ValueError) as one:
            enumerate_rationals(2, 12, big)
    assert str(got.value) == str(one.value) == str(want.value)
    assert str(got.value).startswith("enumeration of ~")


@pytest.mark.parametrize("n, edge, reason", [
    (53, 0.5, "denominators per window exceed the ceiling"),
    (70, 0.5, "denominators per window exceed the ceiling"),
    (13, 0.9, "float64 numerator bounds"),
    (0, 2.0**30, "float64 numerator bounds"),
], ids=["53", "70", "rounding-13", "rounding-far"])
def test_enumerate_windows_refuses_inexact_blocks_before_any_cell(n, edge, reason):
    # past the cell ceiling a window walks too many denominators; past the
    # rounding bound lo q and hi q round by more than the slop
    lo = hi = np.full((1, 1), edge)
    assert _refused(n, lo, hi)
    with mock.patch.object(np, "arange", side_effect=AssertionError("cell computed")):
        with pytest.raises(ValueError, match=f"^block {n} refused: .*{reason}"):
            _enumerate_windows(1, n, lo, hi)


# ---------------------------------------------------------------------------
# approximability
# ---------------------------------------------------------------------------


def test_origin_hits_every_q():
    hits, wits = is_psi_approximable([0.0], PsiFunction.power(2.0), 10)
    assert hits == 10
    assert all(w.numerators == (0,) for w in wits)


def test_golden_ratio_badly_approximable():
    # convergent denominators of (sqrt5-1)/2 are Fibonacci and the error obeys
    # |x - p/q| >= 1/(sqrt5 q^2 + q), which beats q^-3 for q >= 3
    x = (math.sqrt(5.0) - 1.0) / 2.0
    hits, wits = is_psi_approximable([x], PsiFunction.power(3.0), 10_000)
    assert hits <= 3
    assert all(w.denominator <= 10 for w in wits)


@pytest.mark.parametrize("d", [1, 2])
def test_dirichlet_floor(d):
    rng = np.random.default_rng(5 + d)
    psi = PsiFunction.power((d + 1) / d, d=d)
    for _ in range(100):
        x = rng.random(d)
        hits, _ = is_psi_approximable(x, psi, 1000)
        assert hits >= 1


def test_rounding_completeness_small_denominators():
    # round(xq)/q is the nearest denominator-q rational: exhaustive check
    # against the neighboring numerators over a fine grid
    xs = np.linspace(0.0, 1.0, 10_001)
    for q in range(1, 257):
        p = np.rint(xs * q)
        best = np.abs(xs - p / q)
        for off in (-1.0, 1.0):
            other = np.abs(xs - (p + off) / q)
            assert np.all(best <= other + 1e-15)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def test_layer_membership_exact_rational():
    lay = ApproxLayer(1, 1, Box([0.0], [1.0]), PsiFunction.power(2.0))
    member, wit = layer_membership([0.5], lay)
    assert member and wit == __import__(
        "fracapprox.geometry", fromlist=["RationalPoint"]
    ).RationalPoint((1,), 2)


def test_layer_membership_block3_tau2_finds_one_eighth():
    # exhaustive oracle over q = 8..15 with every nearby numerator: 1/8 is
    # within 8^-2 of 0.123456789, so the point is a member
    x = 0.123456789
    hits = []
    for q in range(8, 16):
        for p in range(0, q + 1):
            if abs(x - p / q) <= q**-2.0:
                hits.append((p, q))
    assert (1, 8) in hits
    lay = ApproxLayer(3, 1, Box([0.0], [1.0]), PsiFunction.power(2.0))
    member, wit = layer_membership([x], lay)
    assert member
    assert (int(wit.numerators[0]), wit.denominator) == hits[0]


def test_layer_membership_block3_tau4_nonmember():
    # same oracle with the thinner psi: no q in [8, 16) gets close enough
    x = 0.123456789
    for q in range(8, 16):
        for p in range(0, q + 1):
            assert abs(x - p / q) > q**-4.0
    lay = ApproxLayer(3, 1, Box([0.0], [1.0]), PsiFunction.power(4.0))
    member, wit = layer_membership([x], lay)
    assert not member and wit is None


def test_layer_membership_monotone_in_psi():
    rng = np.random.default_rng(9)
    thin = ApproxLayer(2, 1, Box([0.0], [1.0]), PsiFunction.power(3.0))
    thick = ApproxLayer(2, 1, Box([0.0], [1.0]), PsiFunction.power(2.5))
    for _ in range(200):
        x = [float(rng.random())]
        if layer_membership(x, thin)[0]:
            assert layer_membership(x, thick)[0]


def test_layer_membership_region_precondition():
    lay = ApproxLayer(1, 1, Box([0.0], [1.0]), PsiFunction.power(2.0))
    with pytest.raises(ValueError):
        layer_membership([1.5], lay)


def test_layer_hit_mask_agrees_with_pointwise():
    rng = np.random.default_rng(21)
    box = Box([0.0, 0.0], [1.0, 1.0])
    for psi in (PsiFunction.power(2.0, d=2), PsiFunction.power(0.9, d=2)):
        pts = rng.random((300, 2))
        for n in (1, 2):
            mask = layer_hit_mask(pts, n, psi, 2)
            lay = ApproxLayer(n, 2, box, psi)
            singles = np.array([layer_membership(p, lay)[0] for p in pts])
            assert np.array_equal(mask, singles)
            assert np.array_equal(mask, reference_hit_mask(pts, n, psi, 2))


def _table_psi(tau):
    r = np.geomspace(1.0, 4096.0, 13)
    return PsiFunction.from_table(list(zip(r, r**-tau)))


_PSIS = st.one_of(
    st.floats(0.8, 5.0).map(PsiFunction.power),
    st.floats(0.1, 4.0).map(PsiFunction.power_log),
    st.tuples(st.floats(1.0, 4.0), st.floats(0.0, 3.0)).map(
        lambda a: PsiFunction.generic_power_log(*a)),
    st.floats(1.0, 4.0).map(_table_psi),
)
_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, 0.25, 0.75, 1 / 3, 2 / 3, 1.0]


@st.composite
def _layer_case(draw, n):
    """A psi and points for block n: free floats in and around [0, 1], non-finite
    values, exact rationals (1/4 and 3/4 lie in the Cantor set) and points
    on or a few ulps off the radius boundary p/q +- psi(q) of the block."""
    psi = draw(_PSIS)
    xs = draw(st.lists(st.floats(-1.5, 2.5), max_size=30))
    xs += draw(st.lists(st.sampled_from(_SPECIAL), max_size=6))
    for q, p, side, ulps in draw(st.lists(st.tuples(
            st.integers(2**n, 2 ** (n + 1) - 1), st.integers(-2, 2 ** (n + 1) + 2),
            st.sampled_from([-1.0, 1.0]), st.integers(-2, 2)), max_size=12)):
        x = p / q + side * psi(float(q))
        for _ in range(abs(ulps)):
            x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
        xs.append(x)
    return psi, np.array(xs, dtype=float).reshape(-1, 1)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning:layer_oracle")
@settings(max_examples=150)
@given(data=st.data(), n=st.integers(0, 10))
def test_layer_hit_mask_d1_matches_reference(data, n):
    # few points: at high n the per-q loop is cheaper and takes the block
    psi, pts = data.draw(_layer_case(n))
    assert np.array_equal(layer_hit_mask(pts, n, psi, 1),
                          reference_hit_mask(pts, n, psi, 1))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning:layer_oracle")
@settings(max_examples=100)
@given(data=st.data(), n=st.integers(0, 5), size=st.integers(300, 3000),
       seed=st.integers(0, 2**32 - 1))
def test_layer_hit_mask_d1_sweep_matches_reference(data, n, size, seed):
    # many points at a low n: the sweep takes the block
    psi, extra = data.draw(_layer_case(n))
    rng = np.random.default_rng(seed)
    pts = np.concatenate([rng.random((size, 1)), extra])
    assert np.array_equal(layer_hit_mask(pts, n, psi, 1),
                          reference_hit_mask(pts, n, psi, 1))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning:layer_oracle")
@settings(max_examples=100)
@given(d=st.integers(2, 3), n=st.integers(0, 4), tau=st.floats(1.0, 4.0),
       rows=st.lists(st.lists(st.one_of(st.floats(-1.5, 2.5),
                                        st.sampled_from(_SPECIAL)),
                              min_size=3, max_size=3), max_size=30))
def test_layer_hit_mask_non_finite_points_match_reference(d, n, tau, rows):
    # the per-q loop drops points with a non-finite coordinate up front
    psi = PsiFunction.power(tau, d=d)
    pts = np.array([r[:d] for r in rows], dtype=float).reshape(-1, d)
    assert np.array_equal(layer_hit_mask(pts, n, psi, d),
                          reference_hit_mask(pts, n, psi, d))


def _kernel(x, n, psi):
    """The kernel layer_hit_mask hands the 1-D points x of block n to:
    "sweep", "convergent" or "loop"."""
    with mock.patch.object(approx, "_sweep_hit_mask", wraps=approx._sweep_hit_mask) as sweep, \
            mock.patch.object(approx, "_convergent_hit_mask",
                              wraps=approx._convergent_hit_mask) as convergent:
        layer_hit_mask(np.reshape(x, (-1, 1)), n, psi, 1)
    assert sweep.call_count + convergent.call_count <= 1
    return "sweep" if sweep.called else "convergent" if convergent.called else "loop"


def test_layer_hit_mask_d1_float_tie_needs_numerator_window():
    # x is one ulp above 1/6, so 3x rounds to 0.5 and rint gives p = 0; yet
    # in floats x is nearer to 1/3 than to 0.  With m = 0 the per-q loop
    # tries only p = 0, so the float test alone would disagree with it here.
    x = float(np.nextafter(1 / 6, 1))
    psi = PsiFunction.from_table([(2.0, 0.16666666666666663), (4.0, 0.16666666666666663)])
    assert (1 / 3 - x) ** 2 <= psi(3.0) ** 2 and psi(3.0) * 3 < 0.5
    pts = np.full((10, 1), x)
    assert not reference_hit_mask(pts, 1, psi, 1).any()
    assert _kernel(pts, 1, psi) == "sweep"
    assert not layer_hit_mask(pts, 1, psi, 1).any()


def test_layer_hit_mask_d1_underflowing_radius():
    # psi^2 underflows to 0, and so does the squared distance from 0 to a
    # point near 1e-170: the float test accepts it far outside the radius
    psi = PsiFunction.from_table([(1.0, 1e-200), (2048.0, 1e-200)])
    pts = np.array([[1e-170], [-3e-165], [1e-140], [0.0], [0.5]] * 4)
    ref = reference_hit_mask(pts, 3, psi, 1)
    assert ref[:2].all() and not ref[2]
    assert _kernel(pts, 3, psi) == "sweep"
    assert np.array_equal(layer_hit_mask(pts, 3, psi, 1), ref)


_WIDE = 2**20


@st.composite
def _convergent_case(draw, n):
    """A psi and points for block n spread over [-2^20, 2^20], so that the
    sweep would enumerate far more centres than the convergent kernel takes
    Euclid steps: the points of _layer_case, integers, dyadics k/2^j, the
    floats nearest a/b with b <= 2^(n+1), and integers plus or minus 2^-k
    for k = 9..1074, down to the subnormal 5e-324."""
    psi, pts = draw(_layer_case(n))
    whole = st.integers(-_WIDE, _WIDE)
    xs = [-float(_WIDE), float(_WIDE)]
    xs += draw(st.lists(whole.map(float), max_size=8))
    xs += [k / 2.0**j for k, j in draw(st.lists(st.tuples(whole, st.integers(0, 60)),
                                                 max_size=8))]
    for i, b in draw(st.lists(st.tuples(whole, st.integers(1, 2 ** (n + 1))), max_size=16)):
        xs.append((i * b + draw(st.integers(0, b - 1))) / b)
    xs += [i + s * math.ldexp(1.0, -k) for i, s, k in draw(st.lists(
        st.tuples(st.integers(-3, 3), st.sampled_from([-1, 1]), st.integers(9, 1074)),
        max_size=12))]
    return psi, np.concatenate([pts, np.array(xs).reshape(-1, 1)])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning:layer_oracle")
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(3, 12))
def test_layer_hit_mask_convergent_matches_reference(data, n):
    # the convergent kernel takes every block whose psi keeps 2 q^2 psi(q)
    # clear of 1, refuses every block where it reaches 1, and keeps every bit
    psi, pts = data.draw(_convergent_case(n))
    q = np.arange(2**n, 2 ** (n + 1), dtype=float)
    legendre = (2 * q * q * psi(q)).max()
    kernel = _kernel(pts, n, psi)
    if legendre < 0.9:
        assert kernel == "convergent"
    elif legendre >= 1:
        assert kernel != "convergent"
    assert np.array_equal(layer_hit_mask(pts, n, psi, 1), reference_hit_mask(pts, n, psi, 1))


def test_layer_hit_mask_legendre_boundary():
    # 2 q^2 psi(q) = 1 at q = 4 for tau = 2.5 (block 2), and is one ulp below
    # 1 at q = 8 for tau = 7/3 (block 3), where the float reach puts it past
    # 1: neither block is inside the Legendre condition.  Block 3 at tau =
    # 2.5 is (2 q^2 psi(q) <= 0.71), and takes the convergent kernel.
    rng = np.random.default_rng(16)
    x = np.concatenate([rng.uniform(-_WIDE, _WIDE, 200), rng.integers(-99, 99, 100) / 8,
                        rng.random(100), [1 / 4 + 4.0**-2.5, 3 / 8 - 8.0**-2.5]])
    for n, tau, want in ((2, 2.5, "loop"), (3, 7 / 3, "loop"), (3, 2.5, "convergent")):
        psi = PsiFunction.power(tau)
        assert _kernel(x, n, psi) == want
        pts = x.reshape(-1, 1)
        assert np.array_equal(layer_hit_mask(pts, n, psi, 1), reference_hit_mask(pts, n, psi, 1))


def test_layer_hit_mask_d1_cost_rule():
    # of the kernels whose preconditions hold, the one with the least work
    # runs: the loop's N 2^n point-q tests, the sweep's centres (when psi(2^n)
    # 2^n < 1/2; past that the loop decides nearly every point at the first
    # q) or the convergent kernel's N (ceil(log_phi 2^(n+1)) + 1) Euclid
    # steps (under the Legendre condition); all agree with the loop
    psi, fat = PsiFunction.power(2.5), PsiFunction.power(1.0)
    rng = np.random.default_rng(4)
    many, few = rng.random(4000), rng.random(3)
    assert _kernel(many, 3, psi) == "sweep"  # ~120 centres, 28,000 steps
    assert _kernel(few, 10, psi) == "convergent"  # 3 * 17 steps, 3 * 1024 tests
    assert _kernel(many, 10, psi) == "convergent"  # ~1.6e6 centres, 68,000 steps
    assert _kernel(few, 2, psi) == "loop"  # outside the Legendre condition
    for n in (0, 3, 10):
        assert _kernel(many, n, fat) == "loop"
    assert _kernel(many, 3, PsiFunction.power(1.2)) == "loop"  # 8^-0.2 > 1/2
    assert _kernel(many, 6, PsiFunction.power(1.2)) == "sweep"  # no Legendre: tau < 2
    for x, n, f in ((many, 3, psi), (few, 10, psi), (many, 10, psi), (few, 2, psi),
                    (many[:0], 3, psi), (many, 3, fat), (many, 10, fat),
                    (np.append(many, [np.nan, np.inf]), 3, fat),
                    (np.append(many, [np.nan, -np.inf]), 10, psi)):
        pts = x.reshape(-1, 1)
        with np.errstate(invalid="ignore"):  # the oracle's NaN and inf points
            want = reference_hit_mask(pts, n, f, 1)
        assert np.array_equal(layer_hit_mask(pts, n, f, 1), want)


@pytest.mark.parametrize("n, size, d, sweep", [(3, 4000, 1, True), (10, 3, 1, False),
                                               (4, 300, 2, False), (2, 3, 1, False)])
def test_layer_hit_mask_evaluates_psi_once(n, size, d, sweep):
    # one psi call builds the block's table, whichever kernel reads it; at
    # tau = 2.5 the Legendre condition holds from block 3 on, so in d = 1 the
    # convergent kernel takes the blocks from 3 on that the sweep leaves
    kernel = "sweep" if sweep else "convergent" if d == 1 and n >= 3 else "loop"
    psi = PsiFunction.power(2.5, d=d)
    counted = mock.Mock(wraps=psi)
    pts = np.random.default_rng(8).random((size, d))
    with mock.patch.object(approx, "_sweep_hit_mask", wraps=approx._sweep_hit_mask) as spy, \
            mock.patch.object(approx, "_convergent_hit_mask",
                              wraps=approx._convergent_hit_mask) as convergent_spy:
        mask = layer_hit_mask(pts, n, counted, d)
    assert counted.call_count == 1 and spy.called == sweep
    assert convergent_spy.called == (kernel == "convergent")
    assert np.array_equal(mask, reference_hit_mask(pts, n, psi, d))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning:layer_oracle")
@pytest.mark.parametrize("name, n, tau, size", [("cantor", 12, 2.5, 8), ("cantor", 12, 0.9, 8),
                                                ("gasket", 7, 1.5, 6)])
def test_layer_hit_mask_q_steps_match_reference(name, n, tau, size):
    # few points at a high block: the q loop takes steps of many q at once
    pts = sample_measure(bundled_system(name), size, 3)
    if name == "cantor":
        pts = np.append(pts, [[math.nan]], axis=0)
    psi = PsiFunction.power(tau, d=pts.shape[1])
    assert np.array_equal(layer_hit_mask(pts, n, psi, pts.shape[1]),
                          reference_hit_mask(pts, n, psi, pts.shape[1]))


def test_layer_fallback_enumeration_catches_offset_candidates():
    # psi(q) q >= 1/2 forces the neighborhood search: a point between two
    # rationals with a fat psi must still be found
    psi = PsiFunction.power(0.5)
    lay = ApproxLayer(1, 1, Box([0.0], [1.0]), psi)
    member, wit = layer_membership([0.25], lay)
    assert member


def test_layer_decomposition_vs_sup_norm_scan():
    # sup-norm hit at block n implies Euclidean layer membership; Euclidean
    # membership implies a sup-norm hit for the sqrt(d)-inflated psi
    rng = np.random.default_rng(33)
    d = 2
    N = 4
    psi = PsiFunction.power(1.8, d=d)
    infl = PsiFunction.power(1.8, d=d)  # same exponent, scaled evaluation
    box = Box([0.0] * d, [1.0] * d)
    sq = math.sqrt(d)
    for _ in range(120):
        x = rng.random(d)
        hits, wits = is_psi_approximable(x, psi, 2 ** (N + 1) - 1)
        blocks_hit = {int(math.floor(math.log2(w.denominator))) for w in wits}
        member_any = any(
            layer_membership(x, ApproxLayer(n, d, box, psi))[0]
            for n in range(0, N + 1)
        )
        if blocks_hit:
            assert member_any
        if member_any:
            # inflated scan must register a hit somewhere in range
            qs = np.arange(1, 2 ** (N + 1))
            prods = x[None, :] * qs[:, None]
            ps = np.rint(prods)
            sup_err = np.max(np.abs(prods - ps), axis=1) / qs
            assert np.any(sup_err <= sq * psi(qs.astype(float)))


def test_smallness_onset_power():
    # psi(2^n) < c 2^(-2n) with c = 2^-4 first holds strictly from n = 9
    onset = smallness_onset(PsiFunction.power(2.5), 2.0**-4, 1)
    assert onset == 9
    assert smallness_onset(PsiFunction.power(1.0), 1e-6, 1) is None
