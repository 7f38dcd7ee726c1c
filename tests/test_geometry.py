import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cover_oracle
from cover_oracle import Hyperplane, RationalPoint, Simplex
from cover_oracle import greedy_cover as reference_greedy_cover
from cover_oracle import hyperplane_through as reference_hyperplane_through
from fracapprox.analysis import _block_witness
from fracapprox.geometry import (
    Ball,
    DyadicScale,
    hyperplane_through,
    unit_ball_volume,
    _eliminate,
    _first_of_each_value,
    _greedy_segments,
    _witness_block,
)


# ---------------------------------------------------------------------------
# basic types
# ---------------------------------------------------------------------------


def test_ball_requires_positive_radius():
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)
    with pytest.raises(ValueError):
        Ball([0.0], -1.0)


def test_rational_point_validation_and_equality():
    with pytest.raises(ValueError):
        RationalPoint((1,), 0)
    assert RationalPoint((1,), 2) == RationalPoint((2,), 4)
    assert RationalPoint((1, 3), 2) == RationalPoint((2, 6), 4)
    assert RationalPoint((1,), 2) != RationalPoint((1,), 3)
    assert hash(RationalPoint((1,), 2)) == hash(RationalPoint((2,), 4))


def test_simplex_needs_d_plus_one_vertices():
    with pytest.raises(ValueError):
        Simplex((RationalPoint((0, 0), 1), RationalPoint((1, 0), 1)))


# ---------------------------------------------------------------------------
# exact affine rank
# ---------------------------------------------------------------------------


def _affine_rank(points) -> int:
    """The exact affine rank of RationalPoints: the rank of their homogeneous
    rows (q, p), less one."""
    return _eliminate([[p.denominator, *p.numerators] for p in points]) - 1


def test_collinear_simplex_is_degenerate():
    s = Simplex(
        (RationalPoint((0, 0), 1), RationalPoint((1, 1), 1), RationalPoint((2, 2), 1))
    )
    assert _affine_rank(s.vertices) == 1 < s.dim


@pytest.mark.parametrize("d", [1, 2, 3])
def test_determinant_matches_float_and_rank(d):
    rng = np.random.default_rng(20240 + d)
    for _ in range(60):
        pts = []
        for _i in range(d + 1):
            q = int(rng.integers(1, 2**30))
            nums = tuple(int(v) for v in rng.integers(-(2**30), 2**30, size=d))
            pts.append(RationalPoint(nums, q))
        rank = _affine_rank(pts)
        mat = np.array(
            [[1.0] + list(p.as_float()) for p in pts], dtype=float
        )
        approx = abs(np.linalg.det(mat))
        if rank == d:  # independent: a nonzero volume
            assert approx > 0.0
        # the exact rank is the independent rank computation's
        assert rank == cover_oracle.affine_rank(pts)


def test_zero_volume_on_constructed_dependence():
    # three points on the line y = x with large mixed denominators
    pts = [
        RationalPoint((1, 1), 7),
        RationalPoint((5, 5), 11),
        RationalPoint((9, 9), 13),
    ]
    assert _affine_rank(pts) == 1
    assert cover_oracle.affine_rank(pts) == 1


@st.composite
def _homogeneous_rows(draw):
    """(d, rows): the homogeneous rows (q, p_1, ..., p_d) of 1-7 rational
    points in R^d, d = 1..4, with entries up to 2^60 (past int64 once
    combined), repeats in other representations and points on the line
    through two earlier ones."""
    d = draw(st.integers(1, 4))
    small_or_big = st.one_of(st.integers(-3, 3), st.integers(-2**60, 2**60))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["free", "repeat", "dependent"])) if rows else "free"
        if kind == "free":
            q = draw(st.one_of(st.integers(1, 3), st.integers(1, 2**60)))
            rows.append([q, *draw(st.lists(small_or_big, min_size=d, max_size=d))])
        elif kind == "repeat":
            rows.append([draw(st.integers(1, 3)) * x for x in draw(st.sampled_from(rows))])
        else:  # a + t (b - a), over the denominator q_a q_b
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            t = draw(st.integers(-3, 3))
            rows.append([a[0] * b[0]] + [x * b[0] + t * (y * a[0] - x * b[0])
                                         for x, y in zip(a[1:], b[1:])])
    return d, rows


@settings(max_examples=200, deadline=None)
@given(_homogeneous_rows())
def test_elimination_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    _, rows = case
    # every prefix, so each rank step the rows take is checked
    assert [_eliminate(rows[:i]) for i in range(1, len(rows) + 1)] == [
        sympy.Matrix(rows[:i]).rank() for i in range(1, len(rows) + 1)]


# ---------------------------------------------------------------------------
# dyadic scales
# ---------------------------------------------------------------------------


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 3, 6, 9])
def test_volume_ceiling_identity_float(d, n):
    scale = DyadicScale(n, d)
    expected = 2.0 ** (-(d + 1) * (n + 1)) / math.factorial(d)
    assert scale.kappa * (6.0 * scale.r_n) ** d == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_volume_ceiling_identity_symbolic(d):
    sympy = pytest.importorskip("sympy")
    n = sympy.symbols("n", nonnegative=True)
    kappa = {1: sympy.Integer(2), 2: sympy.pi, 3: sympy.Rational(4, 3) * sympy.pi}[d]
    r_n = (
        sympy.Rational(1, 6)
        * (1 / (kappa * sympy.factorial(d))) ** sympy.Rational(1, d)
        * 2 ** (-(sympy.Rational(d + 1, d)) * (n + 1))
    )
    lhs = kappa * (6 * r_n) ** d
    rhs = 2 ** (-(d + 1) * (n + 1)) / sympy.factorial(d)
    assert sympy.simplify(lhs - rhs) == 0


# ---------------------------------------------------------------------------
# greedy covering
# ---------------------------------------------------------------------------


def _greedy(centers, r):
    """The greedy cover of one segment: its chosen rows, in visiting order."""
    rows = np.array(centers, dtype=float)
    return _greedy_segments(rows, np.zeros(len(rows), dtype=np.intp), r)[0]


def test_greedy_cover_trace_012():
    chosen = _greedy([[0.0], [1.0], [2.0]], 1.0)
    assert chosen.tolist() == [[0.0]]
    # the 3-dilate [-3, 3] covers the union [-1, 3]
    assert Ball(chosen[0], 3.0).contains([3.0])


def test_greedy_cover_single_ball():
    assert len(_greedy([[0.3, 0.4]], 0.2)) == 1


def test_greedy_cover_separated_balls_all_kept():
    chosen = _greedy([[0.0], [10.0], [20.0]], 1.0)
    assert chosen[:, 0].tolist() == [0.0, 10.0, 20.0]


def test_greedy_cover_empty_input():
    assert _greedy(np.zeros((0, 1)), 1.0).shape == (0, 1)


def test_greedy_cover_order_independent():
    rng = np.random.default_rng(7)
    centers = rng.random((40, 2))
    ref = {tuple(c) for c in _greedy(centers, 0.1)}
    for _ in range(5):
        perm = rng.permutation(len(centers))
        assert {tuple(c) for c in _greedy(centers[perm], 0.1)} == ref


@pytest.mark.parametrize("d", [1, 2, 3])
def test_greedy_cover_disjoint_and_covering(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(30):
        m = int(rng.integers(1, 120))
        r = float(rng.uniform(0.05, 0.4))
        centers = rng.uniform(0, 3, size=(m, d))
        ch = _greedy(centers, r)
        if len(ch) > 1:
            gaps = np.linalg.norm(ch[:, None, :] - ch[None, :, :], axis=2)
            np.fill_diagonal(gaps, np.inf)
            assert gaps.min() > 2 * r
        # 1000 points sampled inside input balls all land in some 3-dilate
        idx = rng.integers(0, m, size=1000)
        dirs = rng.normal(size=(1000, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = r * rng.random(1000) ** (1.0 / d)
        pts = centers[idx] + dirs * radii[:, None]
        dist = np.linalg.norm(pts[:, None, :] - ch[None, :, :], axis=2)
        assert np.all(dist.min(axis=1) <= 3 * r * (1 + 1e-12))


def test_greedy_cover_exact_2r_gap_is_not_separated():
    # gaps of exactly 2r (first coordinates 0.5 apart at r = 0.25) fail the
    # strict test, so 0.5 is skipped; 3-4-5 gaps at r = 2.5 likewise
    assert _greedy([[1.0], [0.5], [0.0]], 0.25).tolist() == [[0.0], [1.0]]
    chosen = _greedy([[3.0, 4.0], [0.0, 0.0], [6.0, 8.0]], 2.5)
    assert chosen.tolist() == [[0.0, 0.0], [6.0, 8.0]]


@st.composite
def _cover_centres(draw):
    """(rows, r): random rows, integer-grid rows whose gaps hit 2r exactly
    (r = 0.25 on a 0.5 grid, r = 2.5 with 3-4-5 triangles), rows shifted by
    exactly 2r in the first coordinate, and duplicates, in shuffled order."""
    d = draw(st.integers(1, 3))
    r, unit = draw(st.sampled_from([(0.25, 0.5), (2.5, 1.0), (None, 0.1)]))
    if r is None:
        r = draw(st.floats(1e-3, 1.0))
    coord = st.floats(-2.0, 2.0)
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), max_size=40))
    grid = st.lists(st.integers(-6, 6), min_size=d, max_size=d)
    rows += [[unit * k for k in g] for g in draw(st.lists(grid, max_size=40))]
    if not rows:
        rows = [[0.0] * d]
    picks = st.lists(st.integers(0, len(rows) - 1), max_size=10)
    rows += [[rows[i][0] + 2 * r] + rows[i][1:] for i in draw(picks)]
    rows += [list(rows[i]) for i in draw(picks)]
    return draw(st.permutations(rows)), r


@settings(max_examples=300)
@given(_cover_centres())
def test_greedy_cover_matches_reference(case):
    rows, r = case
    want, _ = reference_greedy_cover([Ball(c, r) for c in rows])
    assert [tuple(c) for c in _greedy(rows, r)] == [tuple(b.center) for b in want]


@settings(max_examples=300)
@given(_cover_centres(), st.integers(1, 6), st.data())
def test_greedy_segments_match_per_segment_oracle(case, segments, data):
    # segment ids drawn per row, so segments come out empty, interleaved and
    # holding duplicates; each is selected as if alone, in visiting order
    rows, r = case
    rows = np.array(rows, dtype=float)
    seg = np.array(data.draw(st.lists(st.integers(0, segments - 1),
                                      min_size=len(rows), max_size=len(rows))))
    got, got_seg = _greedy_segments(rows, seg, r)
    assert np.all(np.diff(got_seg) >= 0)
    for k in range(segments):
        want = cover_oracle._greedy_centres(rows[seg == k], r)
        assert got[got_seg == k].tobytes() == want.tobytes()


def test_greedy_segments_of_nothing():
    got, seg = _greedy_segments(np.zeros((0, 2)), np.zeros(0, dtype=int), 0.5)
    assert got.shape == (0, 2) and seg.shape == (0,)


@st.composite
def _valued_points(draw):
    """(nums, qs, owner) as int64 arrays: multiples c (p, q) of a few base
    points with negative numerators, so one owner holds equal values under
    several denominators and several owners hold the same value."""
    d = draw(st.integers(1, 3))
    base = draw(st.lists(st.tuples(st.lists(st.integers(-6, 6), min_size=d, max_size=d),
                                   st.integers(1, 8)), min_size=1, max_size=5))
    rows = draw(st.lists(st.tuples(st.sampled_from(base), st.integers(1, 3),
                                   st.integers(0, 2)), max_size=30))
    nums = np.array([[c * p for p in ps] for (ps, _), c, _ in rows], dtype=np.int64)
    qs = np.array([c * q for (_, q), c, _ in rows], dtype=np.int64)
    owner = np.array([k for _, _, k in rows], dtype=np.int64)
    return nums.reshape(len(rows), d), qs, owner


@settings(max_examples=300)
@given(_valued_points())
def test_first_of_each_value_matches_unique_oracle(case):
    got = _first_of_each_value(*case)
    assert got.tolist() == cover_oracle.first_of_each_value(*case).tolist()


def _witness(point_lists, centres):
    """_witness_block on lists of RationalPoints, list k the points of the
    ball centred at centres[k]."""
    pts = [p for ps in point_lists for p in ps]
    d = centres.shape[1]
    nums = np.array([p.numerators for p in pts], dtype=np.int64).reshape(-1, d)
    qs = np.array([p.denominator for p in pts], dtype=np.int64)
    owner = np.repeat(np.arange(len(point_lists)), [len(ps) for ps in point_lists])
    return _witness_block(nums, qs, owner, nums / qs[:, None], centres)


def _six_dilate_points(scale, centres):
    """The block rationals in the closed 6-dilate of each ball B(c, r_n), c
    the rows of centres, from the oracle's full-scan enumeration."""
    return [cover_oracle._block_rationals_in_six_dilate(scale.d, scale, Ball(c, scale.r_n))
            for c in centres]


def _witness_outcome(pts, ball, scale, oracle=False):
    """What the witness of one ball gives, a plane or a simplex, from
    _witness_block or from the per-ball oracle."""
    if oracle:
        plane, simplex = cover_oracle.hyperplane_witness(pts, ball, scale)
        if simplex is not None:
            return ("simplex",)
        normal, offset = plane.normal, plane.offset
    else:
        counts, normals, offsets = _witness([pts], ball.center[None])
        assert counts.tolist() == [len(pts)]
        if np.isnan(offsets[0]):
            return ("simplex",)
        normal, offset = normals[0], offsets[0]
    return "plane", normal.tobytes(), offset


@st.composite
def _witness_case(draw):
    """(points, ball, scale): block rationals in the 6-dilate of a block
    ball, drawn with repeats, in any order."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    scale = DyadicScale(n, d)
    centre = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
    near = _six_dilate_points(scale, centre[None])[0]
    pts = draw(st.lists(st.sampled_from(near), max_size=5)) if near else []
    return pts, Ball(centre, scale.r_n), scale


@settings(max_examples=300)
@given(_witness_case())
def test_hyperplane_witness_matches_per_ball_oracle(case):
    pts, ball, scale = case
    assert _witness_outcome(pts, ball, scale) == _witness_outcome(pts, ball, scale, True)


@pytest.mark.parametrize("d, n", [(1, 3), (1, 9), (2, 0), (2, 4), (2, 5), (3, 2)])
def test_witness_block_matches_per_ball_oracle(d, n):
    scale = DyadicScale(n, d)
    centres = np.random.default_rng(1).random((300, d))
    point_lists = _six_dilate_points(scale, centres)
    # at d = 2, blocks 4 and 5 hold balls with two rationals, which take the
    # exact rank path
    assert any(len(pts) > 1 for pts in point_lists) == ((d, n) in [(2, 4), (2, 5)])
    counts, normals, offsets = _block_witness(scale, centres)
    assert counts.tolist() == [len(pts) for pts in point_lists]
    for c, pts, normal, offset in zip(centres, point_lists, normals, offsets):
        want, _ = cover_oracle.hyperplane_witness(pts, Ball(c, scale.r_n), scale)
        assert normal.tobytes() == want.normal.tobytes() and offset == want.offset


# ---------------------------------------------------------------------------
# hyperplane witnesses
# ---------------------------------------------------------------------------


def test_witness_single_point_d1():
    counts, normals, offsets = _witness([[RationalPoint((1,), 2)]], np.array([[0.5]]))
    assert counts.tolist() == [1] and not np.isnan(offsets).any()
    assert Hyperplane(normals[0], offsets[0]).distance([0.5]) < 1e-12


def test_block1_interval_of_length_one_sixteenth_holds_one_rational():
    # oracle: exhaustive pairwise gaps of the block-1 rational values
    vals = sorted(
        {Fraction(p, q) for q in (2, 3) for p in range(0, 4 * q + 1)}
    )
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    assert min(gaps) == Fraction(1, 6)
    assert Fraction(1, 6) > Fraction(1, 16)
    # hence any closed interval of length 1/16 holds at most one block value
    length = Fraction(1, 16)
    for start in vals:
        inside = [v for v in vals if start <= v <= start + length]
        assert len(inside) <= 2  # endpoints can touch two only if gap == length
        if len(inside) == 2:
            assert inside[1] - inside[0] > length  # cannot actually happen
    # and the greedy witness machinery agrees at the matching dyadic radius
    scale = DyadicScale(1, 1)
    assert 2 * scale.r_n < 1 / 16


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_d1_block_rational_gap_exceeds_paper_interval(n):
    # the d = 1 specialization: any interval of length 2^(-2(n+1)) contains at
    # most one rational with denominator in the block, because distinct block
    # values differ by more than 1/(q q') > 2^(-2(n+1)); checked exhaustively
    # on [0, 1] with exact arithmetic
    vals = sorted(
        {Fraction(p, q) for q in range(2**n, 2 ** (n + 1)) for p in range(q + 1)}
    )
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    assert min(gaps) > Fraction(1, 2 ** (2 * (n + 1)))


def test_d1_paper_interval_balls_disjoint():
    # balls B(p/q, r_n') with r_n' = 2^(-2(n+1))/2 around distinct block
    # rationals are disjoint
    n = 3
    r = Fraction(1, 2 ** (2 * (n + 1) + 1))
    vals = sorted(
        {Fraction(p, q) for q in range(2**n, 2 ** (n + 1)) for p in range(q + 1)}
    )
    for a, b in zip(vals, vals[1:]):
        assert b - a > 2 * r


def _exact_triple_independent(points) -> bool:
    for trio in combinations(points, 3):
        (x0, y0), (x1, y1), (x2, y2) = [p.fractions() for p in trio]
        det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if det != 0:
            return True
    return False


def test_witness_d2_block3_always_hyperplane():
    scale = DyadicScale(3, 2)
    centres = np.random.default_rng(42).random((50, 2))
    point_lists = _six_dilate_points(scale, centres)
    counts, normals, offsets = _block_witness(scale, centres)
    assert counts.tolist() == [len(pts) for pts in point_lists]
    assert not np.isnan(offsets).any()
    for pts, normal, offset in zip(point_lists, normals, offsets):
        # independent oracle: cofactor determinants over all triples
        assert not _exact_triple_independent(pts)
        for p in pts:
            assert Hyperplane(normal, offset).distance(p.as_float()) < 1e-9


def test_witness_returns_simplex_when_preconditions_broken():
    # points far outside the 6-dilate of a block ball can be genuinely
    # independent; the exact rank finds them, and the ball's row is the NaN
    # counterexample while a lone point's ball keeps its plane
    pts = [
        RationalPoint((0, 0), 2),
        RationalPoint((1, 0), 2),
        RationalPoint((0, 1), 2),
    ]
    counts, normals, offsets = _witness([pts, pts[:1]], np.array([[0.5, 0.5], [0.0, 0.0]]))
    assert counts.tolist() == [3, 1]
    assert np.isnan(normals[0]).all() and np.isnan(offsets[0])
    assert normals[1].tolist() == [0.0, 1.0] and offsets[1] == 0.0


def test_simplex_branch_via_affine_rank_directly():
    pts = [
        RationalPoint((0, 0), 2),
        RationalPoint((1, 0), 2),
        RationalPoint((0, 1), 2),
    ]
    assert _affine_rank(pts) == 2
    assert _exact_triple_independent(pts)


# ---------------------------------------------------------------------------
# hyperplane completion and slabs
# ---------------------------------------------------------------------------


def test_hyperplane_through_is_deterministic_and_signed():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    n1, _ = hyperplane_through(pts)
    n2, _ = hyperplane_through(pts)
    assert np.array_equal(n1, n2)
    first_nonzero = n1[np.nonzero(np.abs(n1) > 1e-9)[0][0]]
    assert first_nonzero > 0


@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.builds(RationalPoint, st.tuples(*[st.integers(-10**6, 10**6)] * d),
              st.integers(1, 2**40)),
    min_size=1, max_size=3)))
def test_hyperplane_through_matches_qr_path(points):
    # one point skips the QR, whose (d, 0) factor is the identity
    normal, offset = hyperplane_through(np.array([p.as_float() for p in points]))
    want = reference_hyperplane_through(points)
    assert normal.tobytes() == want.normal.tobytes()
    assert np.float64(offset).tobytes() == np.float64(want.offset).tobytes()


def _slab_distances(points: np.ndarray, x) -> np.ndarray:
    """|normal . x - offset| for the hyperplane through the rows of points."""
    normal, offset = hyperplane_through(points)
    return np.abs(np.asarray(x, dtype=float) @ normal - offset)


def test_slab_of_point_d1():
    dist = _slab_distances(np.array([[0.5]]), [[0.4901], [0.5099], [0.489], [0.5111]])
    assert (dist <= 0.01).tolist() == [True, True, False, False]
    # boundary exact where floats permit: epsilon an exact dyadic
    edges = _slab_distances(np.array([[0.5]]), [[0.5 - 0.015625], [0.5 + 0.015625]])
    assert (edges <= 0.015625).all()


def test_slab_of_x_axis_d2():
    points = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert abs(abs(hyperplane_through(points)[0][1]) - 1.0) < 1e-12
    dist = _slab_distances(points, [[7.0, 0.09], [0.0, 0.11]])
    assert (dist <= 0.1).tolist() == [True, False]


def test_slab_of_contains_all_inputs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = int(rng.integers(2, 50))
        a = RationalPoint((int(rng.integers(0, q)), int(rng.integers(0, q))), q)
        b = RationalPoint((int(rng.integers(0, q)), int(rng.integers(0, q))), q)
        points = np.array([a.as_float(), b.as_float()])
        assert (_slab_distances(points, points) <= 1e-6).all()


def test_slab_of_rejects_empty_and_independent():
    # no hyperplane through no points; d+1 independent points lie on none,
    # which the exact rank decides (_witness_block then gives a NaN row)
    with pytest.raises(ValueError):
        hyperplane_through(np.zeros((0, 2)))
    pts = [
        RationalPoint((0, 0), 1),
        RationalPoint((1, 0), 1),
        RationalPoint((0, 1), 1),
    ]
    assert _affine_rank(pts) == 2
