import json
import math
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mass_oracle
import osc_oracle
import sample_oracle
from fracapprox import ifs
from fracapprox.analysis import _cylinder_net
from fracapprox.geometry import Ball, Box
from fracapprox.ifs import (
    BUNDLED_SYSTEMS,
    ConvexPolygon,
    IFSystem,
    MAX_SUBDIVISION_DEPTH,
    IrreducibilityWarning,
    OpenSetConditionError,
    SimilarityMap,
    load_system,
    measure_many,
    sample_measure,
    similarity_dimension,
    _Frontier,
    _segment_sums,
)
from mass_oracle import Slab

I1 = np.eye(1)
I2 = np.eye(2)


# ---------------------------------------------------------------------------
# similarity dimension
# ---------------------------------------------------------------------------


def test_moran_root_cantor_matches_closed_form(cantor):
    closed = math.log(2) / math.log(3)
    assert abs(similarity_dimension([1 / 3, 1 / 3], 1) - closed) < 1e-12
    assert abs(cantor.delta - closed) < 1e-12


def test_moran_root_gasket_matches_closed_form(gasket):
    closed = math.log(3) / math.log(2)
    assert abs(similarity_dimension([0.5, 0.5, 0.5], 2) - closed) < 1e-12
    assert abs(gasket.delta - closed) < 1e-12


def test_moran_root_rejects_single_map():
    with pytest.raises(ValueError):
        similarity_dimension([0.5], 1)


def test_moran_root_rejects_unembeddable_system():
    # three maps of ratio 0.9 would need s > 1 in R^1
    with pytest.raises(ValueError):
        similarity_dimension([0.9, 0.9, 0.9], 1)


def test_moran_residual_small_for_all_bundled(cantor, gasket, dust, koch):
    for sys_ in (cantor, gasket, dust, koch):
        assert sys_.moran_residual() <= 1e-10


# ---------------------------------------------------------------------------
# construction and the open set condition
# ---------------------------------------------------------------------------


def test_similarity_map_validation():
    with pytest.raises(ValueError):
        SimilarityMap(1.2, I1, np.zeros(1))
    with pytest.raises(ValueError):
        SimilarityMap(0.5, np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))


def test_osc_rejects_overlapping_images():
    maps = [
        SimilarityMap(1 / 3, I1, np.array([0.0])),
        SimilarityMap(1 / 3, I1, np.array([0.2])),
    ]
    with pytest.raises(OpenSetConditionError):
        IFSystem.create(maps, Box([0.0], [1.0]))


def test_osc_rejects_escaping_images():
    maps = [
        SimilarityMap(1 / 3, I1, np.array([0.0])),
        SimilarityMap(1 / 3, I1, np.array([0.9])),
    ]
    with pytest.raises(OpenSetConditionError):
        IFSystem.create(maps, Box([0.0], [1.0]))


def test_osc_with_ball_witness():
    maps = [
        SimilarityMap(1 / 3, I1, np.array([0.0])),
        SimilarityMap(1 / 3, I1, np.array([2 / 3])),
    ]
    sys_ = IFSystem.create(maps, Ball([0.5], 0.5))
    assert abs(sys_.delta - math.log(2) / math.log(3)) < 1e-12


def test_osc_polygon_witness_koch(koch):
    assert isinstance(koch.open_set, ConvexPolygon)
    assert koch.has_rotations
    assert abs(koch.delta - math.log(4) / math.log(3)) < 1e-12


def test_koch_rotated_box_witness_fails():
    # the Koch maps admit no axis-aligned box witness: the rotated images
    # always cut into their neighbors
    maps = ifs.bundled_system("koch").maps
    with pytest.raises(OpenSetConditionError):
        IFSystem.create(maps, Box([0.0, 0.0], [1.0, 0.3]))


_TRIANGLE = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])

_OSC_WITNESSES = {
    "ball": lambda d: Ball(np.full(d, 0.5), 0.5 * math.sqrt(d)),
    "box": lambda d: Box(np.zeros(d), np.ones(d)),
    "rotated-box": lambda d: Box(np.zeros(2), np.ones(2)),
    "polygon": lambda d: ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    "triangle": lambda d: _TRIANGLE,
    "unsupported": lambda d: Slab(np.ones(d) / math.sqrt(d), 0.5, 0.1),
}


@st.composite
def _osc_cases(draw):
    """Maps onto cells of an m^d grid over the witness's unit box, shrunk,
    grown or shifted (by NaN too) now and then, and in some cases turning
    about the cell centre in d = 2 or reflecting in d = 1 or 3, so the
    witness is accepted or refused for either reason."""
    kind = draw(st.sampled_from(sorted(_OSC_WITNESSES)))
    d = 2 if kind in ("rotated-box", "polygon", "triangle") else draw(st.integers(1, 3))
    m = draw(st.integers(2, 3))
    cells = draw(st.lists(st.integers(0, m**d - 1), min_size=2, max_size=4,
                          unique=draw(st.booleans())))
    turns = kind == "rotated-box" or draw(st.booleans())
    maps = []
    for cell in cells:
        ratio = draw(st.sampled_from([1.0, 1.0, 0.9, 1.1])) / m
        if not turns:
            rot = np.eye(d)
        elif d == 2:
            angle = draw(st.sampled_from([math.pi / 2, math.pi, math.pi / 3, 0.1]))
            rot = np.array([[math.cos(angle), -math.sin(angle)],
                            [math.sin(angle), math.cos(angle)]])
            rot = rot * [1.0, draw(st.sampled_from([1.0, -1.0]))]
        else:
            rot = np.diag([draw(st.sampled_from([1.0, -1.0])) for _ in range(d)])
        centre = (np.array([(cell // m**i) % m for i in range(d)]) + 0.5) / m
        shift = [draw(st.sampled_from([0.0] * 5 + [1e-10, -1e-3, 0.2, math.nan]))
                 for _ in range(d)]
        translation = centre - ratio * rot @ np.full(d, 0.5) + shift
        maps.append(SimilarityMap(ratio, rot, translation))
    return maps, _OSC_WITNESSES[kind](d)


def _osc_outcome(check, maps, witness):
    try:
        check(maps, witness)
    except OpenSetConditionError as e:
        return str(e)
    return "accepted"


@settings(max_examples=400)
@given(_osc_cases())
def test_open_set_check_matches_three_branch_oracle(case):
    maps, witness = case
    assert (_osc_outcome(ifs._check_open_set_condition, maps, witness)
            == _osc_outcome(osc_oracle._check_open_set_condition, maps, witness))


@pytest.mark.parametrize("region, edge, outward", [
    (Box([0.0, 0.0], [1.0, 2.0]),
     [[1.0, 0.5], [0.3, 0.0], [0.0, 2.0]], [[1.0, 0.0], [0.0, -1.0], [-1.0, 1.0]]),
    (Ball([0.5, 0.5], 0.25),
     [[0.75, 0.5], [0.65, 0.7], [0.5, 0.25]], [[1.0, 0.0], [0.6, 0.8], [0.0, -1.0]]),
    (_TRIANGLE,
     [[0.5, 0.0], [0.75, math.sqrt(3.0) / 4.0], [0.25, math.sqrt(3.0) / 4.0]],
     [[0.0, -1.0], [math.sqrt(3.0) / 2.0, 0.5], [-math.sqrt(3.0) / 2.0, 0.5]]),
], ids=["box", "ball", "polygon"])
def test_contains_decides_rows_as_single_points(region, edge, outward):
    # points on the boundary, just inside, and outside by tol / 2 (still in),
    # by 2 tol and by 1e-6 (out); the polygon's edges have unit length, so
    # its cross products are distances
    tol = 1e-9
    steps = np.array([-tol, 0.0, tol / 2, 2 * tol, 1e-6])
    pts = (np.array(edge)[:, None, :]
           + steps[None, :, None] * np.array(outward)[:, None, :]).reshape(-1, 2)
    rows = region.contains(pts, tol)
    single = [region.contains(p, tol) for p in pts]
    assert all(type(v) is bool for v in single)
    assert rows.dtype == bool and rows.tolist() == single
    assert single == [s <= tol for _ in edge for s in steps]


def test_irreducibility_warning_for_collinear_fixed_points():
    maps = [
        SimilarityMap(1 / 3, I2, np.array([0.0, 0.0])),
        SimilarityMap(1 / 3, I2, np.array([2 / 3, 0.0])),
    ]
    with pytest.warns(IrreducibilityWarning):
        IFSystem.create(maps, Box([0.0, 0.0], [1.0, 1.0]))


def test_bundled_systems_have_spanning_fixed_points(gasket, dust, koch):
    import warnings

    for factory in (gasket, dust, koch):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IrreducibilityWarning)
            # re-validating the already-built system must not warn
            IFSystem.create(factory.maps, factory.open_set)


# ---------------------------------------------------------------------------
# the cylinder frontier
# ---------------------------------------------------------------------------

SYSTEMS = {name: ifs.bundled_system(name) for name in BUNDLED_SYSTEMS}


def _compose(sys_, word, x):
    """f_{w_1} o ... o f_{w_m} (x), applied map by map."""
    for i in reversed(word):
        x = sys_.maps[i].apply(x)
    return x


def test_cylinder_word_weight_and_diameter(cantor, koch):
    # children are grouped by the map applied last, so after three full
    # expansions the cylinder f_a f_b f_c is row a + b k + c k^2; both
    # systems contract by 1/3 per map
    for sys_, word in ((cantor, (0, 1, 0)), (koch, (1, 2, 3))):
        cyl = _Frontier(sys_)
        for _ in range(3):
            cyl.expand(np.ones(cyl.scale.size, dtype=bool))
        assert cyl.scale.size == sys_.k**3
        row = word[0] + word[1] * sys_.k + word[2] * sys_.k**2
        assert cyl.scale[row] * sys_.diameter == pytest.approx(sys_.diameter / 27)
        assert cyl.weight[row] == pytest.approx((1 / 27) ** sys_.delta, rel=1e-12)
        x = sample_measure(sys_, 5, seed=2)
        want = np.array([_compose(sys_, word, p) for p in x])
        got = np.array([cyl.image(p)[row] for p in x])
        assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_cylinder_enclosure_contains_cylinder_samples():
    """Every cylinder's enclosure ball holds the cylinder's images of
    measure samples, on all four bundled systems, along a frontier that
    expands a random part of itself at each step (koch tracks rotations)."""
    rng = np.random.default_rng(4)
    for name, sys_ in SYSTEMS.items():
        pts = sample_measure(sys_, 100, seed=5)
        b = sys_.bounding_ball
        cyl = _Frontier(sys_)
        for _ in range(5):
            centers, radii = cyl.image(b.center), cyl.scale * b.radius
            for p in pts:
                dist = np.linalg.norm(cyl.image(p) - centers, axis=1)
                assert np.all(dist <= radii * (1 + 1e-9) + 1e-12), name
            mask = rng.random(cyl.scale.size) < 0.6
            mask[0] = True
            cyl.expand(mask)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(SYSTEMS)), shrink=st.floats(0.0, 1.8))
def test_cylinder_net_is_an_r_net(name, shrink):
    """Every measure sample lies within r of a point of _cylinder_net(sys, r)."""
    sys_ = SYSTEMS[name]
    r = sys_.diameter * 10.0**-shrink
    net = _cylinder_net(sys_, r)
    pts = sample_measure(sys_, 300, seed=11)
    dist = np.linalg.norm(pts[:, None, :] - net[None, :, :], axis=2).min(axis=1)
    assert np.all(dist <= r + 1e-9)


# ---------------------------------------------------------------------------
# measure of balls and slabs
# ---------------------------------------------------------------------------


def test_first_level_cylinder_mass(cantor):
    iv = measure_many(cantor, [[1 / 6]], [1 / 6], [1e-6])[0]
    assert iv.converged and iv.width <= 1e-6
    assert iv.contains(0.5)


def test_total_mass_and_empty_mass(cantor):
    full = measure_many(cantor, [[0.5]], [2.0], [1e-6])[0]
    assert full.hi == 1.0 and full.lo >= 1.0 - 1e-6
    empty = measure_many(cantor, [[5.0]], [0.5], [1e-6])[0]
    assert empty.lo == 0.0 and empty.hi == 0.0


def test_tolerance_floor_rejected(cantor):
    with pytest.raises(ValueError):
        measure_many(cantor, [[0.5]], [0.1], [1e-12])[0]


@pytest.mark.parametrize("fixture_name", ["cantor", "gasket"])
def test_interval_width_contract(fixture_name, request):
    sys_ = request.getfixturevalue(fixture_name)
    rng = np.random.default_rng(17)
    centers = sample_measure(sys_, 50, seed=3)
    for c in centers:
        r = float(rng.uniform(0.02, 0.3)) * sys_.diameter
        iv = measure_many(sys_, [c], [r], [1e-4])[0]
        assert iv.converged
        assert iv.width <= 1e-4


@pytest.mark.parametrize("fixture_name", ["cantor", "gasket"])
def test_first_level_additivity(fixture_name, request):
    # mu(b) = sum_i ratio_i^delta mu(S_i^{-1}(b)): both interval routes must
    # overlap since both contain the true value
    sys_ = request.getfixturevalue(fixture_name)
    rng = np.random.default_rng(23)
    centers = sample_measure(sys_, 50, seed=9)
    w = sys_.weights
    for c in centers:
        r = float(rng.uniform(0.05, 0.4)) * sys_.diameter
        direct = measure_many(sys_, [c], [r], [1e-5])[0]
        lo = hi = 0.0
        for i, m in enumerate(sys_.maps):
            pre_center = ((c - m.translation) @ m.rotation) / m.ratio
            pre = measure_many(sys_, [pre_center], [r / m.ratio], [1e-5])[0]
            lo += w[i] * pre.lo
            hi += w[i] * pre.hi
        assert lo <= direct.hi + 1e-9 and direct.lo <= hi + 1e-9


def _hull_clearance(name, c):
    """Distance from c to the complement of the attractor's convex hull."""
    if name == "cantor":
        return min(c[0], 1.0 - c[0])
    # gasket hull: triangle (0,0), (1,0), (1/2, sqrt3/2); inward distances
    h = math.sqrt(3.0) / 2.0
    e1 = c[1]
    e2 = (h * (1.0 - c[0]) - 0.5 * c[1]) / math.hypot(h, 0.5)
    e3 = (h * c[0] - 0.5 * c[1]) / math.hypot(h, 0.5)
    return min(e1, e2, e3)


@pytest.mark.parametrize("fixture_name", ["cantor", "gasket"])
def test_first_level_scaling(fixture_name, request):
    # mu(S_i(b)) = ratio_i^delta mu(b) requires b inside the hull of K, else
    # S_i(b) can poke into sibling cylinders and pick up extra mass
    sys_ = request.getfixturevalue(fixture_name)
    centers = sample_measure(sys_, 40, seed=11)
    tested = 0
    for c in centers:
        clearance = _hull_clearance(fixture_name, c)
        if clearance <= 1e-3:
            continue
        r = 0.9 * clearance
        base = measure_many(sys_, [c], [r], [1e-5])[0]
        for i, m in enumerate(sys_.maps):
            img = measure_many(sys_, [m.apply(c)], [m.ratio * r], [1e-5])[0]
            w = sys_.weights[i]
            assert w * base.lo <= img.hi + 1e-9
            assert img.lo <= w * base.hi + 1e-9
        tested += 1
    assert tested >= 15


def test_slab_swallows_ball(cantor):
    # B(0.4, 0.2) uncut and cut by |x - 0.4| <= 1
    iv_ball, iv_slab = measure_many(cantor, [[0.4]] * 2, [0.2] * 2, [1e-5] * 2,
                                    ([[0.0], [1.0]], [0.0, 0.4], [math.inf, 1.0]))
    assert abs(iv_slab.mid - iv_ball.mid) <= 2e-5


def test_gap_slab_has_no_mass(cantor):
    # |x - 1/2| <= 1/18 is [4/9, 5/9], inside the gap
    iv = measure_many(cantor, [[0.5]], [1.0], [1e-3], ([[1.0]], [0.5], [1 / 18]))[0]
    assert iv.hi < 0.01


def test_null_slab_through_gap(cantor):
    iv = measure_many(cantor, [[0.5]], [1.0], [1e-3], ([[1.0]], [0.5], [0.0]))[0]
    assert iv.lo == 0.0 and iv.hi <= 1e-3


def test_koch_measure_eval_with_rotations(koch):
    iv = measure_many(koch, [[0.5, 0.1]], [0.2], [1e-3])[0]
    assert iv.converged and iv.width <= 1e-3
    assert iv.hi > 0.0


# ---------------------------------------------------------------------------
# the batched mass oracle
# ---------------------------------------------------------------------------


def _chain_system() -> IFSystem:
    """1-D system whose map-0 cylinders [0, 0.9^n] keep weight 0.916^n, so
    a ball edge just right of 0 straddles one of them at every depth."""
    maps = [SimilarityMap(0.9, I1, np.array([0.0])),
            SimilarityMap(0.05, I1, np.array([0.95]))]
    return IFSystem.create(maps, Box([0.0], [1.0]))


ORACLE_SYSTEMS = dict(SYSTEMS, chain=_chain_system())
CENTRES = {name: sample_measure(sys_, 64, seed=31)
           for name, sys_ in ORACLE_SYSTEMS.items()}

# (placement, centre index, log10 centre shift / diameter, log10 radius /
# diameter, slab or None, tolerance exponent); a slab is (angle, offset
# shift / radius, log10 epsilon / radius)
_QUERY = st.tuples(
    st.sampled_from(["near", "near", "near", "miss", "swallow"]),
    st.integers(0, 63),
    st.floats(-8.0, -1.0),
    st.floats(-3.0, 0.0),
    st.one_of(st.none(), st.tuples(st.floats(0.0, 2 * math.pi), st.floats(-1.0, 1.0),
                                   st.floats(-4.0, 0.0))),
    st.floats(0.0, 1.0),
)


def _make_query(name, placement, idx, shift, log_r, slab, tol_u):
    """A query and its tolerance.  The 1-D systems resolve any tolerance
    cheaply, down to the 1e-9 floor; on the 2-D ones a ball edge crosses
    about 2^depth cylinders, so their tolerances stop at 1e-5."""
    sys_ = ORACLE_SYSTEMS[name]
    diam = sys_.diameter
    direction = np.ones(sys_.dim) / math.sqrt(sys_.dim)
    c = CENTRES[name][idx] + direction * diam * 10.0**shift
    r = diam * 10.0**log_r
    if placement == "miss":
        c = c + 10.0 * diam * direction
    elif placement == "swallow":
        r = 3.0 * diam
    ball = Ball(c, r)
    lowest = -9.0 if sys_.dim == 1 else -5.0
    tol = 10.0 ** (lowest + (-1.0 - lowest) * tol_u) if tol_u > 0.1 else 10.0**lowest
    if slab is None:
        return ball, tol
    angle, offset_shift, log_eps = slab
    normal = (np.array([math.copysign(1.0, math.cos(angle))]) if sys_.dim == 1
              else np.array([math.cos(angle), math.sin(angle)]))
    return (ball, Slab(normal, float(normal @ c) + offset_shift * r, r * 10.0**log_eps)), tol


def _measure(sys_, queries, tols, uncut_as_none=False):
    """measure_many on the arrays of a list of oracle queries; a batch of
    plain balls passes no slabs at all when uncut_as_none."""
    centers, radii, slabs = mass_oracle.as_arrays(queries, sys_.dim)
    if uncut_as_none and all(isinstance(q, Ball) for q in queries):
        slabs = None
    return measure_many(sys_, centers, radii, tols, slabs)


# short batches, and long ones that cross many chunk seams under a small
# frontier budget
_BATCH = st.one_of(st.lists(_QUERY, min_size=1, max_size=8),
                   st.lists(_QUERY, min_size=33, max_size=40))


class _BudgetSpy:
    """Wraps ifs._Frontier and ifs._measure_chunk: records each chunk's
    query count and checks, after every expansion, that a frontier above
    the budget holds one query alone (rows are grouped by query)."""

    def __init__(self, mp):
        self.chunks = []
        real_frontier, real_chunk = ifs._Frontier, ifs._measure_chunk

        class Frontier(real_frontier):
            def expand(frontier, mask):
                super().expand(mask)
                q = frontier.query
                assert q.size <= ifs._FRONTIER_ROWS or q[0] == q[-1]

        def chunk(sys_, centers, radii, tols, slabs):
            self.chunks.append(radii.size)
            return real_chunk(sys_, centers, radii, tols, slabs)

        mp.setattr(ifs, "_Frontier", Frontier)
        mp.setattr(ifs, "_measure_chunk", chunk)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(ORACLE_SYSTEMS)), raw=_BATCH,
       rows=st.sampled_from([1, 40, ifs._FRONTIER_ROWS]), uncut_as_none=st.booleans())
# the rotation frontier across seams, which the drawn examples rarely reach
@example(name="koch", raw=[("near", i, -3.0, -1.5, None if i % 3 else (0.4 * i, 0.2, -1.0),
                            0.5) for i in range(36)], rows=1, uncut_as_none=False)
def test_measure_many_matches_single_query_oracle(name, raw, rows, uncut_as_none):
    """Every interval of a mixed batch, each query with its own tolerance,
    has the lo, hi, converged and depth of the single-query oracle, under a
    frontier budget of 1 row, 40 rows and the default.  A plain ball is an
    uncut row (half-width inf), or, in a batch of plain balls, a row of a
    call with no slabs.  No frontier goes past the budget unless it holds
    one query alone.  The first chunk takes every query; under the one-row
    budget each one that reaches an expansion beside another is left for a
    later chunk of its own."""
    sys_ = ORACLE_SYSTEMS[name]
    made = [_make_query(name, *q) for q in raw]
    queries, tols = [q for q, _ in made], [t for _, t in made]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ifs, "_FRONTIER_ROWS", rows)
        spy = _BudgetSpy(mp)
        got = _measure(sys_, queries, tols, uncut_as_none)
    assert got == [mass_oracle.measure(sys_, q, t) for q, t in made]
    assert spy.chunks[0] == len(raw)
    if rows == 1:
        assert all(size == 1 for size in spy.chunks[1:])


def test_measure_many_edge_cases_match_oracle(cantor, koch):
    """Balls that miss K, swallow K, sit at the 1e-9 floor, freeze mass or
    reach MAX_SUBDIVISION_DEPTH, batched together."""
    chain = ORACLE_SYSTEMS["chain"]
    deep = Ball([-0.5], 0.5 + 1e-12)
    cases = [
        (chain, [deep, Ball([0.5], 2.0), Ball([3.0], 0.5),
                 (Ball([0.5], 1.0), Slab(np.array([1.0]), 0.0, 1e-12))],
         [1e-3, 1e-9, 1e-9, 1e-3]),
        # the edge 1/4 is a point of K: straddlers there are frozen
        (cantor, [Ball([0.0], 0.25), Ball([0.5], 2.0), Ball([5.0], 0.5),
                  Ball([1 / 6], 1 / 6), Ball([0.25], 1e-6)],
         [1e-9, 1e-9, 1e-9, 1e-9, 1e-6]),
        (koch, [Ball([0.5, 0.1], 0.2), Ball([0.5, 0.0], 5.0), Ball([9.0, 9.0], 1.0),
                (Ball([0.5, 0.1], 0.2), Slab(np.array([0.6, 0.8]), 0.3, 0.01))],
         [1e-5, 1e-9, 1e-9, 1e-4]),
    ]
    for sys_, queries, tols in cases:
        got = _measure(sys_, queries, tols)
        assert got == [mass_oracle.measure(sys_, q, t) for q, t in zip(queries, tols)]
    first = _measure(chain, [deep], [1e-3])[0]
    assert not first.converged and first.depth == MAX_SUBDIVISION_DEPTH
    assert measure_many(cantor, np.zeros((0, 1)), [], []) == []


def test_measure_many_rejects_low_tolerance_before_work(monkeypatch, cantor):
    def no_work(*args, **kwargs):
        raise AssertionError("a frontier was built")

    monkeypatch.setattr(ifs, "_Frontier", no_work)
    with pytest.raises(ValueError) as want:
        mass_oracle.measure_of_ball(cantor, Ball([0.5], 0.1), 1e-12)
    for tols in ([1e-12], [1e-3, 1e-12], [1e-12, 1e-3, 1e-3]):
        with pytest.raises(ValueError) as err:
            measure_many(cantor, [[0.5]] * len(tols), [0.1] * len(tols), tols)
        assert str(err.value) == str(want.value)


def test_measure_many_refuses_nan_tolerance(monkeypatch, cantor, gasket):
    # NaN passes no comparison with the floor; unrefused, it never converges
    # and the frontier grows until memory runs out
    def no_work(*args, **kwargs):
        raise AssertionError("a frontier was built")

    monkeypatch.setattr(ifs, "_Frontier", no_work)
    for sys_, centre, radius in ((gasket, [0.5, 0.3], 0.2), (cantor, [0.5], 0.1)):
        for tols in ([math.nan], [1e-3, math.nan]):
            with pytest.raises(ValueError) as err:
                measure_many(sys_, [centre] * len(tols), [radius] * len(tols), tols)
            assert str(err.value) == "tolerance below the float certification floor 1e-9"


# (centres, radii, tols, slabs) of one ball of gasket, each with one value
# spoiled, and the word the refusal names
_BAD_QUERIES = {
    "radius-0": ([[0.5, 0.3]], [0.0], [1e-3], None, "radius"),
    "radius-negative": ([[0.5, 0.3]], [-1.0], [1e-3], None, "radius"),
    "radius-NaN": ([[0.5, 0.3]], [math.nan], [1e-3], None, "radius"),
    "centre-NaN": ([[0.5, math.nan]], [0.2], [1e-3], None, "centre"),
    "centre-shape": ([[0.5]], [0.2], [1e-3], None, "shapes"),
    "radii-shape": ([[0.5, 0.3]], [[0.2]], [1e-3], None, "shapes"),
    "tols-shape": ([[0.5, 0.3]], [0.2], [1e-3, 1e-3], None, "shapes"),
    "tol-low": ([[0.5, 0.3]], [0.2], [1e-10], None, "tolerance"),
    "normal-long": ([[0.5, 0.3]], [0.2], [1e-3], ([[0.6, 0.8 + 1e-11]], [0.3], [0.1]),
                    "unit"),
    "normal-zero": ([[0.5, 0.3]], [0.2], [1e-3], ([[0.0, 0.0]], [0.3], [0.1]), "unit"),
    "normal-NaN": ([[0.5, 0.3]], [0.2], [1e-3], ([[math.nan, 1.0]], [0.3], [0.1]), "unit"),
    "offset-NaN": ([[0.5, 0.3]], [0.2], [1e-3], ([[0.6, 0.8]], [math.nan], [0.1]), "offset"),
    "width-negative": ([[0.5, 0.3]], [0.2], [1e-3], ([[0.6, 0.8]], [0.3], [-1.0]), "half-width"),
    "width-NaN": ([[0.5, 0.3]], [0.2], [1e-3], ([[0.6, 0.8]], [0.3], [math.nan]),
                  "half-width"),
    "normals-shape": ([[0.5, 0.3]], [0.2], [1e-3], ([[1.0]], [0.3], [0.1]), "shapes"),
    "widths-shape": ([[0.5, 0.3]], [0.2], [1e-3], ([[0.6, 0.8]], [0.3], [0.1, 0.1]),
                     "shapes"),
}


@pytest.mark.parametrize("case", sorted(_BAD_QUERIES))
def test_measure_many_refuses_bad_queries(monkeypatch, gasket, case):
    # each refusal is one ValueError naming the bad value, raised before any
    # frontier is built; without the radius and half-width checks a NaN
    # never converges, and a unit normal is what makes a slab's distances
    # true distances
    def no_work(*args, **kwargs):
        raise AssertionError("a frontier was built")

    monkeypatch.setattr(ifs, "_Frontier", no_work)
    *query, word = _BAD_QUERIES[case]
    with pytest.raises(ValueError, match=word):
        measure_many(gasket, *query)


def test_measure_many_uncut_rows_may_carry_any_plane(monkeypatch, cantor):
    # an uncut row's normal and offset go unused: a zero, long or NaN normal
    # and a NaN offset give the bits of the plain ball.  A NaN that reached
    # the projections would decide no cylinder, and the frontier would
    # double at every depth: the guard fails such a run before it does
    class Guarded(ifs._Frontier):
        def expand(self, mask):
            super().expand(mask)
            assert self.query.size <= 1000, "the frontier kept growing"

    monkeypatch.setattr(ifs, "_Frontier", Guarded)
    want = measure_many(cantor, [[0.3]] * 4, [0.2] * 4, [1e-6] * 4)
    got = measure_many(cantor, [[0.3]] * 4, [0.2] * 4, [1e-6] * 4,
                       ([[0.0], [5.0], [math.nan], [1.0]], [0.0, 1.0, 0.0, math.nan],
                        [math.inf] * 4))
    assert got == want


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2]), raw=st.lists(_QUERY, min_size=1, max_size=6),
       data=st.data())
def test_inf_width_rows_give_the_plain_ball_bits(d, raw, data):
    """A query with half-width inf gets the bits of its ball alone: the
    single-query oracle's, and those of the same ball in a call with no
    slabs, whether its batch holds cut rows or not."""
    name = data.draw(st.sampled_from(sorted(n for n, s in ORACLE_SYSTEMS.items()
                                            if s.dim == d)))
    sys_ = ORACLE_SYSTEMS[name]
    made = [_make_query(name, *q) for q in raw]
    balls = [q if isinstance(q, Ball) else q[0] for q, _ in made]
    tols = [t for _, t in made]
    centers, radii, slabs = mass_oracle.as_arrays(balls, d)
    plain = [mass_oracle.measure_of_ball(sys_, b, t) for b, t in zip(balls, tols)]
    assert measure_many(sys_, centers, radii, tols) == plain
    assert measure_many(sys_, centers, radii, tols, slabs) == plain
    # the same rows among the cut queries of the batch
    mixed = [q for q, _ in made] + balls
    got = _measure(sys_, mixed, tols + tols)
    assert got[len(made):] == plain


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(0, 30), seed=st.integers(0, 2**32 - 1),
       zeros=st.floats(0.0, 0.8))
def test_compose_matches_einsum(d, n, seed, zeros):
    # signed zeros in both factors: einsum sums from +0.0, so a sum of
    # -0.0 products is +0.0, and _compose must give the same bits
    rng = np.random.default_rng(seed)
    rot, r = rng.normal(size=(n, d, d)), rng.normal(size=(d, d))
    for a in (rot, r):
        a[rng.random(a.shape) < zeros] = 0.0
        a *= np.where(rng.random(a.shape) < 0.5, -1.0, 1.0)
    want = np.einsum("nij,jk->nik", rot, r)
    assert ifs._compose(rot, r).tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 10), n=st.integers(0, 300), seed=st.integers(0, 2**32 - 1),
       spread=st.sampled_from([1, 100]))
def test_row_helpers_match_numpy(d, n, seed, spread):
    # the frontier's column-by-column forms of a broadcast product and of
    # np.linalg.norm along rows; d >= 8 takes norm's own pairwise order,
    # which terms of one scale tell apart from left to right
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-spread, spread, (n, d))
    scale = rng.random(n) * 10.0 ** rng.integers(-spread, spread, n)
    t = rng.normal(size=d)
    assert ifs._row_norms(v).tobytes() == np.linalg.norm(v, axis=1).tobytes()
    assert ifs._scaled(scale, v).tobytes() == (scale[:, None] * v).tobytes()
    assert ifs._scaled(scale, t).tobytes() == (scale[:, None] * t).tobytes()


_SEGMENT = st.one_of(st.integers(0, 9), st.integers(127, 129), st.integers(0, 2000))


@settings(max_examples=80, deadline=None)
@given(lengths=st.lists(_SEGMENT, min_size=1, max_size=10), seed=st.integers(0, 2**32 - 1))
def test_segment_sums_match_masked_sums(lengths, seed):
    rng = np.random.default_rng(seed)
    segment = np.repeat(np.arange(len(lengths)), lengths)
    values = rng.random(segment.size) * 10.0 ** rng.integers(-12, 1, segment.size)
    sums, counts = _segment_sums(values, segment, len(lengths) + 1)
    assert sums.dtype == np.float64  # also when every segment is empty
    for j, n in enumerate(lengths):
        mask = segment == j
        assert counts[j] == n
        assert sums[j] == values[mask].sum()
    assert sums[-1] == 0.0 and counts[-1] == 0


# properties of the intervals, through measure_many on the bundled systems

_BALL = st.tuples(st.integers(0, 63), st.floats(-2.5, 0.0), st.floats(-6.0, -1.0))


def _ball(name, idx, log_r, shift):
    sys_ = SYSTEMS[name]
    c = CENTRES[name][idx] + sys_.diameter * 10.0**shift
    return Ball(c, sys_.diameter * 10.0**log_r)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(SYSTEMS)), raw=st.lists(_BALL, min_size=1, max_size=6),
       grow=st.floats(0.0, 1.0), tol_exp=st.floats(-5.0, -2.0))
def test_measure_many_intervals_are_ordered_and_nested(name, raw, grow, tol_exp):
    """0 <= lo <= hi <= 1, width <= tol when converged, and a ball B inside
    B' never gets a lower bound above the upper bound of B'."""
    sys_ = SYSTEMS[name]
    tol = 10.0**tol_exp
    inner = [_ball(name, *b) for b in raw]
    # B' = B(c', r') with |c - c'| + r <= r'
    outer = [Ball(b.center + 0.5 * grow * b.radius, b.radius * (1.0 + grow))
             for b in inner]
    got = _measure(sys_, inner + outer, [tol] * (2 * len(inner)))
    for iv in got:
        assert 0.0 <= iv.lo <= iv.hi <= 1.0
        if iv.converged:
            assert iv.width <= tol
    for small, big in zip(got[:len(inner)], got[len(inner):]):
        assert small.lo <= big.hi


def _preimage(m, query):
    """f^{-1}(query) for the similarity f = m: a ball, or a (ball, slab)."""
    ball = query if isinstance(query, Ball) else query[0]
    pre = Ball(((ball.center - m.translation) @ m.rotation) / m.ratio,
               ball.radius / m.ratio)
    if isinstance(query, Ball):
        return pre
    normal, offset, eps = query[1]
    return pre, Slab(normal @ m.rotation,
                     (offset - float(normal @ m.translation)) / m.ratio, eps / m.ratio)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(SYSTEMS)), ball=_BALL,
       slab=st.one_of(st.none(), st.tuples(st.floats(0.0, 2 * math.pi),
                                           st.floats(-1.0, 1.0), st.floats(-2.0, 0.0))))
def test_measure_many_is_self_similar(name, ball, slab):
    """mu(A) = sum_i w_i mu(f_i^{-1} A): the interval for mu(A) meets the
    weighted sum of the intervals for the preimages, for balls and slabs."""
    sys_ = SYSTEMS[name]
    b = _ball(name, *ball)
    query = b
    if slab is not None:
        angle, offset_shift, log_eps = slab
        normal = (np.array([math.copysign(1.0, math.cos(angle))]) if sys_.dim == 1
                  else np.array([math.cos(angle), math.sin(angle)]))
        query = (b, Slab(normal, float(normal @ b.center) + offset_shift * b.radius,
                         b.radius * 10.0**log_eps))
    tol = 1e-4
    direct, *pre = _measure(sys_, [query] + [_preimage(m, query) for m in sys_.maps],
                            [tol] * (1 + sys_.k))
    lo = sum(w * iv.lo for w, iv in zip(sys_.weights, pre))
    hi = sum(w * iv.hi for w, iv in zip(sys_.weights, pre))
    assert lo <= direct.hi + 1e-12 and direct.lo <= hi + 1e-12


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_deterministic(cantor):
    a = sample_measure(cantor, 1000, seed=77)
    b = sample_measure(cantor, 1000, seed=77)
    assert np.array_equal(a, b)
    c = sample_measure(cantor, 1000, seed=78)
    assert not np.array_equal(a, c)


def test_sample_avoids_middle_third_digits(cantor):
    # oracle: redraw the digit words with the same generator settings and
    # rebuild each point exactly; its base-3 expansion uses only digits 0, 2
    from fractions import Fraction

    pts = sample_measure(cantor, 64, seed=1)
    rng = np.random.default_rng(1)
    w = cantor.weights
    digits = rng.choice(2, size=(64, 40), p=w / w.sum())
    for x, word in zip(pts[:, 0], digits):
        exact = sum(Fraction(2 * int(d), 3 ** (j + 1)) for j, d in enumerate(word))
        assert abs(x - float(exact)) < 1e-12


def test_sample_mean_and_cylinder_mass(cantor):
    pts = sample_measure(cantor, 100_000, seed=13)[:, 0]
    assert abs(pts.mean() - 0.5) < 0.01
    emp = float((pts <= 1 / 3).mean())
    oracle = measure_many(cantor, [[1 / 6]], [1 / 6], [1e-6])[0]
    assert abs(emp - oracle.mid) < 0.01


def test_sampling_consistency_with_intervals(cantor):
    rng = np.random.default_rng(31)
    pool = sample_measure(cantor, 100_000, seed=19)[:, 0]
    centers = sample_measure(cantor, 20, seed=37)[:, 0]
    for c in centers:
        r = float(rng.uniform(0.01, 0.3))
        iv = measure_many(cantor, [[c]], [r], [1e-4])[0]
        emp = float((np.abs(pool - c) <= r).mean())
        sigma = math.sqrt(max(iv.mid * (1 - iv.mid), 1e-12) / pool.size)
        widened = iv.widen(3 * sigma)
        assert widened.lo <= emp <= widened.hi


def test_sample_count_validation(cantor):
    with pytest.raises(ValueError):
        sample_measure(cantor, 0, seed=1)


def test_sample_digit_cap_refuses_before_drawing(cantor, monkeypatch):
    def no_rng(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(ifs.np.random, "default_rng", no_rng)
    over = ifs._SAMPLE_DIGIT_CAP // ifs.SAMPLE_DEPTH + 1
    with pytest.raises(ValueError, match="refused"):
        sample_measure(cantor, over, seed=1)
    with pytest.raises(ValueError, match="refused"):
        sample_measure(cantor, 2, seed=1, depth=ifs._SAMPLE_DIGIT_CAP)


def _stand_in_system(weights, d, rotate, rng):
    """What the sampler reads of a system, for any weights and maps: the
    maps need not satisfy the open set condition."""
    k = len(weights)
    if rotate:
        rots = np.array([np.linalg.qr(rng.normal(size=(d, d)))[0] for _ in range(k)])
    else:
        rots = np.broadcast_to(np.eye(d), (k, d, d))
    return SimpleNamespace(
        k=k, dim=d, weights=np.array(weights, dtype=float),
        ratios=rng.uniform(0.05, 0.95, size=k), translations=rng.normal(size=(k, d)),
        rotations=rots, has_rotations=rotate, anchor=rng.normal(size=d))


@settings(max_examples=150)
@given(weights=st.lists(st.one_of(st.integers(0, 3).map(float),
                                  st.floats(0.01, 1.0)),
                        min_size=1, max_size=6).filter(any),
       count=st.integers(0, 3000), depth=st.integers(0, 40),
       d=st.integers(1, 3), rotate=st.booleans(),
       chunk=st.sampled_from([1, 5, 97, 40 * 1000 + 3, ifs._DRAW_CHUNK]),
       seed=st.integers(0, 2**32 - 1))
def test_sampler_matches_oracle(weights, count, depth, d, rotate, chunk, seed):
    # integer weights give tied and zero-width digit intervals; every chunk
    # size but the default puts a seam inside most (count, depth) draws
    sys_ = _stand_in_system(weights, d, rotate, np.random.default_rng(seed))
    fast_rng = np.random.default_rng(seed)
    slow_rng = np.random.default_rng(seed)
    with mock.patch.object(ifs, "_DRAW_CHUNK", chunk):
        digits = ifs._draw_digits(sys_, count, fast_rng, depth)
    want = sample_oracle._draw_digits(sys_, count, slow_rng, depth)
    assert digits.shape == want.shape and np.array_equal(digits, want)
    assert digits.dtype == np.min_scalar_type(len(weights) - 1)
    # the diagnostics trials keep drawing from the same rng after the digits
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
    pts = ifs._fold_digits(sys_, digits)
    ref = sample_oracle._fold_digits(sys_, want)
    assert pts.shape == ref.shape == (count, d)
    assert pts.flags.c_contiguous and pts.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", sorted(BUNDLED_SYSTEMS))
def test_sample_measure_matches_oracle_on_bundled_systems(name):
    sys_ = ifs.bundled_system(name)
    rng = np.random.default_rng(np.random.SeedSequence([4, 1]))
    ref = sample_oracle._fold_digits(sys_, sample_oracle._draw_digits(sys_, 5000, rng))
    pts = sample_measure(sys_, 5000, np.random.SeedSequence([4, 1]))
    assert pts.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# definition files
# ---------------------------------------------------------------------------


def _write_payload(path, name):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(BUNDLED_SYSTEMS[name], fh)


def test_dump_load_roundtrip(tmp_path, gasket):
    path = tmp_path / "gasket.json"
    _write_payload(path, "gasket")
    loaded = load_system(path)
    assert loaded.dim == 2 and loaded.k == 3
    assert abs(loaded.delta - gasket.delta) < 1e-12
    for a, b in zip(loaded.maps, gasket.maps):
        assert a.ratio == b.ratio
        assert np.array_equal(a.translation, b.translation)


def _system_arrays(sys_):
    witness = sys_.open_set
    return [sys_.ratios, sys_.translations, sys_.rotations, sys_.anchor, sys_.weights,
            sys_.bounding_ball.center, np.array([sys_.bounding_ball.radius, sys_.delta]),
            *(getattr(witness, a) for a in ("lo", "hi", "vertices") if hasattr(witness, a))]


@pytest.mark.parametrize("name", sorted(BUNDLED_SYSTEMS))
def test_bundled_system_is_its_definition_payload(tmp_path, name):
    # the file of a bundled system is its payload, and loading that file
    # gives the bundled system's bits
    sys_ = ifs.bundled_system(name)
    path = tmp_path / f"{name}.json"
    _write_payload(path, name)
    loaded = load_system(path)
    assert type(loaded.open_set) is type(sys_.open_set)
    for got, want in zip(_system_arrays(loaded), _system_arrays(sys_), strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_readme_definition_file_example_is_the_cantor_payload():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("is the payload of `cantor`:", 1)[1]
    example = example.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(example) == BUNDLED_SYSTEMS["cantor"]


def test_unknown_bundled_name_lists_the_names():
    with pytest.raises(ValueError) as err:
        ifs.bundled_system("fern")
    assert str(err.value) == ("unknown bundled system 'fern'; "
                              "choose from ['cantor', 'dust', 'gasket', 'koch']")


def test_load_decimal_literals(tmp_path):
    text = {
        "dimension": 1,
        "maps": [
            {"ratio": 0.3333333333333333, "rotation": [1.0], "translation": [0.0]},
            {"ratio": 0.3333333333333333, "rotation": [1.0],
             "translation": [0.6666666666666666]},
        ],
        "open_set": {"type": "box", "min": [0.0], "max": [1.0]},
    }
    path = tmp_path / "cantor.json"
    path.write_text(json.dumps(text))
    sys_ = load_system(path)
    assert abs(sys_.delta - math.log(2) / math.log(3)) < 1e-10


def test_load_rejects_broken_witness(tmp_path):
    text = {
        "dimension": 1,
        "maps": [
            {"ratio": 0.4, "rotation": [1.0], "translation": [0.0]},
            {"ratio": 0.4, "rotation": [1.0], "translation": [0.3]},
        ],
        "open_set": {"type": "box", "min": [0.0], "max": [1.0]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(text))
    with pytest.raises(OpenSetConditionError):
        load_system(path)
