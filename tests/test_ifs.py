import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracapprox.analysis import _cylinder_net
from fracapprox.geometry import Ball, Box, Hyperplane, Slab
from fracapprox.ifs import (
    BUNDLED_SYSTEMS,
    ConvexPolygon,
    IFSystem,
    IrreducibilityWarning,
    OpenSetConditionError,
    SimilarityMap,
    dump_system,
    load_system,
    measure_of_ball,
    measure_of_slab_in_ball,
    sample_measure,
    similarity_dimension,
    _Frontier,
)

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
    from fracapprox.ifs import koch_curve

    maps = koch_curve().maps
    with pytest.raises(OpenSetConditionError):
        IFSystem.create(maps, Box([0.0, 0.0], [1.0, 0.3]))


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

SYSTEMS = {name: factory() for name, factory in BUNDLED_SYSTEMS.items()}


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
    iv = measure_of_ball(cantor, Ball([1 / 6], 1 / 6), 1e-6)
    assert iv.converged and iv.width <= 1e-6
    assert iv.contains(0.5)


def test_total_mass_and_empty_mass(cantor):
    full = measure_of_ball(cantor, Ball([0.5], 2.0), 1e-6)
    assert full.hi == 1.0 and full.lo >= 1.0 - 1e-6
    empty = measure_of_ball(cantor, Ball([5.0], 0.5), 1e-6)
    assert empty.lo == 0.0 and empty.hi == 0.0


def test_tolerance_floor_rejected(cantor):
    with pytest.raises(ValueError):
        measure_of_ball(cantor, Ball([0.5], 0.1), 1e-12)


@pytest.mark.parametrize("fixture_name", ["cantor", "gasket"])
def test_interval_width_contract(fixture_name, request):
    sys_ = request.getfixturevalue(fixture_name)
    rng = np.random.default_rng(17)
    centers = sample_measure(sys_, 50, seed=3)
    for c in centers:
        r = float(rng.uniform(0.02, 0.3)) * sys_.diameter
        iv = measure_of_ball(sys_, Ball(c, r), 1e-4)
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
        direct = measure_of_ball(sys_, Ball(c, r), 1e-5)
        lo = hi = 0.0
        for i, m in enumerate(sys_.maps):
            pre_center = ((c - m.translation) @ m.rotation) / m.ratio
            pre = measure_of_ball(sys_, Ball(pre_center, r / m.ratio), 1e-5)
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
        base = measure_of_ball(sys_, Ball(c, r), 1e-5)
        for i, m in enumerate(sys_.maps):
            img = measure_of_ball(
                sys_, Ball(m.apply(c), m.ratio * r), 1e-5
            )
            w = sys_.weights[i]
            assert w * base.lo <= img.hi + 1e-9
            assert img.lo <= w * base.hi + 1e-9
        tested += 1
    assert tested >= 15


def test_slab_swallows_ball(cantor):
    b = Ball([0.4], 0.2)
    plane = Hyperplane([1.0], 0.4)
    wide = Slab(plane, 1.0)
    iv_ball = measure_of_ball(cantor, b, 1e-5)
    iv_slab = measure_of_slab_in_ball(cantor, b, wide, 1e-5)
    assert abs(iv_slab.mid - iv_ball.mid) <= 2e-5


def test_gap_slab_has_no_mass(cantor):
    slab = Slab(Hyperplane([1.0], 0.5), 1 / 18)  # [4/9, 5/9], inside the gap
    iv = measure_of_slab_in_ball(cantor, Ball([0.5], 1.0), slab, 1e-3)
    assert iv.hi < 0.01


def test_null_slab_through_gap(cantor):
    slab = Slab(Hyperplane([1.0], 0.5), 0.0)
    iv = measure_of_slab_in_ball(cantor, Ball([0.5], 1.0), slab, 1e-3)
    assert iv.lo == 0.0 and iv.hi <= 1e-3


def test_koch_measure_eval_with_rotations(koch):
    iv = measure_of_ball(koch, Ball([0.5, 0.1], 0.2), 1e-3)
    assert iv.converged and iv.width <= 1e-3
    assert iv.hi > 0.0


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
    oracle = measure_of_ball(cantor, Ball([1 / 6], 1 / 6), 1e-6)
    assert abs(emp - oracle.mid) < 0.01


def test_sampling_consistency_with_intervals(cantor):
    rng = np.random.default_rng(31)
    pool = sample_measure(cantor, 100_000, seed=19)[:, 0]
    centers = sample_measure(cantor, 20, seed=37)[:, 0]
    for c in centers:
        r = float(rng.uniform(0.01, 0.3))
        iv = measure_of_ball(cantor, Ball([c], r), 1e-4)
        emp = float((np.abs(pool - c) <= r).mean())
        sigma = math.sqrt(max(iv.mid * (1 - iv.mid), 1e-12) / pool.size)
        widened = iv.widen(3 * sigma)
        assert widened.lo <= emp <= widened.hi


def test_sample_count_validation(cantor):
    with pytest.raises(ValueError):
        sample_measure(cantor, 0, seed=1)


def test_sample_digit_cap_refuses_before_drawing(cantor, monkeypatch):
    from fracapprox import ifs

    def no_rng(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(ifs.np.random, "default_rng", no_rng)
    over = ifs._SAMPLE_DIGIT_CAP // ifs.SAMPLE_DEPTH + 1
    with pytest.raises(ValueError, match="refused"):
        sample_measure(cantor, over, seed=1)
    with pytest.raises(ValueError, match="refused"):
        sample_measure(cantor, 2, seed=1, depth=ifs._SAMPLE_DIGIT_CAP)


# ---------------------------------------------------------------------------
# definition files
# ---------------------------------------------------------------------------


def test_dump_load_roundtrip(tmp_path, gasket):
    path = tmp_path / "gasket.json"
    dump_system(gasket, path)
    loaded = load_system(path)
    assert loaded.dim == 2 and loaded.k == 3
    assert abs(loaded.delta - gasket.delta) < 1e-12
    for a, b in zip(loaded.maps, gasket.maps):
        assert a.ratio == b.ratio
        assert np.array_equal(a.translation, b.translation)


def test_dump_writes_row_major_rotation(tmp_path, koch):
    path = tmp_path / "koch.json"
    dump_system(koch, path)
    payload = json.loads(path.read_text())
    rot = payload["maps"][1]["rotation"]
    assert rot == [float(x) for x in koch.maps[1].rotation.reshape(-1)]
    assert load_system(path).has_rotations


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
