"""Self-similar iterated function systems with an open-set-condition witness,
their attractors, and the natural measure (normalized restriction of the
delta-dimensional Hausdorff measure).

Ball and slab masses are evaluated by recursive cylinder subdivision with a
certified enclosure per cylinder, so every evaluation returns an interval
guaranteed to contain the true mass.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .geometry import Ball, Box, Slab, _each

__all__ = [
    "SimilarityMap",
    "IFSystem",
    "ConvexPolygon",
    "MassInterval",
    "OpenSetConditionError",
    "IrreducibilityWarning",
    "similarity_dimension",
    "measure_many",
    "measure_of_ball",
    "measure_of_slab_in_ball",
    "sample_measure",
    "cantor_middle_thirds",
    "sierpinski_gasket",
    "four_corner_dust",
    "koch_curve",
    "bundled_system",
    "load_system",
    "dump_system",
    "BUNDLED_SYSTEMS",
]

_ORTHO_TOL = 1e-12
MAX_SUBDIVISION_DEPTH = 64
# Smallest tolerance measure_many certifies a mass to in float64.
_TOL_FLOOR = 1e-9


class OpenSetConditionError(ValueError):
    """The supplied open-set witness fails the OSC check."""


class IrreducibilityWarning(UserWarning):
    """Fixed points of the maps do not affinely span R^d.

    The affine-span test is only a sufficient condition for the system to
    avoid invariant families of proper affine subspaces; failing it does not
    prove reducibility, hence a warning rather than an error.
    """


@dataclass(frozen=True)
class SimilarityMap:
    """x -> ratio * rotation @ x + translation with ratio in (0,1)."""

    ratio: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float)
        tr = np.asarray(self.translation, dtype=float)
        if tr.ndim != 1:
            raise ValueError("translation must be a vector")
        d = tr.shape[0]
        if rot.shape != (d, d):
            raise ValueError(f"rotation must be {d}x{d}, got {rot.shape}")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError(f"contraction ratio must lie in (0,1), got {self.ratio}")
        if np.max(np.abs(rot @ rot.T - np.eye(d))) > _ORTHO_TOL:
            raise ValueError("rotation matrix is not orthogonal within 1e-12")
        rot.flags.writeable = False
        tr.flags.writeable = False
        object.__setattr__(self, "ratio", float(self.ratio))
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)

    @property
    def dim(self) -> int:
        return self.translation.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.ratio * (x @ self.rotation.T) + self.translation

    def fixed_point(self) -> np.ndarray:
        d = self.dim
        return np.linalg.solve(np.eye(d) - self.ratio * self.rotation, self.translation)

    def is_identity_rotation(self) -> bool:
        return bool(np.max(np.abs(self.rotation - np.eye(self.dim))) < 1e-14)


@dataclass(frozen=True)
class ConvexPolygon:
    """Closed convex polygon in R^2, vertices stored counterclockwise.

    Exists as an OSC witness shape: the von Koch curve admits no axis-aligned
    box or ball witness, but the classical triangle works.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs at least 3 vertices in R^2")
        area2 = _signed_area2(v)
        if area2 < 0:
            v = v[::-1].copy()
            area2 = -area2
        if area2 <= 0:
            raise ValueError("polygon is degenerate")
        edges = np.roll(v, -1, axis=0) - v
        cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - edges[:, 1] * np.roll(
            edges, -1, axis=0
        )[:, 0]
        if np.any(cross < -1e-12 * np.max(np.abs(v))):
            raise ValueError("polygon is not convex")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return 2

    def contains(self, x, tol: float = 0.0):
        x = np.asarray(x, dtype=float)
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        w = x[..., None, :] - v
        cross = e[:, 0] * w[..., 1] - e[:, 1] * w[..., 0]
        return _each(x, np.all(cross >= -tol, axis=-1))

    def bounding_ball(self) -> Ball:
        c = self.vertices.mean(axis=0)
        r = float(np.max(np.linalg.norm(self.vertices - c, axis=1)))
        return Ball(c, r)


def _signed_area2(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def similarity_dimension(maps: list, ambient_dim: int | None = None) -> float:
    """Unique root of sum(ratio_i^s) = 1, by bisection on [0, d].

    `maps` may hold SimilarityMap objects or bare ratios.  Rejects systems
    with fewer than two maps and systems whose root would exceed the ambient
    dimension (they cannot satisfy the open set condition in R^d).
    """
    ratios = [m.ratio if isinstance(m, SimilarityMap) else float(m) for m in maps]
    if len(ratios) < 2:
        raise ValueError("need at least two maps (k >= 2)")
    if any(not (0.0 < r < 1.0) for r in ratios):
        raise ValueError("all contraction ratios must lie in (0,1)")
    if ambient_dim is None:
        ambient_dim = (
            maps[0].dim if isinstance(maps[0], SimilarityMap) else len(ratios)
        )

    def moran(s: float) -> float:
        return sum(r**s for r in ratios) - 1.0

    hi = float(ambient_dim)
    if moran(hi) > 0.0:
        raise ValueError(
            f"Moran root exceeds ambient dimension {ambient_dim}; "
            "system cannot satisfy the OSC in R^d"
        )
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-13:
            break
        if moran(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class IFSystem:
    """A validated self-similar system with OSC witness and natural measure.

    Construct with IFSystem.create(maps, open_set); the constructor itself
    performs no checks so that validated instances stay cheap to copy.
    """

    maps: tuple
    open_set: object
    delta: float
    bounding_ball: Ball = field(repr=False)
    anchor: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, maps, open_set) -> "IFSystem":
        maps = tuple(maps)
        if len(maps) < 2:
            raise ValueError("an IFS needs k >= 2 maps")
        d = maps[0].dim
        if any(m.dim != d for m in maps):
            raise ValueError("all maps must act on the same R^d")
        if open_set.dim != d:
            raise ValueError("open set dimension does not match the maps")
        delta = similarity_dimension(list(maps), d)
        _check_open_set_condition(maps, open_set)
        bball = open_set.bounding_ball() if not isinstance(open_set, Ball) else open_set
        anchor = maps[0].fixed_point()
        sys = cls(maps=maps, open_set=open_set, delta=delta,
                  bounding_ball=bball, anchor=anchor)
        _check_attractor_in_closure(sys)
        if not _fixed_points_span(maps):
            warnings.warn(
                "map fixed points do not affinely span R^d; the sufficient "
                "irreducibility check failed",
                IrreducibilityWarning,
                stacklevel=2,
            )
        return sys

    @property
    def dim(self) -> int:
        return self.maps[0].dim

    @property
    def k(self) -> int:
        return len(self.maps)

    @property
    def diameter(self) -> float:
        return 2.0 * self.bounding_ball.radius

    # The stacked map arrays are built on first use and shared, read-only, by
    # every mass evaluation, net and sample of this system.

    @cached_property
    def ratios(self) -> np.ndarray:
        return _read_only(np.array([m.ratio for m in self.maps]))

    @cached_property
    def weights(self) -> np.ndarray:
        """First-level cylinder masses ratio_i^delta; they sum to 1."""
        return _read_only(self.ratios**self.delta)

    @cached_property
    def translations(self) -> np.ndarray:
        return _read_only(np.array([m.translation for m in self.maps]))

    @cached_property
    def rotations(self) -> np.ndarray:
        return _read_only(np.array([m.rotation for m in self.maps]))

    @cached_property
    def has_rotations(self) -> bool:
        return not all(m.is_identity_rotation() for m in self.maps)

    def moran_residual(self) -> float:
        return abs(float(np.sum(self.weights)) - 1.0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _fixed_points_span(maps) -> bool:
    pts = np.array([m.fixed_point() for m in maps])
    d = maps[0].dim
    if len(pts) < d + 1:
        return False
    diffs = pts[1:] - pts[0]
    return int(np.linalg.matrix_rank(diffs, tol=1e-9)) == d


def _check_attractor_in_closure(sys: "IFSystem", samples: int = 512) -> None:
    pts = sample_measure(sys, samples, seed=0)
    tol = 1e-9 * max(sys.diameter, 1.0)
    if not sys.open_set.contains(pts, tol).all():
        raise OpenSetConditionError(
            "sampled attractor points escape the closure of the open set"
        )


# ---------------------------------------------------------------------------
# open set condition
# ---------------------------------------------------------------------------


def _check_open_set_condition(maps, open_set) -> None:
    """Verify the user-supplied witness: every image inside it and every pair
    of images apart.

    Inside is in the closure of the witness; apart is disjoint open interiors
    (boundary touching allowed).  Both use a tolerance scaled to the witness
    diameter.  Each witness kind has its own two tests: a ball, a box whose
    maps do not rotate, and a convex polygon, which also serves a 2-d box
    under rotating maps as its 4-vertex polygon.
    """
    if isinstance(open_set, Ball):
        images = [(m.apply(open_set.center), m.ratio * open_set.radius) for m in maps]
        inside, apart, name = _ball_inside, _balls_apart, "witness ball"
    elif isinstance(open_set, Box) and all(m.is_identity_rotation() for m in maps):
        corners = [(m.apply(open_set.lo), m.apply(open_set.hi)) for m in maps]
        images = [(np.minimum(lo, hi), np.maximum(lo, hi)) for lo, hi in corners]
        inside, apart, name = _box_inside, _boxes_apart, "witness box"
    elif isinstance(open_set, (Box, ConvexPolygon)):
        if isinstance(open_set, ConvexPolygon):
            vertices = open_set.vertices
        elif open_set.dim == 2:
            (x0, y0), (x1, y1) = open_set.lo, open_set.hi
            vertices = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])  # CCW
        else:
            raise OpenSetConditionError("rotated box witnesses are only supported in R^2")
        images = [m.apply(vertices) for m in maps]
        inside, apart, name = _polygon_inside, _polygons_open_disjoint, "witness"
    else:
        raise OpenSetConditionError(f"unsupported open set witness {type(open_set)!r}")
    scale = open_set.radius if isinstance(open_set, Ball) else open_set.bounding_ball().radius
    tol = 1e-9 * max(2.0 * scale, 1.0)
    for i, image in enumerate(images):
        if not inside(open_set, image, tol):
            raise OpenSetConditionError(f"image {i} escapes the {name}")
    for i, j in combinations(range(len(images)), 2):
        if not apart(images[i], images[j], tol):
            raise OpenSetConditionError(f"images {i} and {j} overlap")


def _ball_inside(witness: Ball, image: tuple, tol: float) -> bool:
    centre, radius = image
    return not float(np.linalg.norm(centre - witness.center)) + radius > witness.radius + tol


def _balls_apart(a: tuple, b: tuple, tol: float) -> bool:
    return not float(np.linalg.norm(a[0] - b[0])) < a[1] + b[1] - tol


def _box_inside(witness: Box, image: tuple, tol: float) -> bool:
    lo, hi = image
    return not (np.any(lo < witness.lo - tol) or np.any(hi > witness.hi + tol))


def _boxes_apart(a: tuple, b: tuple, tol: float) -> bool:
    return bool(np.any(a[1] <= b[0] + tol) or np.any(b[1] <= a[0] + tol))


def _polygon_inside(witness, vertices: np.ndarray, tol: float) -> bool:
    return bool(witness.contains(vertices, tol).all())


def _project(vertices: np.ndarray, axis: np.ndarray) -> tuple:
    p = vertices @ axis
    return float(p.min()), float(p.max())


def _polygons_open_disjoint(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Separating-axis test: True iff the open interiors do not meet.

    Convex polygons; candidate axes are the edge normals of both.  Touching
    along a boundary (projection overlap <= tol) still counts as disjoint,
    which is exactly what the open set condition permits.
    """
    for verts in (a, b):
        m = verts.shape[0]
        for i in range(m):
            e = verts[(i + 1) % m] - verts[i]
            n = np.array([-e[1], e[0]])
            ln = np.linalg.norm(n)
            if ln == 0.0:
                continue
            n /= ln
            lo1, hi1 = _project(a, n)
            lo2, hi2 = _project(b, n)
            if hi1 <= lo2 + tol or hi2 <= lo1 + tol:
                return True
    return False


# ---------------------------------------------------------------------------
# measure evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MassInterval:
    """Certified enclosure [lo, hi] of a natural-measure mass."""

    lo: float
    hi: float
    converged: bool
    depth: int

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def widen(self, pad: float) -> "MassInterval":
        return MassInterval(max(self.lo - pad, 0.0), self.hi + pad,
                            self.converged, self.depth)


class _Frontier:
    """The cylinders of one subdivision, as the maps x -> scale rot x + trans.

    One row per cylinder, with its natural-measure weight and the index of
    the query it serves; rows are grouped by query, and a frontier built for
    one query holds only query 0.  The rotation stack exists only when the
    system rotates: composing identity matrices gives the same bits but made
    mass evaluation on the rotation-free cantor and gasket systems 1.5-2.5x
    slower.
    """

    def __init__(self, sys: IFSystem, queries: int = 1):
        d = sys.dim
        self.sys = sys
        self.trans = np.zeros((queries, d))
        self.scale = np.ones(queries)
        self.weight = np.ones(queries)
        self.query = np.arange(queries)
        self.rot = (np.broadcast_to(np.eye(d), (queries, d, d)).copy()
                    if sys.has_rotations else None)

    def image(self, point: np.ndarray) -> np.ndarray:
        """Images of `point` under every cylinder map, one row each."""
        if self.rot is None:
            return self.scale[:, None] * point + self.trans
        return self.scale[:, None] * np.einsum("nij,j->ni", self.rot, point) + self.trans

    def expand(self, mask: np.ndarray) -> None:
        """Replace the frontier by the children of the cylinders in `mask`,
        grouped by query and, within a query, by the map applied last: the
        order a frontier of that query alone would have."""
        sys = self.sys
        trans, scale, weight = self.trans[mask], self.scale[mask], self.weight[mask]
        query = self.query[mask]
        if self.rot is None:
            steps = [scale[:, None] * t for t in sys.translations]
        else:
            rot = self.rot[mask]
            steps = [scale[:, None] * np.einsum("nij,j->ni", rot, t)
                     for t in sys.translations]
            self.rot = np.concatenate(
                [np.einsum("nij,jk->nik", rot, r) for r in sys.rotations])
        self.trans = np.concatenate([trans + step for step in steps])
        self.scale = np.concatenate([scale * r for r in sys.ratios])
        self.weight = np.concatenate([weight * w for w in sys.weights])
        self.query = np.tile(query, sys.k)
        if query.size and query[0] != query[-1]:
            order = np.argsort(self.query, kind="stable")
            self.trans, self.scale = self.trans[order], self.scale[order]
            self.weight, self.query = self.weight[order], self.query[order]
            if self.rot is not None:
                self.rot = self.rot[order]


def _segment_sums(values: np.ndarray, segment: np.ndarray, n: int) -> tuple:
    """(sums, counts) over the segments j < n of `values`, where `segment`
    holds each value's segment in ascending order.  sums[j] has the bits of
    values[segment == j].sum().

    numpy adds fewer than 8 terms strictly left to right, so short segments
    are summed column by column over a zero-padded array (x + 0.0 == x);
    longer ones, which it sums pairwise over 8 accumulators, go one by one.
    np.add.reduceat follows neither order.
    """
    counts = np.bincount(segment, minlength=n)
    sums = np.zeros(n)
    if values.size == 0:
        return sums, counts
    starts = np.cumsum(counts) - counts
    long_ = counts >= 8
    short_rows = ~long_[segment]
    if short_rows.any():
        padded = np.zeros((n, int(counts[~long_].max())))
        offset = np.arange(values.size) - starts[segment]
        padded[segment[short_rows], offset[short_rows]] = values[short_rows]
        for column in padded.T:
            sums += column
    for j in np.flatnonzero(long_):
        sums[j] = values[starts[j]:starts[j] + counts[j]].sum()
    return sums, counts


def measure_many(sys: IFSystem, queries, tols) -> list:
    """Intervals enclosing the masses of many regions in one subdivision.

    A query is a Ball b, for mu(b intersect K), or a pair (b, slab), for
    mu(b intersect slab intersect K); tols[i] is query i's tolerance.  One
    frontier holds the cylinders of every undecided query, and each round
    classifies them against their own query's region.  Cylinders fully
    inside contribute their weight to both bounds and fully outside
    contribute nothing.  Straddling cylinders are expanded; ones below the
    weight floor tol/1024 may instead be frozen as permanent upper-bound
    mass, but only while the frozen total stays under tol/4, so the pruning
    can never cost the width contract.  Each interval is bit for bit the
    one its query gets alone, of width <= its tol when converged.
    """
    tols = np.asarray(tols, dtype=float)
    if np.any(tols < _TOL_FLOOR):
        raise ValueError(
            "tolerance below the float certification floor 1e-9"
        )
    n = len(queries)
    if tols.shape != (n,):
        raise ValueError(f"{n} queries need {n} tolerances, got shape {tols.shape}")
    results = [None] * n
    if n == 0:
        return results
    d = sys.dim
    balls = [q if isinstance(q, Ball) else q[0] for q in queries]
    slabs = [None if isinstance(q, Ball) else q[1] for q in queries]
    bc = np.array([b.center for b in balls])
    br = np.array([b.radius for b in balls])
    has_slab = np.array([s is not None for s in slabs])
    normals = [s.plane.normal if s is not None else np.zeros(d) for s in slabs]
    offset = np.array([s.plane.offset if s is not None else 0.0 for s in slabs])
    eps = np.array([s.epsilon if s is not None else 0.0 for s in slabs])
    normal_1d = np.array([v[0] for v in normals]) if d == 1 else None

    c0 = sys.bounding_ball.center
    r0 = sys.bounding_ball.radius
    floor = tols / 1024.0
    cyl = _Frontier(sys, n)
    live = np.ones(n, dtype=bool)
    lo = np.zeros(n)
    frozen = np.zeros(n)
    depth = 0
    while True:
        weight, q = cyl.weight, cyl.query
        centers, radii = cyl.image(c0), cyl.scale * r0
        dist = np.linalg.norm(centers - bc[q], axis=1)
        inside = dist + radii <= br[q]
        outside = dist >= br[q] + radii
        on_slab = has_slab[q]
        if on_slab.any():
            if d == 1:
                proj = centers[:, 0] * normal_1d[q]
            else:
                # BLAS may round a row differently in a different array, so
                # each query projects exactly the rows it would hold alone
                proj = np.zeros(q.size)
                counts = np.bincount(q, minlength=n)
                starts = np.cumsum(counts) - counts
                for j in np.flatnonzero(has_slab & (counts > 0)):
                    rows = slice(starts[j], starts[j] + counts[j])
                    proj[rows] = centers[rows] @ normals[j]
            pdist = np.abs(proj - offset[q])
            inside &= ~on_slab | (pdist + radii <= eps[q])
            outside |= on_slab & (pdist >= eps[q] + radii)
        lo += _segment_sums(weight[inside], q[inside], n)[0]
        keep = ~inside & ~outside
        tiny = keep & (weight < floor[q])
        tiny_sum = _segment_sums(weight[tiny], q[tiny], n)[0]
        # the floor only prunes while the frozen mass stays well under tol,
        # otherwise the width contract could be lost to many tiny straddlers
        freeze = frozen + tiny_sum <= 0.25 * tols
        frozen = np.where(freeze, frozen + tiny_sum, frozen)
        expandable = keep & ~(tiny & freeze[q])
        active, expandable_count = _segment_sums(weight[expandable], q[expandable], n)
        # absorb float slop (Moran-root error in the cylinder weights plus
        # accumulated rounding) so the enclosure stays certified
        total = lo + frozen + active
        pad = np.where(total > 0.0, 2e-10, 0.0)
        plo = np.maximum(lo - pad, 0.0)
        phi = np.minimum(total + pad, 1.0)
        converged = phi - plo <= tols
        stuck = (depth >= MAX_SUBDIVISION_DEPTH) | (expandable_count == 0)
        decided = live & (converged | stuck)
        for j in np.flatnonzero(decided):
            results[j] = MassInterval(float(plo[j]), float(phi[j]),
                                      bool(converged[j]), depth)
        live &= ~decided
        if not live.any():
            return results
        cyl.expand(expandable & live[q])
        depth += 1


def measure_of_ball(sys: IFSystem, b: Ball, tol: float) -> MassInterval:
    """Interval enclosing mu(b intersect K), of width <= tol when converged."""
    return measure_many(sys, [b], [tol])[0]


def measure_of_slab_in_ball(sys: IFSystem, b: Ball, s: Slab, tol: float) -> MassInterval:
    """Interval enclosing mu(b intersect slab intersect K)."""
    return measure_many(sys, [(b, s)], [tol])[0]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

SAMPLE_DEPTH = 40
# Largest count x depth digit array sample_measure draws: 10^6 points at
# SAMPLE_DEPTH, dimension_report's default batch.
_SAMPLE_DIGIT_CAP = 10**6 * SAMPLE_DEPTH
_DRAW_CHUNK = 1 << 16  # uniforms _draw_digits holds at once


def sample_measure(sys: IFSystem, count: int, seed, depth: int = SAMPLE_DEPTH) -> np.ndarray:
    """Draw `count` points of K distributed by the natural measure.

    Each point is the image of an i.i.d. digit word of the given depth, with
    digit i carrying probability ratio_i^delta; the positional error is at
    most diam(K) * (max ratio)^depth.  Deterministic for a fixed seed; shards
    may derive their own seeds as (seed, shard_index) sequences.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count * depth > _SAMPLE_DIGIT_CAP:
        raise ValueError(
            f"{count} samples at depth {depth} refused; at most "
            f"{_SAMPLE_DIGIT_CAP} digits per call"
        )
    return _fold_digits(sys, _draw_digits(sys, count, np.random.default_rng(seed), depth))


def _draw_digits(sys: IFSystem, count: int, rng, depth: int = SAMPLE_DEPTH) -> np.ndarray:
    """count x depth i.i.d. digits, digit i with probability ratio_i^delta, in
    the smallest unsigned dtype that holds k - 1.

    These are the bits of rng.choice(k, (count, depth), p=weights / sum),
    which draws rng.random((count, depth)) and takes
    cdf.searchsorted(u, "right"): the number of cdf entries <= u.  As
    cdf[-1] = 1 > u, k - 1 comparisons count it.  The uniforms are drawn in
    row chunks of about _DRAW_CHUNK values, which continue one stream.
    """
    cdf = (sys.weights / sys.weights.sum()).cumsum()
    cdf /= cdf[-1]
    digits = np.zeros((count, depth), dtype=np.min_scalar_type(sys.k - 1))
    rows = max(1, _DRAW_CHUNK // max(depth, 1))
    for start in range(0, count, rows):
        u = rng.random((min(rows, count - start), depth))
        chunk = digits[start:start + rows]
        for edge in cdf[:-1]:
            chunk += edge <= u
    return digits


def _fold_digits(sys: IFSystem, digits: np.ndarray) -> np.ndarray:
    """The images of the anchor under the digit words, one row per word:
    the maps of the last column act first.  Without rotations the points
    are held one coordinate per row, where each element takes the same
    multiply and add as in the (count, d) layout."""
    columns = np.ascontiguousarray(digits.T)[::-1]
    rho, trs = sys.ratios, sys.translations
    if sys.has_rotations:
        rots = sys.rotations
        pts = np.broadcast_to(sys.anchor, (digits.shape[0], sys.dim)).copy()
        for dig in columns:
            pts = rho[dig, None] * np.einsum("nij,nj->ni", rots[dig], pts) + trs[dig]
        return pts
    shifts = np.ascontiguousarray(trs.T)
    pts = np.repeat(sys.anchor[:, None], digits.shape[0], axis=1)
    for dig in columns:
        pts *= rho.take(dig)
        for coord, shift in zip(pts, shifts):
            coord += shift.take(dig)
    return np.ascontiguousarray(pts.T)


# ---------------------------------------------------------------------------
# bundled systems
# ---------------------------------------------------------------------------


def _no_rotation(d: int) -> np.ndarray:
    return np.eye(d)


def cantor_middle_thirds() -> IFSystem:
    """Middle-thirds Cantor set in R^1; delta = log 2 / log 3."""
    maps = [
        SimilarityMap(1 / 3, _no_rotation(1), np.array([0.0])),
        SimilarityMap(1 / 3, _no_rotation(1), np.array([2 / 3])),
    ]
    return IFSystem.create(maps, Box([0.0], [1.0]))


def sierpinski_gasket() -> IFSystem:
    """Sierpinski gasket on the triangle (0,0), (1,0), (1/2, sqrt3/2)."""
    h = math.sqrt(3.0) / 2.0
    maps = [
        SimilarityMap(0.5, _no_rotation(2), np.array([0.0, 0.0])),
        SimilarityMap(0.5, _no_rotation(2), np.array([0.5, 0.0])),
        SimilarityMap(0.5, _no_rotation(2), np.array([0.25, h / 2.0])),
    ]
    return IFSystem.create(maps, Box([0.0, 0.0], [1.0, h]))


def four_corner_dust() -> IFSystem:
    """Four-corner Cantor dust in the unit square with contraction 1/4."""
    maps = [
        SimilarityMap(0.25, _no_rotation(2), np.array([0.0, 0.0])),
        SimilarityMap(0.25, _no_rotation(2), np.array([0.75, 0.0])),
        SimilarityMap(0.25, _no_rotation(2), np.array([0.0, 0.75])),
        SimilarityMap(0.25, _no_rotation(2), np.array([0.75, 0.75])),
    ]
    return IFSystem.create(maps, Box([0.0, 0.0], [1.0, 1.0]))


def koch_curve() -> IFSystem:
    """Von Koch curve over [0,1]; two of the four maps rotate by +-60 degrees.

    The witness is the open triangle with base [0,1] and apex (1/2, sqrt3/6);
    its four images tile it up to shared boundary points.
    """
    c, s = 0.5, math.sqrt(3.0) / 2.0
    rot_pos = np.array([[c, -s], [s, c]])
    rot_neg = np.array([[c, s], [-s, c]])
    maps = [
        SimilarityMap(1 / 3, _no_rotation(2), np.array([0.0, 0.0])),
        SimilarityMap(1 / 3, rot_pos, np.array([1 / 3, 0.0])),
        SimilarityMap(1 / 3, rot_neg, np.array([0.5, math.sqrt(3.0) / 6.0])),
        SimilarityMap(1 / 3, _no_rotation(2), np.array([2 / 3, 0.0])),
    ]
    witness = ConvexPolygon(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 6.0]])
    )
    return IFSystem.create(maps, witness)


BUNDLED_SYSTEMS = {
    "cantor": cantor_middle_thirds,
    "gasket": sierpinski_gasket,
    "dust": four_corner_dust,
    "koch": koch_curve,
}


def bundled_system(name: str) -> IFSystem:
    try:
        return BUNDLED_SYSTEMS[name]()
    except KeyError:
        raise ValueError(
            f"unknown bundled system {name!r}; choose from {sorted(BUNDLED_SYSTEMS)}"
        ) from None


# ---------------------------------------------------------------------------
# definition files
# ---------------------------------------------------------------------------


def _open_set_to_json(open_set) -> dict:
    if isinstance(open_set, Box):
        return {"type": "box", "min": open_set.lo.tolist(), "max": open_set.hi.tolist()}
    if isinstance(open_set, Ball):
        return {"type": "ball", "center": open_set.center.tolist(),
                "radius": open_set.radius}
    if isinstance(open_set, ConvexPolygon):
        return {"type": "polygon", "vertices": open_set.vertices.tolist()}
    raise ValueError(f"cannot serialize open set {type(open_set)!r}")


def _open_set_from_json(obj: dict):
    kind = obj.get("type", "box")
    if kind == "box":
        return Box(obj["min"], obj["max"])
    if kind == "ball":
        return Ball(np.asarray(obj["center"], dtype=float), float(obj["radius"]))
    if kind == "polygon":
        return ConvexPolygon(np.asarray(obj["vertices"], dtype=float))
    raise ValueError(f"unknown open set type {kind!r}")


def dump_system(sys: IFSystem, path) -> None:
    """Write the definition file: dimension, per-map ratio / rotation
    (row-major) / translation, and the open set witness."""
    payload = {
        "dimension": sys.dim,
        "maps": [
            {
                "ratio": m.ratio,
                "rotation": [float(x) for x in m.rotation.reshape(-1)],
                "translation": m.translation.tolist(),
            }
            for m in sys.maps
        ],
        "open_set": _open_set_to_json(sys.open_set),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_system(path) -> IFSystem:
    """Read a definition file and validate it (Moran root, OSC witness).

    A malformed field raises ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("a definition file holds a JSON object")
    d = _parse_field("dimension", _positive_int, payload.get("dimension"))
    entries = payload.get("maps")
    if not isinstance(entries, list):
        raise ValueError("field 'maps' must be a list of maps")
    maps = [_parse_field(f"maps[{i}]", lambda e: _map_from_json(e, d), entry)
            for i, entry in enumerate(entries)]
    open_set = _parse_field("open_set", _open_set_from_json, payload.get("open_set"))
    return IFSystem.create(maps, open_set)


def _parse_field(name: str, parse, value):
    try:
        return parse(value)
    except KeyError as e:
        raise ValueError(f"field {name!r}: missing key {e}") from None
    except (TypeError, ValueError, AttributeError) as e:
        raise ValueError(f"field {name!r}: {e}") from None


def _positive_int(v) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ValueError(f"must be a positive integer, got {v!r}")
    return v


def _map_from_json(entry: dict, d: int) -> SimilarityMap:
    rot = np.asarray(entry["rotation"], dtype=float)
    if rot.ndim == 1:
        rot = rot.reshape(d, d)
    return SimilarityMap(float(entry["ratio"]), rot,
                         np.asarray(entry["translation"], dtype=float))
