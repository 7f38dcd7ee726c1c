"""Self-similar iterated function systems with an open-set-condition witness,
their attractors, and the natural measure (normalized restriction of the
delta-dimensional Hausdorff measure).

Ball and slab masses are evaluated by recursive cylinder subdivision with a
certified enclosure per cylinder, so every evaluation returns an interval
guaranteed to contain the true mass.  The mass oracle, measure_many, takes
its balls and slabs as arrays; a slab of half-width inf leaves a ball uncut.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .geometry import Ball, Box, _each

__all__ = [
    "SimilarityMap",
    "IFSystem",
    "ConvexPolygon",
    "MassInterval",
    "OpenSetConditionError",
    "IrreducibilityWarning",
    "similarity_dimension",
    "measure_many",
    "sample_measure",
    "bundled_system",
    "load_system",
    "BUNDLED_SYSTEMS",
]

_ORTHO_TOL = 1e-12
MAX_SUBDIVISION_DEPTH = 64
# Smallest tolerance measure_many certifies a mass to in float64.
_TOL_FLOOR = 1e-9
# The Moran-root bisection stops at this bracket width: delta is that close.
_MORAN_TOL = 1e-13


def _check_alpha(sys: IFSystem, alpha: float) -> None:
    """Refuse a decay exponent outside (0, delta].  No alpha-decaying
    delta-regular measure has alpha > delta: L^eps cap B(x, r) contains
    B(x, eps) for a hyperplane L through x in K.  delta is a bisection root,
    so the bound is widened by its bracket width _MORAN_TOL."""
    if not 0 < alpha <= sys.delta + _MORAN_TOL:
        raise ValueError(f"'alpha' must be in (0, delta] = (0, {sys.delta!r}]")


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


def similarity_dimension(ratios: list, ambient_dim: int) -> float:
    """Unique root of sum(ratio_i^s) = 1, by bisection on [0, d].

    Rejects systems with fewer than two maps and systems whose root would
    exceed the ambient dimension (they cannot satisfy the open set condition
    in R^d).
    """
    if len(ratios) < 2:
        raise ValueError("need at least two maps (k >= 2)")
    if any(not (0.0 < r < 1.0) for r in ratios):
        raise ValueError("all contraction ratios must lie in (0,1)")

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
        if hi - lo < _MORAN_TOL:
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
        delta = similarity_dimension([m.ratio for m in maps], d)
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
            out = _scaled(self.scale, point)
        else:
            out = _scaled(self.scale, np.einsum("nij,j->ni", self.rot, point))
        out += self.trans
        return out

    def expand(self, mask: np.ndarray) -> None:
        """Replace the frontier by the children of the cylinders in `mask`,
        grouped by query and, within a query, by the map applied last: the
        order a frontier of that query alone would have.  Rows are gathered
        with np.take: fancy indexing copies a short row about 10x slower."""
        sys = self.sys
        rows = np.flatnonzero(mask)
        trans, scale = np.take(self.trans, rows, axis=0), self.scale[rows]
        weight, query = self.weight[rows], self.query[rows]
        if self.rot is None:
            steps = [_scaled(scale, t) for t in sys.translations]
        else:
            rot = np.take(self.rot, rows, axis=0)
            steps = [_scaled(scale, np.einsum("nij,j->ni", rot, t))
                     for t in sys.translations]
            self.rot = np.concatenate([_compose(rot, r) for r in sys.rotations])
        for step in steps:
            step += trans
        self.trans = np.concatenate(steps)
        self.scale = np.concatenate([scale * r for r in sys.ratios])
        self.weight = np.concatenate([weight * w for w in sys.weights])
        self.query = np.tile(query, sys.k)
        if query.size and query[0] != query[-1]:
            order = np.argsort(self.query, kind="stable")
            self.trans = np.take(self.trans, order, axis=0)
            self.scale, self.weight = self.scale[order], self.weight[order]
            self.query = self.query[order]
            if self.rot is not None:
                self.rot = np.take(self.rot, order, axis=0)


def _scaled(scale: np.ndarray, v: np.ndarray) -> np.ndarray:
    """scale[:, None] * v, bit for bit, for a vector or one row per scale.
    Column by column it is about 4x faster: numpy runs a broadcast along a
    short last axis as one inner loop per row."""
    out = np.empty((scale.size, v.shape[-1]))
    for j in range(v.shape[-1]):
        np.multiply(scale, v[..., j], out=out[:, j])
    return out


def _compose(rot: np.ndarray, r: np.ndarray) -> np.ndarray:
    """rot[i] @ r for every matrix of the stack, with the bits of
    np.einsum("nij,jk->nik", rot, r): each entry sums its products over j in
    order from 0.0 (so a sum of -0.0 products is +0.0).  Column by column it
    took 2.2 ms in place of einsum's 3.7 ms for koch's four maps on 16,384
    rows; np.matmul rounds differently."""
    d = r.shape[0]
    out = np.empty(rot.shape)
    for i in range(d):
        for k in range(d):
            acc = 0.0 + rot[:, i, 0] * r[0, k]
            for j in range(1, d):
                acc += rot[:, i, j] * r[j, k]
            out[:, i, k] = acc
    return out


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=1), bit for bit.  numpy adds fewer than 8
    squares per row left to right, so those are summed column by column,
    about 6x faster on (16384, 2) rows than norm's reduction along the
    short axis."""
    if v.shape[1] >= 8:
        return np.linalg.norm(v, axis=1)
    total = v[:, 0] * v[:, 0]
    for col in v.T[1:]:
        total += col * col
    return np.sqrt(total)


def _segment_sums(values: np.ndarray, segment: np.ndarray, n: int) -> tuple:
    """(sums, counts) over the segments j < n of `values`, where `segment`
    holds each value's segment in ascending order.  sums[j] has the bits of
    values[segment == j].sum().

    numpy adds fewer than 8 terms strictly left to right from 0.0, as
    np.bincount does, so bincount sums the short segments; longer ones,
    which numpy sums pairwise over 8 accumulators, go one by one.
    np.add.reduceat follows neither order.
    """
    counts = np.bincount(segment, minlength=n)
    # without values bincount gives int64 zeros
    sums = np.bincount(segment, weights=values, minlength=n).astype(float, copy=False)
    long = np.flatnonzero(counts >= 8)
    stops = np.cumsum(counts)[long]
    for j, start, stop in zip(long.tolist(), (stops - counts[long]).tolist(), stops.tolist()):
        # ndarray.sum is this reduction behind a Python wrapper
        sums[j] = np.add.reduce(values[start:stop])
    return sums, counts


# The frontier rows a chunk of measure_many may expand to while more than one
# of its queries is live.  The budget was set on `certify --ifs gasket
# --trials 1000` (2-CPU x86-64 Linux, numpy 2.4), when chunks were sized
# from the previous chunk's peak alone: at 2**14 peak RSS was 50.4-50.7 MB
# against 50.0-50.2 MB with 32-trial calls, 2**12 made 274 chunks (3.9 s in
# one run), and 2**16 took 61 MB.  With the cut, that run's largest frontier
# is 17,547 rows, one query alone, where it was 32,622.
_FRONTIER_ROWS = 2**14


def measure_many(sys: IFSystem, centers, radii, tols, slabs=None) -> list:
    """Intervals enclosing the masses of many regions, one per row.

    Query i is the ball B(centers[i], radii[i]), cut, when `slabs` = (unit
    normals (n, d), offsets (n,), half-widths (n,)) is given, by the slab
    |normals[i] . x - offsets[i]| <= half-widths[i]; its interval is of width
    <= tols[i] when converged.  At half-width inf the slab is all of R^d:
    the row's normal and offset go unused, and it gets its ball's bits.  A
    bad array is refused before any work by a ValueError that names it.

    The queries are subdivided in consecutive chunks, each in one frontier
    (see _measure_chunk).  A chunk takes the pending queries in order, at
    first all of them, and then as many as the previous chunk showed fit:
    the queries it kept when it had to leave some undecided to stay within
    _FRONTIER_ROWS rows (those are pending again, ahead of the rest), or
    else size * _FRONTIER_ROWS // peak, where size and peak are its query
    count and largest frontier.  Each interval is bit for bit the one its
    query gets alone, so the chunking changes none.
    """
    arrays = [np.asarray(a, dtype=float) for a in (centers, radii, tols, *(slabs or ()))]
    centers, radii, tols, *slabs = arrays
    n, d = radii.size, sys.dim
    if not np.all(tols >= _TOL_FLOOR):  # also refuses NaN
        raise ValueError("tolerance below the float certification floor 1e-9")
    if [a.shape for a in arrays] != [(n, d), (n,), (n,)] * (2 if slabs else 1):
        raise ValueError(f"{n} queries in R^{d} need shapes (n, d), (n,), (n,) and slabs "
                         f"(n, d), (n,), (n,), got {[a.shape for a in arrays]}")
    if not np.all(radii > 0):  # also refuses NaN
        raise ValueError("ball radius must be positive")
    if not np.all(np.isfinite(centers)):
        raise ValueError("ball centre must be finite")
    if slabs:
        normals, offsets, widths = slabs
        if not np.all(widths >= 0):  # also refuses NaN
            raise ValueError("slab half-width must be nonnegative")
        cut = widths < math.inf
        if not np.all(np.abs(np.linalg.norm(normals[cut], axis=1) - 1.0) <= 1e-12):
            raise ValueError("slab normal must be a unit vector within 1e-12")
        if not np.all(np.isfinite(offsets[cut])):
            raise ValueError("slab offset must be finite")
        # an uncut row's normal and offset are read as zeros: it projects to 0
        slabs = [np.where(cut[:, None], normals, 0.0), np.where(cut, offsets, 0.0), widths]
    results = [None] * n
    pending, size = np.arange(n), n
    while pending.size:
        chunk = pending[:size]
        got, size = _measure_chunk(sys, centers[chunk], radii[chunk], tols[chunk],
                                   [a[chunk] for a in slabs])
        deferred = []
        for j, interval in zip(chunk.tolist(), got):
            if interval is None:
                deferred.append(j)
            else:
                results[j] = interval
        pending = np.concatenate([np.array(deferred, dtype=int), pending[chunk.size:]])
    return results


def _measure_chunk(sys: IFSystem, bc, br, tols, slabs) -> tuple:
    """(intervals, queries that fit) of the queries subdivided in one
    frontier: measure_many's arrays, with [] for slabs when there are none.

    The frontier holds the cylinders of every undecided query, with a query
    column, and each round classifies them against their own query's
    region.  Cylinders fully inside contribute their weight to both bounds
    and fully outside contribute nothing.  Straddling cylinders are
    expanded; ones below the weight floor tol/1024 may instead be frozen as
    permanent upper-bound mass, but only while the frozen total stays under
    tol/4, so the pruning can never cost the width contract.  Each query
    starts at depth 0, as it would alone, and its interval is of width
    <= its tol when converged.

    When an expansion would take more than one live query past
    _FRONTIER_ROWS rows, the live queries after the longest prefix whose
    children fit (at least one query) leave undecided: their intervals are
    None, and the queries that fit are that prefix's length at the last
    such cut.  Without a cut they are n * _FRONTIER_ROWS // peak (at least
    one) for n queries and a largest frontier of peak rows.
    """
    n = br.size
    results = [None] * n
    d = sys.dim
    if slabs:
        normals, offset, eps = slabs
        normal_1d = normals[:, 0] if d == 1 else None
        cut = eps < math.inf

    c0 = sys.bounding_ball.center
    r0 = sys.bounding_ball.radius
    floor = tols / 1024.0
    cyl = _Frontier(sys, n)
    live = np.ones(n, dtype=bool)
    lo = np.zeros(n)
    frozen = np.zeros(n)
    depth, fit, peak = 0, None, 0
    while True:
        weight, q = cyl.weight, cyl.query
        peak = max(peak, q.size)
        centers, radii = cyl.image(c0), cyl.scale * r0
        dist = _row_norms(centers - np.take(bc, q, axis=0))
        reach = br[q]
        inside = dist + radii <= reach
        outside = dist >= reach + radii
        if slabs:
            if d == 1:
                proj = centers[:, 0] * normal_1d[q]
            else:
                # BLAS may round a row differently in a different array, so
                # each query projects exactly the rows it would hold alone;
                # an uncut query (half-width inf) keeps projections of 0
                proj = np.zeros(q.size)
                counts = np.bincount(q, minlength=n)
                starts = np.cumsum(counts) - counts
                for j in np.flatnonzero(cut & (counts > 0)):
                    rows = slice(starts[j], starts[j] + counts[j])
                    proj[rows] = centers[rows] @ normals[j]
            pdist = np.abs(proj - offset[q])
            width = eps[q]
            inside &= pdist + radii <= width
            outside |= pdist >= width + radii
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
        ids = np.flatnonzero(live)
        if not ids.size:
            return results, fit or max(1, n * _FRONTIER_ROWS // peak)
        children = np.cumsum(expandable_count[ids]) * sys.k
        if ids.size > 1 and children[-1] > _FRONTIER_ROWS:
            fit = max(1, int(np.searchsorted(children, _FRONTIER_ROWS, side="right")))
            live[ids[fit:]] = False
        cyl.expand(expandable & live[q])
        depth += 1


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
    """count x depth i.i.d. digits, digit i with probability ratio_i^delta
    (see _uniform_digits).  The uniforms are drawn in row chunks of about
    _DRAW_CHUNK values, which continue one stream."""
    digits = np.zeros((count, depth), dtype=np.min_scalar_type(sys.k - 1))
    rows = max(1, _DRAW_CHUNK // max(depth, 1))
    for start in range(0, count, rows):
        _uniform_digits(sys, rng.random((min(rows, count - start), depth)),
                        digits[start:start + rows])
    return digits


def _uniform_digits(sys: IFSystem, u: np.ndarray, out=None) -> np.ndarray:
    """The digits of uniforms u, added into `out` (zeros in the smallest
    unsigned dtype that holds k - 1 when not given).

    These are the bits of rng.choice(k, u.shape, p=weights / sum), which
    draws rng.random(u.shape) and takes cdf.searchsorted(u, "right"): the
    number of cdf entries <= u.  As cdf[-1] = 1 > u, k - 1 comparisons
    count it.
    """
    if out is None:
        out = np.zeros(u.shape, dtype=np.min_scalar_type(sys.k - 1))
    cdf = (sys.weights / sys.weights.sum()).cumsum()
    cdf /= cdf[-1]
    for edge in cdf[:-1]:
        out += edge <= u
    return out


def _fold_digits(sys: IFSystem, digits: np.ndarray) -> np.ndarray:
    """The images of the anchor under the digit words, one row per word:
    the maps of the last column act first.  Without rotations each step
    scales the points in place, by the scalar ratio when every map has it
    (the float each gathered ratio would be), and adds the translations
    gathered into one buffer."""
    columns = np.ascontiguousarray(digits.T)[::-1]
    rho, trs = sys.ratios, sys.translations
    pts = np.broadcast_to(sys.anchor, (digits.shape[0], sys.dim)).copy()
    if sys.has_rotations:
        rots = sys.rotations
        for dig in columns:
            pts = rho[dig, None] * np.einsum("nij,nj->ni", rots[dig], pts) + trs[dig]
        return pts
    shift = np.empty_like(pts)
    if np.all(rho == rho[0]):
        scale, rho = rho[0], None
    else:
        scale, rho = np.empty_like(pts), np.repeat(rho[:, None], sys.dim, axis=1)
    for dig in columns:
        pts *= scale if rho is None else np.take(rho, dig, axis=0, out=scale)
        pts += np.take(trs, dig, axis=0, out=shift)
    return pts


# ---------------------------------------------------------------------------
# bundled systems and definition files
# ---------------------------------------------------------------------------


# The definition payload of each bundled system, in the definition-file
# schema; bundled_system reads it with the parser load_system uses.
_ID2 = [1.0, 0.0, 0.0, 1.0]  # the identity rotation of the plane, row-major
_SIN60 = math.sqrt(3.0) / 2.0

BUNDLED_SYSTEMS = {
    # middle-thirds Cantor set in R^1; delta = log 2 / log 3
    "cantor": {
        "dimension": 1,
        "maps": [{"ratio": 1 / 3, "rotation": [1.0], "translation": [0.0]},
                 {"ratio": 1 / 3, "rotation": [1.0], "translation": [2 / 3]}],
        "open_set": {"type": "box", "min": [0.0], "max": [1.0]},
    },
    # Sierpinski gasket on the triangle (0,0), (1,0), (1/2, sqrt3/2)
    "gasket": {
        "dimension": 2,
        "maps": [{"ratio": 0.5, "rotation": _ID2, "translation": [0.0, 0.0]},
                 {"ratio": 0.5, "rotation": _ID2, "translation": [0.5, 0.0]},
                 {"ratio": 0.5, "rotation": _ID2, "translation": [0.25, _SIN60 / 2.0]}],
        "open_set": {"type": "box", "min": [0.0, 0.0], "max": [1.0, _SIN60]},
    },
    # four-corner Cantor dust in the unit square with contraction 1/4
    "dust": {
        "dimension": 2,
        "maps": [{"ratio": 0.25, "rotation": _ID2, "translation": [0.0, 0.0]},
                 {"ratio": 0.25, "rotation": _ID2, "translation": [0.75, 0.0]},
                 {"ratio": 0.25, "rotation": _ID2, "translation": [0.0, 0.75]},
                 {"ratio": 0.25, "rotation": _ID2, "translation": [0.75, 0.75]}],
        "open_set": {"type": "box", "min": [0.0, 0.0], "max": [1.0, 1.0]},
    },
    # von Koch curve over [0,1]; the middle two maps rotate by +-60 degrees.
    # The witness is the open triangle with base [0,1] and apex (1/2, sqrt3/6);
    # its four images tile it up to shared boundary points.
    "koch": {
        "dimension": 2,
        "maps": [{"ratio": 1 / 3, "rotation": _ID2, "translation": [0.0, 0.0]},
                 {"ratio": 1 / 3, "rotation": [0.5, -_SIN60, _SIN60, 0.5],
                  "translation": [1 / 3, 0.0]},
                 {"ratio": 1 / 3, "rotation": [0.5, _SIN60, -_SIN60, 0.5],
                  "translation": [0.5, math.sqrt(3.0) / 6.0]},
                 {"ratio": 1 / 3, "rotation": _ID2, "translation": [2 / 3, 0.0]}],
        "open_set": {"type": "polygon",
                     "vertices": [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 6.0]]},
    },
}


def bundled_system(name: str) -> IFSystem:
    try:
        payload = BUNDLED_SYSTEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown bundled system {name!r}; choose from {sorted(BUNDLED_SYSTEMS)}"
        ) from None
    return _system_from_payload(payload)


def _open_set_from_json(obj: dict):
    kind = obj.get("type", "box")
    if kind == "box":
        return Box(obj["min"], obj["max"])
    if kind == "ball":
        return Ball(np.asarray(obj["center"], dtype=float), float(obj["radius"]))
    if kind == "polygon":
        return ConvexPolygon(np.asarray(obj["vertices"], dtype=float))
    raise ValueError(f"unknown open set type {kind!r}")


def load_system(path) -> IFSystem:
    """Read a definition file and validate it (Moran root, OSC witness)."""
    with open(path, encoding="utf-8") as fh:
        return _system_from_payload(json.load(fh))


def _system_from_payload(payload) -> IFSystem:
    """The system a parsed definition file describes; a malformed field
    raises ValueError naming it."""
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
