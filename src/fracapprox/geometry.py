"""Euclidean primitives: balls, slabs, exact rational points and simplices,
dyadic scales, and the common-radius greedy covering construction.

Everything here is immutable after construction and safe to use from
concurrent workers.  Exact decisions (simplex volume, affine rank) are made
over the rationals with arbitrary-precision integers; floating point is used
only where a tolerance is part of the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "Ball",
    "Box",
    "Hyperplane",
    "Slab",
    "RationalPoint",
    "Simplex",
    "DyadicScale",
    "WitnessResult",
    "unit_ball_volume",
    "greedy_cover",
    "simplex_volume_times_dfact",
    "affine_rank",
    "hyperplane_through",
    "hyperplane_witness",
]

_UNIT_TOL = 1e-12


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d point, got shape {v.shape}")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball with centre `center` and radius `radius` > 0."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vector(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def dilate(self, k: float) -> "Ball":
        """Concentric dilation: same centre, radius multiplied by k >= 1."""
        if k < 1:
            raise ValueError(f"dilation factor must be >= 1, got {k}")
        return Ball(self.center, k * self.radius)

    def contains(self, x) -> bool:
        return float(np.linalg.norm(_as_vector(x) - self.center)) <= self.radius


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box given by its min and max corners."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_vector(self.lo))
        object.__setattr__(self, "hi", _as_vector(self.hi))
        if self.lo.shape != self.hi.shape:
            raise ValueError("box corners must have equal dimension")
        if not np.all(self.lo <= self.hi):
            raise ValueError("box min corner must be <= max corner coordinatewise")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def sides(self) -> np.ndarray:
        return self.hi - self.lo

    def volume(self) -> float:
        return float(np.prod(self.sides))

    def contains(self, x, tol: float = 0.0) -> bool:
        v = _as_vector(x)
        return bool(np.all(v >= self.lo - tol) and np.all(v <= self.hi + tol))

    def bounding_ball(self) -> Ball:
        c = 0.5 * (self.lo + self.hi)
        r = 0.5 * float(np.linalg.norm(self.sides))
        return Ball(c, max(r, np.finfo(float).tiny))


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane {x : normal . x = offset} with a unit normal.

    For d = 1 this degenerates to a single point a, stored as normal = +-1
    and offset = +-a.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _as_vector(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        n = float(np.linalg.norm(self.normal))
        if abs(n - 1.0) > _UNIT_TOL:
            raise ValueError(f"hyperplane normal must be a unit vector, |n| = {n}")

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def signed_distance(self, x) -> float:
        return float(np.dot(self.normal, _as_vector(x)) - self.offset)

    def distance(self, x) -> float:
        return abs(self.signed_distance(x))


@dataclass(frozen=True)
class Slab:
    """epsilon-neighborhood of a hyperplane: {x : |normal . x - offset| <= epsilon}."""

    plane: Hyperplane
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.epsilon < 0:
            raise ValueError("slab epsilon must be nonnegative")

    @property
    def dim(self) -> int:
        return self.plane.dim

    def contains(self, x) -> bool:
        return self.plane.distance(x) <= self.epsilon

    def widen(self, k: float) -> "Slab":
        return Slab(self.plane, k * self.epsilon)


@dataclass(frozen=True)
class RationalPoint:
    """Point p/q in Q^d: integer numerators and one shared positive denominator.

    Arithmetic comparisons are exact (cross-multiplication); no floating point
    is involved in equality or hashing.
    """

    numerators: tuple
    denominator: int

    def __post_init__(self):
        nums = tuple(int(p) for p in self.numerators)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", int(self.denominator))
        if self.denominator < 1:
            raise ValueError("denominator must be a positive integer")

    @property
    def dim(self) -> int:
        return len(self.numerators)

    def fractions(self) -> tuple:
        return tuple(Fraction(p, self.denominator) for p in self.numerators)

    def as_float(self) -> np.ndarray:
        return np.array([p / self.denominator for p in self.numerators], dtype=float)

    def value_key(self) -> tuple:
        """Canonical exact value, for de-duplicating equal points."""
        return self.fractions()

    def __eq__(self, other):
        if not isinstance(other, RationalPoint):
            return NotImplemented
        if self.dim != other.dim:
            return False
        # cross-multiplication, exact over the integers
        return all(
            p * other.denominator == r * self.denominator
            for p, r in zip(self.numerators, other.numerators)
        )

    def __hash__(self):
        return hash(self.value_key())


@dataclass(frozen=True)
class Simplex:
    """(d+1) rational vertices spanning (at most) a d-simplex in R^d."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if not verts:
            raise ValueError("simplex needs vertices")
        d = verts[0].dim
        if any(v.dim != d for v in verts):
            raise ValueError("simplex vertices must share a dimension")
        if len(verts) != d + 1:
            raise ValueError(f"simplex in R^{d} needs {d + 1} vertices, got {len(verts)}")

    @property
    def dim(self) -> int:
        return self.vertices[0].dim


def unit_ball_volume(d: int) -> float:
    """Lebesgue volume of the unit ball in R^d (2, pi, 4pi/3, ...)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class DyadicScale:
    """Block index n with its working radius r_n in R^d.

    r_n = (1/6) * (1 / (kappa * d!))^(1/d) * 2^(-(d+1)(n+1)/d), where kappa is
    the volume of the unit ball in R^d.  The defining identity is
    kappa * (6 r_n)^d = 2^(-(d+1)(n+1)) / d!.
    """

    n: int
    d: int
    kappa: float = field(init=False)
    r_n: float = field(init=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("block index n must be >= 0")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        kappa = unit_ball_volume(self.d)
        r = (
            (1.0 / 6.0)
            * (1.0 / (kappa * math.factorial(self.d))) ** (1.0 / self.d)
            * 2.0 ** (-(self.d + 1) * (self.n + 1) / self.d)
        )
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "r_n", r)

    @property
    def q_lo(self) -> int:
        """Smallest denominator of the dyadic block, 2^n."""
        return 2 ** self.n

    @property
    def q_hi(self) -> int:
        """One past the largest denominator, 2^(n+1)."""
        return 2 ** (self.n + 1)


# ---------------------------------------------------------------------------
# greedy covering
# ---------------------------------------------------------------------------


def greedy_cover(balls: list) -> tuple:
    """Select a disjoint sub-collection whose 3-dilates cover the input.

    All input balls must share one radius r.  Centres are visited in
    lexicographic order; a centre is selected iff it lies strictly outside
    every B(c_i, 2r) chosen so far.  Selected balls are pairwise disjoint
    (centre gaps > 2r) and every input centre lies within 2r of a selected
    one, so each input ball sits inside the 3-dilate of a selected ball.

    Returns (chosen, 3) where 3 is the dilation factor that makes the cover.
    """
    if not balls:
        return [], 3
    r = balls[0].radius
    for b in balls:
        if b.radius != r:
            raise ValueError(
                f"greedy_cover requires a common radius; got {b.radius} != {r}"
            )
    centers = np.array([b.center for b in balls], dtype=float)
    if not np.isfinite(centers).all():
        raise ValueError("greedy_cover requires finite centres")
    return [Ball(c, r) for c in _greedy_centres(centers, r)], 3


def _reach(bound: float) -> float:
    """Largest first-coordinate gap of two rows whose float distance is <=
    bound: a few ulps past it, and below 1e-150 squares can underflow."""
    return max(bound * (1.0 + 1e-9), 1e-150)


def _greedy_centres(centers: np.ndarray, r: float) -> np.ndarray:
    """greedy_cover's selected rows, in visiting order.  Only the later rows
    within _reach(2r) of a selected row in the first coordinate can fail the
    strict test `gap > 2r`, so only they are tested."""
    centers = centers[np.lexsort(centers.T[::-1])]  # lexicographic order
    two_r = 2.0 * r
    ends = np.searchsorted(centers[:, 0], centers[:, 0] + _reach(two_r), side="right")
    eligible = np.ones(len(centers), dtype=bool)
    chosen_idx = []
    for i in range(len(centers)):
        if not eligible[i]:
            continue
        chosen_idx.append(i)
        near = slice(i + 1, ends[i])
        eligible[near] &= np.linalg.norm(centers[near] - centers[i], axis=1) > two_r
    return centers[chosen_idx]


# ---------------------------------------------------------------------------
# exact rational linear algebra
# ---------------------------------------------------------------------------


def _integer_determinant(rows: list) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    m = [list(map(int, row)) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def simplex_volume_times_dfact(s: Simplex) -> Fraction:
    """Exact d! * volume of a rational simplex.

    Equals |det| of the (d+1)x(d+1) matrix with rows (1, p_i/q_i).  Rows are
    cleared to integers (row i times q_i), the integer determinant is taken
    with Bareiss elimination, and the product of the q_i is divided back out.
    Zero iff the vertices are affinely dependent.
    """
    rows = []
    qs = 1
    for v in s.vertices:
        rows.append([v.denominator] + list(v.numerators))
        qs *= v.denominator
    det = _integer_determinant(rows)
    return Fraction(abs(det), qs)


def affine_rank(points: list) -> int:
    """Exact affine rank of a set of RationalPoints (0 for a single point).

    Row-reduces the difference vectors p_i - p_0 over the rationals.  The
    points all lie on a hyperplane of R^d iff the affine rank is <= d - 1.
    """
    if not points:
        raise ValueError("affine_rank needs at least one point")
    base = points[0].fractions()
    rows = [
        [f - b for f, b in zip(p.fractions(), base)]
        for p in points[1:]
    ]
    return _fraction_rank(rows)


def _fraction_rank(rows: list) -> int:
    rows = [list(r) for r in rows if any(x != 0 for x in r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        inv = 1 / pr[col]
        rows[rank] = [x * inv for x in pr]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def _independent_subset(points: list, target_rank: int) -> list:
    """Greedy affinely independent subset of size target_rank + 1."""
    subset = [points[0]]
    rank = 0
    for p in points[1:]:
        if affine_rank(subset + [p]) > rank:
            subset.append(p)
            rank += 1
            if rank == target_rank:
                break
    return subset


# ---------------------------------------------------------------------------
# hyperplanes through rational points
# ---------------------------------------------------------------------------


def hyperplane_through(points: list) -> Hyperplane:
    """Deterministic hyperplane containing the given affinely dependent points.

    The normal is the last column of the complete QR factorization of the
    matrix of difference vectors p_i - p_0, with the sign fixed so that the
    first component exceeding 1e-9 in magnitude is positive.  With fewer than
    d affinely independent differences the hyperplane is not unique; this rule
    pins a reproducible representative.
    """
    if not points:
        raise ValueError("need at least one point")
    d = points[0].dim
    base = points[0].as_float()
    diffs = np.array([p.as_float() - base for p in points[1:]], dtype=float).T
    if diffs.size == 0:
        diffs = np.zeros((d, 0))
    q, _ = np.linalg.qr(diffs, mode="complete")
    normal = q[:, -1]
    for c in normal:
        if abs(c) > 1e-9:
            if c < 0:
                normal = -normal
            break
    normal = normal / np.linalg.norm(normal)
    return Hyperplane(normal, float(np.dot(normal, base)))


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of the rationals-on-a-hyperplane check.

    Exactly one of `hyperplane` and `simplex` is set.  A simplex means d+1 of
    the input points were affinely independent (exact arithmetic), i.e. the
    volume obstruction failed.
    """

    hyperplane: Hyperplane | None = None
    simplex: Simplex | None = None

    @property
    def is_hyperplane(self) -> bool:
        return self.hyperplane is not None


def hyperplane_witness(points: list, container: Ball, block: DyadicScale) -> WitnessResult:
    """Find the hyperplane carrying all block-n rationals near a ball D_n.

    Preconditions: every point has denominator in [2^n, 2^(n+1)), lies in the
    6-dilate of `container`, and `container` has the block radius r_n.  Under
    these conditions d+1 affinely independent points would span a simplex of
    volume > |6 D_n|, which is impossible; the affine rank is decided exactly,
    and if the impossible configuration nevertheless occurs (precondition
    breach, eg. an oversized container) the offending Simplex is returned as
    the counterexample.
    """
    d = container.dim
    if abs(container.radius - block.r_n) > 1e-12 * max(block.r_n, 1.0):
        raise ValueError(
            f"container radius {container.radius} does not match block radius {block.r_n}"
        )
    six = container.dilate(6.0)
    for p in points:
        if p.dim != d:
            raise ValueError("point dimension does not match container")
        if not (block.q_lo <= p.denominator < block.q_hi):
            raise ValueError(
                f"denominator {p.denominator} outside dyadic block "
                f"[{block.q_lo}, {block.q_hi})"
            )
        if np.linalg.norm(p.as_float() - six.center) > six.radius * (1.0 + 1e-9):
            raise ValueError("point lies outside the 6-dilate of the container")

    if not points:
        # no rationals at all: any hyperplane works; pin one at the centre
        normal = np.zeros(d)
        normal[-1] = 1.0
        return WitnessResult(
            hyperplane=Hyperplane(normal, float(container.center[-1]))
        )

    distinct = list({p.value_key(): p for p in points}.values())
    if len(distinct) <= d:
        return WitnessResult(hyperplane=hyperplane_through(distinct))

    rank = affine_rank(distinct)
    if rank <= d - 1:
        return WitnessResult(hyperplane=hyperplane_through(distinct))
    return WitnessResult(simplex=Simplex(tuple(_independent_subset(distinct, d))))

