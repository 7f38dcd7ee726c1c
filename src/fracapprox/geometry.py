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
    "unit_ball_volume",
    "simplex_volume_times_dfact",
    "affine_rank",
    "hyperplane_through",
]

_UNIT_TOL = 1e-12


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d point, got shape {v.shape}")
    v.flags.writeable = False
    return v


def _each(x: np.ndarray, inside):
    """A contains(x, tol) answer: a bool for one point x, a bool array for
    the rows of an (N, d) array x."""
    return bool(inside) if x.ndim == 1 else inside


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

    def contains(self, x, tol: float = 0.0):
        v = np.asarray(x, dtype=float)
        return _each(v, np.linalg.norm(v - self.center, axis=-1) <= self.radius + tol)


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

    def contains(self, x, tol: float = 0.0):
        v = np.asarray(x, dtype=float)
        return _each(v, np.all((v >= self.lo - tol) & (v <= self.hi + tol), axis=-1))

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
        return hash(self.fractions())


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


def _reach(bound):
    """Largest coordinate gap of two points whose float distance is <= bound
    (a float or an array): a few ulps past it; below 1e-150 squares underflow."""
    return np.maximum(bound * (1.0 + 1e-9), 1e-150)


def _greedy_segments(rows: np.ndarray, seg: np.ndarray, r: float) -> tuple:
    """The common-radius greedy cover of each segment rows[seg == s], run on
    every segment at once: (chosen rows, their segment ids), by segment, each
    in visiting order.

    A segment's rows are visited in lexicographic order, and a row is chosen
    iff it lies strictly outside B(c, 2r) for every chosen row c before it.
    The chosen balls B(c, r) are pairwise disjoint (centre gaps > 2r), and
    every row lies within 2r of a chosen one, so the 3-dilates of the chosen
    balls cover the balls of radius r around all the rows.

    Only the later rows within _reach(2r) of a chosen row in the first
    coordinate can fail the test `gap > 2r`, so only they are tested, each
    with its own row `norm`.  A row that no earlier row of its segment
    reaches starts a stretch, which no earlier choice can touch.  Each round
    chooses the first eligible row of every stretch and drops the later rows
    within 2r of it; the rounds number the largest count chosen in any
    stretch.
    """
    order = np.lexsort((*rows.T[::-1], seg))  # by segment, then lexicographic
    rows, seg = rows[order], seg[order]
    n = len(rows)
    two_r = 2.0 * r
    ends = _segment_ends(seg, rows[:, 0], rows[:, 0] + _reach(two_r))
    starts = np.ones(n, dtype=bool)
    starts[1:] = ends[:-1] <= np.arange(1, n)
    heads = np.flatnonzero(starts)
    stops = np.append(heads[1:], n)
    eligible = np.ones(n, dtype=bool)
    chosen = []
    while heads.size:
        chosen.append(heads)
        nxt = _next_heads(rows, ends, eligible, heads, two_r)
        more = nxt < stops
        heads, stops = nxt[more], stops[more]
    picked = np.sort(np.concatenate(chosen)) if chosen else np.zeros(0, dtype=np.intp)
    return rows[picked], seg[picked]


def _next_heads(rows, ends, eligible, heads, two_r) -> np.ndarray:
    """One greedy round: drop from `eligible` the rows of each head's window
    within 2r of the head, and give each head's successor, the first row
    left in its window or else the window's end."""
    nxt = ends[heads]
    span = nxt - heads - 1
    if span.any():
        group = np.repeat(np.arange(heads.size), span)
        near = np.arange(group.size) + np.repeat(heads + 1 - (np.cumsum(span) - span), span)
        gaps = np.linalg.norm(rows[near] - rows[heads[group]], axis=1)
        eligible[near] &= gaps > two_r
        left = np.flatnonzero(eligible[near])
        owner = group[left]
        first = left[np.concatenate(([True], owner[1:] != owner[:-1]))] if left.size else left
        nxt[group[first]] = near[first]
    return nxt


def _segment_ends(seg: np.ndarray, x: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """For rows sorted by (seg, x): one past the last row j of row i's segment
    with x[j] <= bound[i], the side="right" searchsorted of each segment.
    The bounds, sorted in with the rows (a row before an equal bound), fall
    in row order when bound is non-decreasing in x."""
    n = len(x)
    merged = np.lexsort((np.r_[np.zeros(n), np.ones(n)], np.r_[x, bound], np.r_[seg, seg]))
    return np.flatnonzero(merged >= n) - np.arange(n)


# ---------------------------------------------------------------------------
# exact rational linear algebra
# ---------------------------------------------------------------------------


def _eliminate(rows: list) -> tuple:
    """Bareiss fraction-free elimination of an integer matrix (a list of rows
    of Python ints), with row swaps: (rank, signed last pivot).  For a square
    matrix of full rank the signed last pivot is the determinant.

    A point p/q enters as the homogeneous row (q, p_1, ..., p_d); points are
    affinely independent iff their rows are linearly independent.
    """
    m = [list(row) for row in rows]
    rank, sign, prev = 0, 1, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        top = m[rank]
        for i in range(rank + 1, len(m)):
            m[i] = [(x * top[col] - m[i][col] * y) // prev for x, y in zip(m[i], top)]
        prev = top[col]
        rank += 1
    return rank, sign * prev


def simplex_volume_times_dfact(s: Simplex) -> Fraction:
    """Exact d! * volume of a rational simplex.

    Equals |det| of the (d+1)x(d+1) matrix with rows (1, p_i/q_i): the
    determinant of the homogeneous rows (q_i, p_i), divided by the product
    of the q_i.  Zero iff the vertices are affinely dependent.
    """
    rank, pivot = _eliminate([[v.denominator, *v.numerators] for v in s.vertices])
    return Fraction(abs(pivot) if rank == len(s.vertices) else 0,
                    math.prod(v.denominator for v in s.vertices))


def affine_rank(points: list) -> int:
    """Exact affine rank of a set of RationalPoints (0 for a single point):
    the rank of their homogeneous rows, less one.  The points all lie on a
    hyperplane of R^d iff the affine rank is <= d - 1.
    """
    if not points:
        raise ValueError("affine_rank needs at least one point")
    return _eliminate([[p.denominator, *p.numerators] for p in points])[0] - 1


def _independent_subset(rows: list, size: int) -> list:
    """Indices of the first `size` linearly independent integer rows, each
    kept iff it raises the rank of the rows kept before it."""
    keep = []
    for i, row in enumerate(rows):
        if len(keep) < size and _eliminate([rows[j] for j in keep] + [row])[0] > len(keep):
            keep.append(i)
    return keep


def _first_of_each_value(nums: np.ndarray, qs: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Ascending indices of the first point nums[i] / qs[i] (qs > 0) of each
    distinct value within each owner: equal values share the key of their
    reduced representation."""
    g = np.gcd.reduce(np.column_stack((nums, qs)), axis=1)
    key = np.column_stack((owner, nums // g[:, None], qs // g))
    return np.sort(np.unique(key, axis=0, return_index=True)[1])


# ---------------------------------------------------------------------------
# hyperplanes through rational points
# ---------------------------------------------------------------------------


def hyperplane_through(values: np.ndarray) -> Hyperplane:
    """Deterministic hyperplane containing the affinely dependent points that
    are the rows of the (m, d) float array `values`.

    The normal is the last column of the complete QR factorization of the
    matrix of difference vectors v_i - v_0, with the sign fixed so that the
    first component exceeding 1e-9 in magnitude is positive.  With fewer than
    d affinely independent differences the hyperplane is not unique; this rule
    pins a reproducible representative.
    """
    if not len(values):
        raise ValueError("need at least one point")
    base = values[0]
    if len(values) == 1:  # the complete QR of a (d, 0) matrix is the identity
        normal = np.eye(len(base))[-1]
        return Hyperplane(normal, float(np.dot(normal, base)))
    q, _ = np.linalg.qr((values[1:] - base).T, mode="complete")
    normal = q[:, -1]
    for c in normal:
        if abs(c) > 1e-9:
            if c < 0:
                normal = -normal
            break
    normal = normal / np.linalg.norm(normal)
    return Hyperplane(normal, float(np.dot(normal, base)))


def _witness_block(nums: np.ndarray, qs: np.ndarray, owner: np.ndarray,
                   centres: np.ndarray, block: DyadicScale) -> tuple:
    """Find the hyperplane carrying the block-n rationals nums[i] / qs[i]
    (int64) near each ball D_n = B(centres[owner[i]], r_n) of one block:
    (normals (K, d), offsets (K,), {k: Simplex} for the balls whose points
    span a simplex; their rows hold NaN).

    Preconditions: every point has denominator in [2^n, 2^(n+1)) and lies in
    the 6-dilate of its ball.  Then d+1 affinely independent points would
    span a simplex of volume > |6 D_n|, which is impossible; the affine rank
    is decided exactly, and if the impossible configuration nevertheless
    occurs the offending Simplex is returned as the counterexample.

    The preconditions are checked on arrays, and the first point that breaks
    one raises ValueError.  A ball with no points gets the hyperplane
    x_d = c_d through its centre, and a single point p/q the hyperplane
    x_d = p_d/q; in d = 1 a ball that holds a block rational holds just one.
    Larger sets keep the first point of each value and take the exact rank
    of their homogeneous integer rows (q, p); RationalPoints are built only
    for a counterexample.
    """
    d = centres.shape[1]
    q_lo, q_hi = block.q_lo, block.q_hi
    values = nums / qs[:, None]
    wrong_q = (qs < q_lo) | (qs >= q_hi)
    far = _outside_six_dilate(values, centres[owner], block.r_n)
    faults = np.flatnonzero(wrong_q | far)
    if faults.size and wrong_q[faults[0]]:
        raise ValueError(f"denominator {qs[faults[0]]} outside dyadic block "
                         f"[{q_lo}, {q_hi})")
    if faults.size:
        raise ValueError("point lies outside the 6-dilate of the container")

    normals = np.zeros((len(centres), d))
    normals[:, -1] = 1.0
    offsets = centres[:, -1].copy()
    counts = np.bincount(owner, minlength=len(centres))
    lone = counts[owner] == 1
    offsets[owner[lone]] = values[lone, -1]
    simplices = {}
    many = np.flatnonzero(~lone)
    if many.size:  # each ball's first point of each value, by ball in point order
        many = many[_first_of_each_value(nums[many], qs[many], owner[many])]
        many = many[np.argsort(owner[many], kind="stable")]
    for rows in np.split(many, np.flatnonzero(np.diff(owner[many])) + 1) if many.size else []:
        k = int(owner[rows[0]])
        hom = np.column_stack((qs[rows], nums[rows])).tolist()
        if _eliminate(hom)[0] <= d:  # affine rank <= d - 1
            plane = hyperplane_through(values[rows])
            normals[k], offsets[k] = plane.normal, plane.offset
        else:
            simplices[k] = Simplex(tuple(RationalPoint(hom[i][1:], hom[i][0])
                                         for i in _independent_subset(hom, d + 1)))
            normals[k], offsets[k] = np.nan, np.nan
    return normals, offsets, simplices


def _outside_six_dilate(values: np.ndarray, centres: np.ndarray, r_n: float) -> np.ndarray:
    """Which rows of values lie outside the closed 6-dilate of B(centres, r_n),
    with a relative slack of 1e-9: the one test both the block-rational
    filter and the witness preconditions decide by."""
    return np.linalg.norm(values - centres, axis=1) > 6.0 * r_n * (1.0 + 1e-9)
