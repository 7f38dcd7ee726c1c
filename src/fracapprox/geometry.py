"""Euclidean primitives: balls, boxes, dyadic scales, the common-radius
greedy covering construction, and the hyperplane witnesses of the simplex
lemma.  A hyperplane {x : normal . x = offset} is the pair (unit normal,
offset); the mass oracle takes slabs as arrays of such pairs and half-widths.

Everything here is immutable after construction and safe to use from
concurrent workers.  Block rationals are int64 arrays (numerators,
denominators, ball of each point); their affine ranks are decided exactly,
over the integers with arbitrary-precision Python ints; floating point is
used only where a tolerance is part of the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Ball",
    "Box",
    "DyadicScale",
    "unit_ball_volume",
    "hyperplane_through",
]


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

    def contains(self, x, tol: float = 0.0):
        v = np.asarray(x, dtype=float)
        return _each(v, np.all((v >= self.lo - tol) & (v <= self.hi + tol), axis=-1))

    def bounding_ball(self) -> Ball:
        c = 0.5 * (self.lo + self.hi)
        r = 0.5 * float(np.linalg.norm(self.sides))
        return Ball(c, max(r, np.finfo(float).tiny))


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


def _eliminate(rows: list) -> int:
    """The rank of an integer matrix (a list of rows of Python ints), by
    Bareiss fraction-free elimination with row swaps.

    A point p/q enters as the homogeneous row (q, p_1, ..., p_d); points are
    affinely independent iff their rows are linearly independent, and their
    affine rank is the rank less one.
    """
    m = [list(row) for row in rows]
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        for i in range(rank + 1, len(m)):
            m[i] = [(x * top[col] - m[i][col] * y) // prev for x, y in zip(m[i], top)]
        prev = top[col]
        rank += 1
    return rank


def _first_of_each_value(nums: np.ndarray, qs: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Ascending indices of the first point nums[i] / qs[i] (qs > 0) of each
    distinct value within each owner: equal values share the key of their
    reduced representation.  The lexsort is stable, so each run of equal
    keys starts at its smallest index."""
    g = np.gcd.reduce(np.column_stack((nums, qs)), axis=1)
    key = np.column_stack((owner, nums // g[:, None], qs // g))
    order = np.lexsort(key.T[::-1])
    key, first = key[order], np.ones(len(order), dtype=bool)
    first[1:] = (key[1:] != key[:-1]).any(axis=1)
    return np.sort(order[first])


# ---------------------------------------------------------------------------
# hyperplanes through rational points
# ---------------------------------------------------------------------------


def hyperplane_through(values: np.ndarray) -> tuple:
    """Deterministic hyperplane (unit normal, offset) containing the affinely
    dependent points that are the rows of the (m, d) float array `values`.

    The normal is the last column of the complete QR factorization of the
    matrix of difference vectors v_i - v_0, with the sign fixed so that the
    first component exceeding 1e-9 in magnitude is positive.  With fewer than
    d affinely independent differences the hyperplane is not unique; this rule
    pins a reproducible representative.
    """
    if not len(values):
        raise ValueError("need at least one point")
    base = values[0]
    q, _ = np.linalg.qr((values[1:] - base).T, mode="complete")
    normal = q[:, -1]
    for c in normal:
        if abs(c) > 1e-9:
            if c < 0:
                normal = -normal
            break
    normal = normal / np.linalg.norm(normal)
    return normal, float(np.dot(normal, base))


def _witness_block(nums: np.ndarray, qs: np.ndarray, owner: np.ndarray,
                   values: np.ndarray, centres: np.ndarray) -> tuple:
    """The hyperplanes carrying the block rationals nums[i] / qs[i] (int64,
    float values values[i]) of each ball k = owner[i], the row centres[k]:
    (counts (K,), normals (K, d), offsets (K,)), counts[k] the points of
    ball k.

    The points of a ball are meant to be the block-n rationals in the
    6-dilate of a D_n ball, as analysis._block_witness gives them (nothing
    here checks that again).  There d+1 affinely independent ones would span
    a simplex of volume > |6 D_n|, which is impossible (the simplex lemma).
    The affine rank is decided exactly, and a ball whose points nevertheless
    span a simplex is the counterexample: its row holds NaN.

    A ball with no points gets the hyperplane x_d = c_d through its centre,
    and a single point p/q the hyperplane x_d = p_d/q; in d = 1 a ball that
    holds a block rational holds just one.  Larger sets keep the first point
    of each value and take the exact rank of their homogeneous integer rows
    (q, p).
    """
    d = centres.shape[1]
    normals = np.zeros((len(centres), d))
    normals[:, -1] = 1.0
    offsets = centres[:, -1].copy()
    counts = np.bincount(owner, minlength=len(centres))
    lone = counts[owner] == 1
    offsets[owner[lone]] = values[lone, -1]
    many = np.flatnonzero(~lone)
    if many.size:  # each ball's first point of each value, by ball in point order
        many = many[_first_of_each_value(nums[many], qs[many], owner[many])]
        many = many[np.argsort(owner[many], kind="stable")]
    for rows in np.split(many, np.flatnonzero(np.diff(owner[many])) + 1) if many.size else []:
        k = int(owner[rows[0]])
        hom = np.column_stack((qs[rows], nums[rows])).tolist()
        if _eliminate(hom) <= d:  # affine rank <= d - 1
            normals[k], offsets[k] = hyperplane_through(values[rows])
        else:
            normals[k], offsets[k] = np.nan, np.nan
    return counts, normals, offsets
