"""Full-scan reference implementations of the block-cover path.

These are the slow paths that the covers path of `fracapprox` must agree
with bit for bit: `enumerate_rationals` visits every denominator of the
block with scalar ceil/floor calls and de-duplicates on Fraction tuples,
`first_of_each_value` dedupes with `np.unique` over the reduced keys,
`greedy_cover` tests every centre against each selected one,
`reference_hs_upper_bound` assembles `analysis.hs_upper_bound` from them,
scanning the whole sample pool for every block ball, and
`reference_audit_hyperplane_lemma` draws and enumerates one trial at a time.
`hyperplane_through` always takes the QR, also for a single point, and
`affine_rank` and `_independent_subset` decide ranks by Gauss-Jordan
elimination over Fractions.  Points and planes are the oracle's own types:
`RationalPoint` (p/q with exact equality and hashing), `Simplex` (the d+1
vertices a counterexample returns) and `Hyperplane` (a unit normal and an
offset).  Tests import them as the oracle; nothing in the package uses
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from fracapprox.analysis import (
    _NET_BUDGET,
    HsTail,
    LemmaAuditReport,
    _cylinder_net,
    _net_depth,
)
from fracapprox.approx import PsiFunction
from fracapprox.geometry import Ball, Box, DyadicScale, _reach
from fracapprox.ifs import IFSystem, sample_measure

_ENUMERATION_CAP = 10**8


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
class Hyperplane:
    """The hyperplane {x : normal . x = offset}, with a unit normal."""

    normal: np.ndarray
    offset: float

    def distance(self, x) -> float:
        return abs(float(np.dot(self.normal, np.asarray(x, dtype=float)) - self.offset))


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


def enumerate_rationals(d: int, n: int, window: Box) -> list:
    """All rational points p/q with 2^n <= q < 2^(n+1) inside the closed window.

    Representations are not reduced, but coincident values within a block are
    reported once (the representative with the smallest denominator).  Refuses
    windows whose estimated candidate count exceeds 10^8.
    """
    if window.dim != d:
        raise ValueError("window dimension mismatch")
    est = float(np.prod(window.sides)) * 2.0 ** ((d + 1) * (n + 1))
    if est > _ENUMERATION_CAP:
        raise ValueError(
            f"enumeration of ~{est:.2e} candidates refused; shrink the window"
        )
    slop = 1e-12
    seen = {}
    for q in range(2**n, 2 ** (n + 1)):
        ranges = []
        for i in range(d):
            p_lo = math.ceil(window.lo[i] * q - slop)
            p_hi = math.floor(window.hi[i] * q + slop)
            if p_hi < p_lo:
                ranges = None
                break
            ranges.append(range(p_lo, p_hi + 1))
        if ranges is None:
            continue
        for nums in product(*ranges):
            key = tuple(Fraction(p, q) for p in nums)
            if key not in seen:
                seen[key] = RationalPoint(nums, q)
    return list(seen.values())


def first_of_each_value(nums: np.ndarray, qs: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Ascending indices of the first point nums[i] / qs[i] of each distinct
    value within each owner, by `np.unique` over the rows (owner, reduced
    numerators, reduced denominator)."""
    g = np.gcd.reduce(np.column_stack((nums, qs)), axis=1)
    key = np.column_stack((owner, nums // g[:, None], qs // g))
    return np.sort(np.unique(key, axis=0, return_index=True)[1])


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
    order = np.lexsort(centers.T[::-1])  # lexicographic in coordinate order
    centers = centers[order]

    chosen_idx = []
    eligible = np.ones(len(centers), dtype=bool)
    two_r = 2.0 * r
    for i in range(len(centers)):
        if not eligible[i]:
            continue
        chosen_idx.append(i)
        gaps = np.linalg.norm(centers - centers[i], axis=1)
        eligible &= gaps > two_r
    chosen = [Ball(centers[i], r) for i in chosen_idx]
    return chosen, 3


def reference_hs_upper_bound(sys, psi, s, k_min, k_max, seed=0, pool_size=20_000):
    """hs_upper_bound over Ball lists, the oracle enumeration and greedy
    cover, and a whole-pool scan per block ball."""
    d = sys.dim
    sq = math.sqrt(d)
    rows = []
    c_maxes = []
    for n in range(k_min, k_max + 1):
        scale = DyadicScale(n, d)
        chosen, _ = greedy_cover([Ball(c, scale.r_n)
                                  for c in _cylinder_net(sys, scale.r_n)])
        pool = sample_measure(sys, pool_size, np.random.SeedSequence([seed, n]))
        r = float(psi(2.0**n))
        c_total = 0
        c_max = 0
        for dn in chosen:
            pts = _block_rationals_in_six_dilate(d, scale, dn)
            if not pts:
                continue
            plane, simplex = hyperplane_witness(pts, dn, scale)
            assert simplex is None
            dist = np.linalg.norm(pool - dn.center, axis=1)
            pdist = np.abs(pool @ plane.normal - plane.offset)
            sel = pool[(dist <= 3.0 * dn.radius) & (pdist <= sq * r)]
            count = len(greedy_cover([Ball(p, r) for p in sel])[0])
            c_total += count
            c_max = max(c_max, count)
        rows.append((n, len(chosen), c_total, c_total * (3.0 * r) ** s))
        c_maxes.append(c_max)
    tails = tuple((k, float(sum(row[3] for row in rows[k - k_min:])))
                  for k in range(k_min, k_max + 1))
    return HsTail(s=s, rows=tuple(rows), tails=tails, c_max=tuple(c_maxes))


def _block_rationals_in_six_dilate(d: int, scale: DyadicScale, dn: Ball) -> list:
    radius = 6.0 * dn.radius
    window = Box(dn.center - radius, dn.center + radius)
    pts = enumerate_rationals(d, scale.n, window)
    keep = []
    for p in pts:
        if np.linalg.norm(p.as_float() - dn.center) <= radius * (1 + 1e-9):
            keep.append(p)
    return keep


def reference_audit_hyperplane_lemma(
    d: int, n: int, n_balls: int, seed: int = 0, box_side: float = 1.0
) -> LemmaAuditReport:
    """audit_hyperplane_lemma with one centre draw and one enumeration per
    trial."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([seed, d, n]))
    scale = DyadicScale(n, d)
    max_pts = 0
    bad = 0
    for _ in range(n_balls):
        center = rng.random(d) * box_side
        ball = Ball(center, scale.r_n)
        pts = _block_rationals_in_six_dilate(d, scale, ball)
        max_pts = max(max_pts, len(pts))
        _, simplex = hyperplane_witness(pts, ball, scale)
        if simplex is not None:
            bad += 1
    return LemmaAuditReport(d=d, n=n, balls=n_balls, max_rationals=max_pts,
                            simplex_counterexamples=bad)


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


def hyperplane_through(points: list) -> Hyperplane:
    """geometry.hyperplane_through, taking the complete QR for any number
    of points."""
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


# ---------------------------------------------------------------------------
# The per-ball covers path: hs_upper_bound with one witness call and one
# pool window and greedy pass per block ball D_n, and the functions it calls,
# as they stood before the block passes replaced them.  Two names changed:
# hs_upper_bound is loop_hs_upper_bound and its block enumeration filter is
# _window_rationals_in_six_dilate, which now enumerates each window with this
# module's enumerate_rationals.  hyperplane_witness, used by every oracle
# here, calls this module's QR-only hyperplane_through.
# ---------------------------------------------------------------------------


def loop_hs_upper_bound(
    sys: IFSystem,
    psi: PsiFunction,
    s: float,
    k_min: int,
    k_max: int,
    seed: int = 0,
    pool_size: int = 20_000,
) -> HsTail:
    """Assemble the block-cover cost sum_n #D_n #C(D_n) (3 psi(2^n))^s and
    report its tails for starting blocks k_min..k_max.

    For each block ball D_n the rationals of the dyadic block inside the
    closed 6-dilate determine the slab (half-width sqrt(d) psi(2^n)); the slab
    mass inside 3 D_n is then covered by sample-centred balls of radius
    psi(2^n).  Balls whose 6-dilate holds no block rational contribute no
    cost.
    """
    if not 0 <= s:
        raise ValueError("s must be >= 0")
    if k_min < 0 or k_max < k_min:
        raise ValueError("need 0 <= k_min <= k_max")
    d = sys.dim
    sq = math.sqrt(d)
    rows = []
    c_maxes = []
    for n in range(k_min, k_max + 1):
        centres = _dn_centres(sys, n)
        pool = sample_measure(sys, pool_size, np.random.SeedSequence([seed, n]))
        order = np.argsort(pool[:, 0])
        x0 = pool[order, 0]
        r = float(psi(2.0**n))
        scale = DyadicScale(n, d)
        c_total = 0
        c_max = 0
        for c, pts in zip(centres, _window_rationals_in_six_dilate(d, scale, centres)):
            if not pts:
                continue
            dn = Ball(c, scale.r_n)
            plane, simplex = hyperplane_witness(pts, dn, scale)
            if simplex is not None:
                raise RuntimeError(
                    "volume obstruction failed inside hs_upper_bound; "
                    "this contradicts the block geometry"
                )
            count = len(_cdn_centres(pool, order, x0, dn, plane, sq * r, r))
            c_total += count
            c_max = max(c_max, count)
        cost_n = c_total * (3.0 * r) ** s
        rows.append((n, len(centres), c_total, cost_n))
        c_maxes.append(c_max)
    costs = [row[3] for row in rows]
    tails = []
    for k in range(k_min, k_max + 1):
        tails.append((k, float(sum(costs[k - k_min:]))))
    return HsTail(s=s, rows=tuple(rows), tails=tuple(tails), c_max=tuple(c_maxes))


def _window_rationals_in_six_dilate(d: int, scale: DyadicScale, centres) -> list:
    """For each row c of centres, the block rationals in the closed 6-dilate
    of the block ball B(c, r_n), from this module's enumeration of each
    window [c - 6 r_n, c + 6 r_n]."""
    radius = 6.0 * scale.r_n
    windows = [enumerate_rationals(d, scale.n, Box(c - radius, c + radius)) for c in centres]
    return [[p for p in pts if np.linalg.norm(p.as_float() - c) <= radius * (1 + 1e-9)]
            for c, pts in zip(centres, windows)]


def _dn_centres(sys: IFSystem, n: int) -> np.ndarray:
    """build_dn_cover's centres, as rows, with its net budget refusal (the
    net size compared as an exact integer)."""
    r_n = DyadicScale(n, sys.dim).r_n
    depth = _net_depth(sys, n)
    if sys.k**depth > _NET_BUDGET:
        raise ValueError(f"block {n} refused: its cylinder net of {sys.k}^{depth} "
                         f"candidates exceeds the budget of {_NET_BUDGET}")
    return _greedy_centres(_cylinder_net(sys, r_n), r_n)


def _cdn_centres(pool, order, x0, dn: Ball, plane: Hyperplane, eps: float,
                 r: float) -> np.ndarray:
    """The centres of C(D_n) for the one ball dn and the slab of half-width
    eps about `plane`, as rows.  `order` sorts the pool by its first
    coordinate, x0 = pool[order, 0], and only the rows within reach of 3 D_n
    in x0 are tested.  For d >= 2 slab distances come from the whole pool's
    product, as BLAS may round the rows of a slice's product differently."""
    c, radius = dn.center, 3.0 * dn.radius
    w = _reach(radius)
    rows = order[np.searchsorted(x0, c[0] - w):np.searchsorted(x0, c[0] + w, "right")]
    sub, normal = pool[rows], plane.normal
    proj = sub @ normal if normal.size == 1 else (pool @ normal)[rows]
    keep = ((np.linalg.norm(sub - c, axis=1) <= radius)
            & (np.abs(proj - plane.offset) <= eps))
    return _greedy_centres(sub[keep], r)


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


def hyperplane_witness(points: list, container: Ball, block: DyadicScale) -> tuple:
    """Find the hyperplane carrying all block-n rationals near a ball D_n:
    (hyperplane, None), or (None, simplex) for a counterexample.

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
    six = Ball(container.center, 6.0 * container.radius)
    q_lo, q_hi = 2**block.n, 2 ** (block.n + 1)
    for p in points:
        if p.dim != d:
            raise ValueError("point dimension does not match container")
        if not (q_lo <= p.denominator < q_hi):
            raise ValueError(
                f"denominator {p.denominator} outside dyadic block [{q_lo}, {q_hi})"
            )
        if np.linalg.norm(p.as_float() - six.center) > six.radius * (1.0 + 1e-9):
            raise ValueError("point lies outside the 6-dilate of the container")

    if not points:
        # no rationals at all: any hyperplane works; pin one at the centre
        normal = np.zeros(d)
        normal[-1] = 1.0
        return Hyperplane(normal, float(container.center[-1])), None

    distinct = list({p.fractions(): p for p in points}.values())
    if len(distinct) <= d:
        return hyperplane_through(distinct), None

    rank = affine_rank(distinct)
    if rank <= d - 1:
        return hyperplane_through(distinct), None
    return None, Simplex(tuple(_independent_subset(distinct, d)))
