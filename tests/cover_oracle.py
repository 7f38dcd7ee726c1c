"""Full-scan reference implementations of the block-cover path.

These are the slow paths that the covers path of `fracapprox` must agree
with bit for bit: `enumerate_rationals` visits every denominator of the
block with scalar ceil/floor calls and de-duplicates on Fraction tuples,
`greedy_cover` tests every centre against each selected one, and
`reference_hs_upper_bound` assembles `analysis.hs_upper_bound` from them,
scanning the whole sample pool for every block ball.  Tests import them as
the oracle; nothing in the package uses them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

from fracapprox.analysis import HsTail, _cylinder_net
from fracapprox.approx import _ENUMERATION_CAP
from fracapprox.geometry import (
    Ball,
    Box,
    DyadicScale,
    RationalPoint,
    Slab,
    hyperplane_witness,
)
from fracapprox.ifs import sample_measure


def enumerate_rationals(d: int, n: int, window: Box) -> list:
    """All rational points p/q with 2^n <= q < 2^(n+1) inside the closed window.

    Representations are not reduced, but coincident values within a block are
    reported once (the representative with the smallest denominator).  Refuses
    windows whose estimated candidate count exceeds 10^8.
    """
    if window.dim != d:
        raise ValueError("window dimension mismatch")
    est = window.volume() * 2.0 ** ((d + 1) * (n + 1))
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
            six = dn.dilate(6.0)
            window = Box(six.center - six.radius, six.center + six.radius)
            pts = [p for p in enumerate_rationals(d, n, window)
                   if np.linalg.norm(p.as_float() - six.center)
                   <= six.radius * (1 + 1e-9)]
            if not pts:
                continue
            witness = hyperplane_witness(pts, dn, scale)
            assert witness.is_hyperplane
            slab = Slab(witness.hyperplane, sq * r)
            three = dn.dilate(3.0)
            dist = np.linalg.norm(pool - three.center, axis=1)
            pdist = np.abs(pool @ slab.plane.normal - slab.plane.offset)
            sel = pool[(dist <= three.radius) & (pdist <= slab.epsilon)]
            count = len(greedy_cover([Ball(p, r) for p in sel])[0])
            c_total += count
            c_max = max(c_max, count)
        rows.append((n, len(chosen), c_total, c_total * (3.0 * r) ** s))
        c_maxes.append(c_max)
    tails = tuple((k, float(sum(row[3] for row in rows[k - k_min:])))
                  for k in range(k_min, k_max + 1))
    return HsTail(s=s, rows=tuple(rows), tails=tails, c_max=tuple(c_maxes))
