"""Scalar and per-q reference implementations of the block-layer hit test.

These are the slow paths that `fracapprox.approx.layer_hit_masks` must agree
with bit for bit: `layer_membership` tests one point by walking every q of
the block, and `reference_hit_mask` is the per-q loop over all points that
served every dimension before the d = 1 sweep.  `convergent_hit_mask` is the
continued-fraction kernel that tested each convergent as the Euclid run made
it and let a point leave once every block it could still hit was closed;
`fracapprox.approx._convergent_hit_mask` must give its masks.
`sup_norm_scan` is the sup-norm q-scan the layers decompose.  Tests import
them as the oracle; nothing in the package uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from cover_oracle import RationalPoint
from fracapprox.approx import _EXPAND_SLICE, PsiFunction
from fracapprox.geometry import Ball, Box

_ENUMERATION_CAP = 10**8


@dataclass(frozen=True)
class ApproxLayer:
    """Block-n layer: union of Euclidean balls B(p/q, sqrt(d) psi(q)) over
    all rationals with denominator in [2^n, 2^(n+1)), restricted to a window."""

    n: int
    d: int
    region: object  # Ball or Box
    psi: PsiFunction

    def contains(self, x) -> bool:
        member, _ = layer_membership(x, self)
        return member


def _offsets(m: int, d: int):
    return product(range(-m, m + 1), repeat=d)


def layer_membership(x, layer: ApproxLayer) -> tuple:
    """Test x against the block-n layer; returns (member, witness | None).

    Per q the rounded candidate suffices while sqrt(d) psi(q) q < 1/2 (the
    Euclidean ball then contains at most one rational with denominator q, and
    it is the sup-norm-nearest one); beyond that the integer neighborhood of
    the rounded candidate is enumerated.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    d = layer.d
    if xv.shape[0] != d:
        raise ValueError("point dimension does not match the layer")
    region = layer.region
    inside = (
        region.contains(xv)
        if isinstance(region, (Ball, Box))
        else False
    )
    if not inside:
        raise ValueError("point lies outside the layer's region")
    sq = math.sqrt(d)
    for q in range(2**layer.n, 2 ** (layer.n + 1)):
        radius = sq * layer.psi(float(q))
        if not np.isfinite(radius):
            p = np.rint(xv * q)
            return True, RationalPoint(tuple(int(v) for v in p), q)
        half = radius * q
        p0 = np.rint(xv * q)
        if half < 0.5:
            cand = p0 / q - xv
            if float(np.dot(cand, cand)) <= radius * radius:
                return True, RationalPoint(tuple(int(v) for v in p0), q)
            continue
        m = math.floor(half + 0.5)
        if (2 * m + 1) ** d > _ENUMERATION_CAP:
            raise ValueError("layer ball too large to enumerate; shrink psi or n")
        r2 = radius * radius
        for off in _offsets(m, d):
            p = p0 + np.asarray(off, dtype=float)
            diff = p / q - xv
            if float(np.dot(diff, diff)) <= r2:
                return True, RationalPoint(tuple(int(v) for v in p), q)
    return False, None


def reference_hit_mask(points: np.ndarray, n: int, psi: PsiFunction, d: int) -> np.ndarray:
    """Vectorized layer membership for many points at once.

    points has shape (N, d).  Same candidate logic as layer_membership, with
    the rounded candidate extended to its integer neighborhood when the ball
    radius calls for it.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"expected points of shape (N, {d})")
    hits = np.zeros(pts.shape[0], dtype=bool)
    sq = math.sqrt(d)
    for q in range(2**n, 2 ** (n + 1)):
        radius = sq * psi(float(q))
        if not np.isfinite(radius):
            hits[:] = True
            return hits
        todo = ~hits
        if not todo.any():
            break
        sub = pts[todo]
        half = radius * q
        p0 = np.rint(sub * q)
        m = 0 if half < 0.5 else math.floor(half + 0.5)
        r2 = radius * radius
        found = np.zeros(sub.shape[0], dtype=bool)
        for off in _offsets(m, d):
            diff = (p0 + np.asarray(off, dtype=float)) / q - sub
            found |= np.einsum("ij,ij->i", diff, diff) <= r2
        hits[todo] = found
    return hits


def sup_norm_scan(x, psi, q_max: int) -> np.ndarray:
    """The q = 1..q_max with a sup-norm approximation |x - p/q| <= psi(q).

    The per-coordinate rounding p_i = rint(x_i q) minimizes the sup norm, so
    the scan is exact.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    qs = np.arange(1, q_max + 1, dtype=float)
    prods = xv[None, :] * qs[:, None]
    sup_err = np.max(np.abs(prods - np.rint(prods)), axis=1) / qs
    return qs[sup_err <= psi(qs)].astype(np.int64)


def convergent_hit_mask(x: np.ndarray, ns, r2s: np.ndarray) -> np.ndarray:
    """The layer masks, (len(ns), x.size), of the d = 1 blocks ns, in
    ascending order, on the finite points x, from the blocks' r^2 per q one
    block after another in r2s, under three conditions per block: every
    float hit p/q lies within 1/(2 q^2) of its point (the Legendre
    condition), |x| q < 2^52 (the sweep's bound) and r^2 is non-increasing
    over the block.  A one-block call is the kernel of that block alone.

    A point hits block n iff, for one of its convergents a/b with b <
    2^(n+1), the float test (a/b - |x|)^2 <= r^2 passes at the smallest
    block multiple q0 of b.  By Legendre's theorem a float hit p/q, in lowest
    terms a/b, is a convergent of x (-a/b one of -x, the same gap with the
    other sign), and IEEE division rounds every multiple (t a)/(t b) to the
    float of a/b, so each block multiple compares one gap with its own r^2:
    the smallest, with the largest r^2, passes if any does.  Under the
    conditions the q loop's numerator test never rejects a float hit: |x q -
    p| < 1/(2 q), fl(x q) is within 1/4 of x q, so rint(fl(x q)) = p, and m
    = 0.

    One Euclid run per point, up to 2^(N+1) for the largest block N, decides
    every block: the convergents below 2^(n+1) are a prefix of it.  |x| = F +
    M/2^E with F = floor(|x|) and 2^52 <= M < 2^53 is expanded _EXPAND_SLICE
    points at a time, and every quotient is exact.  When 2^E/M > 2^(N+2) the
    first quotient puts the next denominator past every block, and F/1 is
    the only convergent.  Otherwise E <= N + 54: the first remainder is the
    exact IEEE fmod(2^E, M), the first quotient an integer of at most
    2^(N+2) that float division gets to far less than 1/2, and the later
    steps divide int64 values below 2^53.  A quotient of 2^(N+1) stands for
    the end of the run.

    At each convergent a/b the run first compares the squared gap with the
    largest r^2 (a block's first) of the open blocks, those with b <
    2^(n+1); only a point within it is tested against each open block that
    it has not hit and whose first r^2 the gap meets, at that block's
    smallest multiple of b, against that block's own r^2.  A point leaves
    once its next denominator reaches its stop: 2^(n+1) of the largest open
    block it has not hit, 0 once there is none.  A point that left is
    parked, a1/b1 = a0/b0 with quotient 0, which the step keeps fixed, and
    the state columns are compacted only when fewer than half of their rows
    are live.
    """
    lims = np.array([2 ** (n + 1) for n in ns], dtype=np.int64)
    los, lim, every = lims // 2, int(lims[-1]), (1 << len(ns)) - 1
    # block k's r^2 at q is r2s[q + start[k]]
    start = np.cumsum(los) - 2 * los
    # cap[k]: the largest r^2 (a block's first) of the blocks k, k + 1, ...,
    # and -1 past the last
    firsts = r2s[start + los]
    cap = np.append(np.maximum.accumulate(firsts[::-1])[::-1], -1.0)
    hits = np.zeros((len(ns), x.size), dtype=bool)
    for s in range(0, x.size, _EXPAND_SLICE):
        y = np.abs(x[s:s + _EXPAND_SLICE])
        got = hits[:, s:s + _EXPAND_SLICE]
        whole = np.floor(y)
        frac = y - whole  # exact: whole <= y < 2 whole, or whole = 0
        # a far point's run ends at F/1; for the rest, frac = big / low
        far = frac < 2.0 ** -(ns[-1] + 2)
        mant, exp = np.frexp(np.where(far, 0.5, frac))
        big, low = np.ldexp(mant, 53), np.ldexp(1.0, 53 - exp)
        rem = np.fmod(low, big)
        quot = np.where(far, lim, np.rint((low - rem) / big))
        # per point: its index and |x|, the convergent a1/b1 to test, the one
        # before it a0/b0, the next quotient, the remainder pair (u, v) it
        # leaves, its stop and the bit set of the blocks it has hit
        one = np.ones(y.size, dtype=np.int64)
        state = [np.arange(y.size), y, whole.astype(np.int64), one, one.copy(),
                 np.zeros_like(one), *(col.astype(np.int64) for col in (quot, big, rem)),
                 np.full(y.size, lim), np.zeros_like(one)]
        live = np.ones(y.size, dtype=bool)
        while state[0].size:
            at, yv, a1, b1, a0, b0, quot, u, v, stop, held = state
            gap = a1 / b1 - yv
            g2 = gap * gap
            # the blocks from opened on are open (b1 < 2^(n+1)): the prefilter
            opened = np.searchsorted(lims, b1, side="right")
            near = np.flatnonzero(live & (g2 <= cap[opened]))
            if near.size:
                b, g, have, lo = b1[near], g2[near], held[near], opened[near]
                # the open blocks with a cap of at least g2: list those pairs
                count = np.searchsorted(-cap, -g, side="right") - lo
                c = np.repeat(np.arange(near.size), count)
                k = np.arange(c.size) + np.repeat(lo - np.cumsum(count) + count, count)
                # each pair not yet hit and within its block's largest r^2 is
                # decided by the float test at the smallest multiple of b1
                keep = ((have[c] >> k) & 1 == 0) & (g[c] <= firsts[k])
                c, k = c[keep], k[keep]
                q0 = -(-los[k] // b[c]) * b[c]
                hit = g[c] <= r2s[q0 + start[k]]
                c, k = c[hit], k[hit]
                got[k, at[near[c]]] = True
                np.bitwise_or.at(have, c, 1 << k)
                held[near] = have
                # stop: 2^(n+1) of the largest block still needed (open and
                # not hit), 0 if none
                need = every & ~have & ~((1 << lo) - 1)
                stop[near] = np.where(need > 0, lims[np.frexp(need)[1] - 1], 0)
            go = live & (np.minimum(quot, lim) * b1 + b0 < stop)
            if 2 * np.count_nonzero(go) < go.size:
                state = [col[go] for col in state]
                live = np.ones(state[0].size, dtype=bool)
            else:
                left = np.flatnonzero(live & ~go)
                a0[left], b0[left] = a1[left], b1[left]
                live = go
            at, yv, a1, b1, a0, b0, quot, u, v, stop, held = state
            step = quot * live  # 0 keeps a parked a1/b1
            nxt, rem = np.divmod(u, np.maximum(v, 1))
            state = [at, yv, step * a1 + a0, step * b1 + b0, a1, b1,
                     np.where(v > 0, nxt, lim), v, rem, stop, held]
    return hits
