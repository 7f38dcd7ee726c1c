"""Scalar and per-q reference implementations of the block-layer hit test.

These are the slow paths that `fracapprox.approx.layer_hit_masks` must agree
with bit for bit: `layer_membership` tests one point by walking every q of
the block, and `reference_hit_mask` is the per-q loop over all points that
served every dimension before the d = 1 sweep.  `sup_norm_scan` is the
sup-norm q-scan the layers decompose.  Tests import them as the oracle;
nothing in the package uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from cover_oracle import RationalPoint
from fracapprox.approx import PsiFunction
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
