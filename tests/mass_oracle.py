"""Single-query reference implementation of the certified mass oracle.

This is the slow path that `fracapprox.ifs.measure_many` must agree with bit
for bit: `_subdivide` runs one cylinder subdivision per ball or slab, with
the one-query frontier of `_Frontier`, and `measure_of_ball` and
`measure_of_slab_in_ball` classify its cylinders against one region.  A
query is the oracle's own region: a `Ball`, or a pair of a `Ball` and this
module's `Slab`; `as_arrays` gives the arrays `measure_many` takes for a
list of them.  Tests import them as the oracle; nothing in the package uses
them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from fracapprox.geometry import Ball
from fracapprox.ifs import MAX_SUBDIVISION_DEPTH, IFSystem, MassInterval


class Slab(NamedTuple):
    """The epsilon-neighbourhood {x : |normal . x - offset| <= epsilon} of a
    hyperplane with a unit normal."""

    normal: np.ndarray
    offset: float
    epsilon: float


def as_arrays(queries: list, d: int) -> tuple:
    """(centers, radii, slabs) for measure_many: one row per query, a plain
    ball as an uncut row (zero normal, offset 0, half-width inf)."""
    balls = [q if isinstance(q, Ball) else q[0] for q in queries]
    cuts = [Slab(np.zeros(d), 0.0, math.inf) if isinstance(q, Ball) else q[1]
            for q in queries]
    centers = np.array([b.center for b in balls], dtype=float).reshape(len(balls), d)
    normals = np.array([s.normal for s in cuts], dtype=float).reshape(len(cuts), d)
    return (centers, np.array([b.radius for b in balls], dtype=float),
            (normals, np.array([s.offset for s in cuts], dtype=float),
             np.array([s.epsilon for s in cuts], dtype=float)))


def measure(sys: IFSystem, query, tol: float) -> MassInterval:
    """The interval of one query, a Ball or a (Ball, Slab) pair."""
    if isinstance(query, Ball):
        return measure_of_ball(sys, query, tol)
    return measure_of_slab_in_ball(sys, *query, tol)


class _Frontier:
    """The cylinders of one subdivision, as the maps x -> scale rot x + trans.

    One row per cylinder, with its natural-measure weight.  The rotation
    stack exists only when the system rotates: composing identity matrices
    gives the same bits but made mass evaluation on the rotation-free
    cantor and gasket systems 1.5-2.5x slower.
    """

    def __init__(self, sys: IFSystem):
        d = sys.dim
        self.sys = sys
        self.trans = np.zeros((1, d))
        self.scale = np.ones(1)
        self.weight = np.ones(1)
        self.rot = (np.broadcast_to(np.eye(d), (1, d, d)).copy()
                    if sys.has_rotations else None)

    def image(self, point: np.ndarray) -> np.ndarray:
        """Images of `point` under every cylinder map, one row each."""
        if self.rot is None:
            return self.scale[:, None] * point + self.trans
        return self.scale[:, None] * np.einsum("nij,j->ni", self.rot, point) + self.trans

    def expand(self, mask: np.ndarray) -> None:
        """Replace the frontier by the children of the cylinders in `mask`,
        grouped by the map applied last."""
        sys = self.sys
        trans, scale, weight = self.trans[mask], self.scale[mask], self.weight[mask]
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


def _subdivide(sys: IFSystem, classify, tol: float) -> MassInterval:
    """Shared cylinder-subdivision engine.

    `classify(centers, radii)` receives the enclosure balls of the current
    frontier (vectorized) and returns boolean masks (inside, outside) for the
    target region.  Cylinders fully inside contribute their weight to both
    bounds and fully outside contribute nothing.  Straddling cylinders are
    expanded; ones below the weight floor tol/1024 may instead be frozen as
    permanent upper-bound mass, but only while the frozen total stays under
    tol/4, so the pruning can never cost the width contract.
    """
    if tol < 1e-9:
        raise ValueError(
            "tolerance below the float certification floor 1e-9"
        )
    c0 = sys.bounding_ball.center
    r0 = sys.bounding_ball.radius
    floor = tol / 1024.0
    cyl = _Frontier(sys)

    lo = 0.0
    frozen = 0.0
    depth = 0
    while True:
        weight = cyl.weight
        inside, outside = classify(cyl.image(c0), cyl.scale * r0)
        lo += float(weight[inside].sum())
        keep = ~inside & ~outside
        tiny = keep & (weight < floor)
        # the floor only prunes while the frozen mass stays well under tol,
        # otherwise the width contract could be lost to many tiny straddlers
        if tiny.any() and frozen + float(weight[tiny].sum()) <= 0.25 * tol:
            frozen += float(weight[tiny].sum())
            expandable = keep & ~tiny
        else:
            expandable = keep
        active = float(weight[expandable].sum())
        # absorb float slop (Moran-root error in the cylinder weights plus
        # accumulated rounding) so the enclosure stays certified
        pad = 2e-10 if (lo + frozen + active) > 0.0 else 0.0
        plo = max(lo - pad, 0.0)
        phi = min(lo + frozen + active + pad, 1.0)
        if phi - plo <= tol:
            return MassInterval(plo, phi, True, depth)
        if depth >= MAX_SUBDIVISION_DEPTH or not expandable.any():
            return MassInterval(plo, phi, False, depth)
        cyl.expand(expandable)
        depth += 1


def measure_of_ball(sys: IFSystem, b: Ball, tol: float) -> MassInterval:
    """Interval enclosing mu(b intersect K), of width <= tol when converged."""
    bc = np.asarray(b.center, dtype=float)
    br = float(b.radius)

    def classify(centers, radii):
        dist = np.linalg.norm(centers - bc, axis=1)
        return dist + radii <= br, dist >= br + radii

    return _subdivide(sys, classify, tol)


def measure_of_slab_in_ball(sys: IFSystem, b: Ball, s: Slab, tol: float) -> MassInterval:
    """Interval enclosing mu(b intersect slab intersect K)."""
    bc = np.asarray(b.center, dtype=float)
    br = float(b.radius)
    normal, offset, eps = s

    def classify(centers, radii):
        dist = np.linalg.norm(centers - bc, axis=1)
        pdist = np.abs(centers @ normal - offset)
        inside = (dist + radii <= br) & (pdist + radii <= eps)
        outside = (dist >= br + radii) | (pdist >= eps + radii)
        return inside, outside

    return _subdivide(sys, classify, tol)
