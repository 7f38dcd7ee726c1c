"""Reference implementation of the open set condition check.

This is the three-branch check that `fracapprox.ifs._check_open_set_condition`
must agree with: `_image_shapes` maps the witness to ball, box or polygon
images (a 2-d box under rotating maps as the polygon of its `_box_corners`),
and one loop per kind checks containment and then every pair.  The same
witness and maps must be accepted or refused with the same message.  Tests
import it as the oracle; nothing in the package uses it.  The separating-axis
test `_polygons_open_disjoint` is shared with the package.
"""

from __future__ import annotations

import numpy as np

from fracapprox.geometry import Ball, Box
from fracapprox.ifs import ConvexPolygon, OpenSetConditionError, _polygons_open_disjoint


def _box_corners(box: Box) -> np.ndarray:
    d = box.dim
    corners = np.array(
        [[box.lo[i] if (m >> i) & 1 == 0 else box.hi[i] for i in range(d)]
         for m in range(2**d)]
    )
    return corners


def _image_shapes(maps, open_set):
    """Images of the witness under each map, in a homogeneous representation."""
    if isinstance(open_set, Ball):
        return "ball", [
            (m.apply(open_set.center), m.ratio * open_set.radius) for m in maps
        ]
    if isinstance(open_set, Box):
        if all(m.is_identity_rotation() for m in maps):
            images = []
            for m in maps:
                lo = m.apply(open_set.lo)
                hi = m.apply(open_set.hi)
                images.append((np.minimum(lo, hi), np.maximum(lo, hi)))
            return "box", images
        if open_set.dim != 2:
            raise OpenSetConditionError(
                "rotated box witnesses are only supported in R^2"
            )
        corners = _box_corners(open_set)
        hull = corners[[0, 1, 3, 2]]  # CCW order of a 2-d box
        return "polygon", [m.apply(hull) for m in maps]
    if isinstance(open_set, ConvexPolygon):
        return "polygon", [m.apply(open_set.vertices) for m in maps]
    raise OpenSetConditionError(f"unsupported open set witness {type(open_set)!r}")


def _check_open_set_condition(maps, open_set) -> None:
    """Verify the user-supplied witness: images disjoint and contained.

    Disjointness is of open interiors (boundary touching allowed); containment
    is in the closure of the witness.  Both use a tolerance scaled to the
    witness diameter.
    """
    kind, images = _image_shapes(maps, open_set)
    scale = (
        2.0 * open_set.radius
        if isinstance(open_set, Ball)
        else 2.0 * open_set.bounding_ball().radius
    )
    tol = 1e-9 * max(scale, 1.0)

    if kind == "ball":
        for i, (ci, ri) in enumerate(images):
            if float(np.linalg.norm(ci - open_set.center)) + ri > open_set.radius + tol:
                raise OpenSetConditionError(f"image {i} escapes the witness ball")
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                ci, ri = images[i]
                cj, rj = images[j]
                if float(np.linalg.norm(ci - cj)) < ri + rj - tol:
                    raise OpenSetConditionError(f"images {i} and {j} overlap")
        return

    if kind == "box":
        for i, (lo, hi) in enumerate(images):
            if np.any(lo < open_set.lo - tol) or np.any(hi > open_set.hi + tol):
                raise OpenSetConditionError(f"image {i} escapes the witness box")
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                lo1, hi1 = images[i]
                lo2, hi2 = images[j]
                separated = np.any(hi1 <= lo2 + tol) or np.any(hi2 <= lo1 + tol)
                if not separated:
                    raise OpenSetConditionError(f"images {i} and {j} overlap")
        return

    # polygon images
    for i, verts in enumerate(images):
        if not open_set.contains(verts, tol).all():
            raise OpenSetConditionError(f"image {i} escapes the witness")
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if not _polygons_open_disjoint(images[i], images[j], tol):
                raise OpenSetConditionError(f"images {i} and {j} overlap")
