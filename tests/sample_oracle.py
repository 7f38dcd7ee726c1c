"""Reference implementation of the natural-measure sampler.

This is the slow path that `fracapprox.ifs._draw_digits` and
`fracapprox.ifs._fold_digits` must agree with bit for bit: the digits come
from `rng.choice` with the normalised weights, as int64, and the fold walks
the columns of the (count, depth) digit array on (count, d) points.  Tests
import them as the oracle; nothing in the package uses them.
"""

from __future__ import annotations

import numpy as np

from fracapprox.ifs import SAMPLE_DEPTH, IFSystem


def _draw_digits(sys: IFSystem, count: int, rng, depth: int = SAMPLE_DEPTH) -> np.ndarray:
    """count x depth i.i.d. digits, digit i with probability ratio_i^delta."""
    return rng.choice(sys.k, size=(count, depth), p=sys.weights / sys.weights.sum())


def _fold_digits(sys: IFSystem, digits: np.ndarray) -> np.ndarray:
    rho, trs = sys.ratios, sys.translations
    pts = np.broadcast_to(sys.anchor, (digits.shape[0], sys.dim)).copy()
    if sys.has_rotations:
        rots = sys.rotations
        for j in range(digits.shape[1] - 1, -1, -1):
            dig = digits[:, j]
            pts = rho[dig, None] * np.einsum("nij,nj->ni", rots[dig], pts) + trs[dig]
    else:
        for j in range(digits.shape[1] - 1, -1, -1):
            dig = digits[:, j]
            pts = rho[dig, None] * pts + trs[dig]
    return pts
