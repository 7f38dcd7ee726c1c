"""The occupied-box count that `fracapprox.analysis.box_dimension` made
before it counted distinct cells by one lexicographic sort: np.unique over
the rows of the cell array.  Tests import it as the oracle; nothing in the
package uses it.
"""

from __future__ import annotations

import numpy as np


def occupied_boxes(points: np.ndarray, g: float) -> int:
    """The number of grid boxes of side g that hold a row of points (N, d)."""
    cells = np.floor(np.asarray(points, dtype=float) / g).astype(np.int64)
    return len(np.unique(cells, axis=0))
