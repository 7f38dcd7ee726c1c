"""Approximation functions, rational points in dyadic denominator blocks,
and membership tests for the layers of near-rational neighborhoods.

A point x is "well approximable at q" when the sup-norm error to the best
p/q is at most psi(q); the layer for block n collects the Euclidean balls of
radius sqrt(d) * psi(q) around all rationals with 2^n <= q < 2^(n+1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .geometry import Box, RationalPoint, _first_of_each_value, _reach

__all__ = [
    "PsiFunction",
    "parse_psi_spec",
    "lower_order",
    "enumerate_rationals",
    "is_psi_approximable",
    "layer_hit_mask",
    "smallness_onset",
]

_GRID_POINTS = 1000
_ENUMERATION_CAP = 10**8
# Largest number of denominators 2^n one enumeration window or layer test walks.
_WINDOW_CELL_CAP = 2**20
# (window, denominator) cells whose numerator ranges one step computes.
_CELL_BUDGET = 2**16
# Slop on the numerator bounds lo q - slop and hi q + slop of a window.
_SLOP = 1e-12


@dataclass(frozen=True)
class PsiFunction:
    """A positive non-increasing approximation function.

    Families:
      power              r -> r^-tau
      power_log          r -> r^(-(d+1)/d) * (log r)^-beta
      generic_power_log  r -> r^-tau * (log r)^-beta
      table              finite samples (r, psi(r)), geometric interpolation

    Every symbolic family is r^-tau (log r)^-beta, and construction stores
    its tau and beta: beta = 0 for power, tau = (d+1)/d for power_log.  The
    log families are +inf at r <= 1, which keeps every x trivially
    approximable at q = 1 and matches the intent of a function defined for
    large r.  Monotonicity is asserted on a 1000-point grid at construction
    (tables are checked exactly).
    """

    family: str
    d: int
    tau: float | None = None
    beta: float | None = None
    table_r: np.ndarray | None = None
    table_v: np.ndarray | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("ambient dimension must be >= 1")
        if self.family not in ("power", "power_log", "generic_power_log", "table"):
            raise ValueError(f"unknown psi family {self.family!r}")
        if self.family == "table":
            r = np.asarray(self.table_r, dtype=float)
            v = np.asarray(self.table_v, dtype=float)
            if r.ndim != 1 or r.shape != v.shape or r.size < 2:
                raise ValueError("table needs matching r and psi columns, >= 2 rows")
            if np.any(np.diff(r) <= 0):
                raise ValueError("table r values must be strictly ascending")
            if np.any(v <= 0):
                raise ValueError("table psi values must be positive")
            if np.any(np.diff(v) > 0):
                raise ValueError("table psi values must be non-increasing")
            r.flags.writeable = False
            v.flags.writeable = False
            object.__setattr__(self, "table_r", r)
            object.__setattr__(self, "table_v", v)
        else:
            if self.family == "power":
                object.__setattr__(self, "beta", 0.0)
            elif self.family == "power_log":
                object.__setattr__(self, "tau", (self.d + 1) / self.d)
            lo = 1.0 if self.family == "power" else 1.001
            grid = np.geomspace(lo, 2.0**30, _GRID_POINTS)
            vals = self(grid)
            if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
                raise ValueError("psi must be positive and finite on its domain")
            if np.any(np.diff(vals) > 0):
                raise ValueError("psi must be non-increasing on its domain")

    # constructors ---------------------------------------------------------

    @classmethod
    def power(cls, tau: float, d: int = 1) -> "PsiFunction":
        return cls(family="power", d=d, tau=float(tau))

    @classmethod
    def power_log(cls, beta: float, d: int = 1) -> "PsiFunction":
        return cls(family="power_log", d=d, beta=float(beta))

    @classmethod
    def generic_power_log(cls, tau: float, beta: float, d: int = 1) -> "PsiFunction":
        return cls(family="generic_power_log", d=d, tau=float(tau), beta=float(beta))

    @classmethod
    def from_table(cls, rows, d: int = 1) -> "PsiFunction":
        rows = list(rows)
        r = np.array([row[0] for row in rows], dtype=float)
        v = np.array([row[1] for row in rows], dtype=float)
        return cls(family="table", d=d, table_r=r, table_v=v)

    # evaluation -----------------------------------------------------------

    def __call__(self, r):
        scalar = np.isscalar(r)
        rr = np.asarray(r, dtype=float)
        if self.family == "power":
            out = rr ** (-self.tau)
        elif self.family != "table":
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                out = np.where(
                    rr > 1.0,
                    rr ** (-self.tau) * np.log(np.maximum(rr, 1.0 + 1e-300)) ** (-self.beta),
                    np.inf,
                )
        else:
            rc = np.clip(rr, self.table_r[0], self.table_r[-1])
            out = np.exp(
                np.interp(np.log(rc), np.log(self.table_r), np.log(self.table_v))
            )
        return float(out) if scalar else out


def parse_psi_spec(spec: str, d: int = 1) -> PsiFunction:
    """Parse the CLI psi string: power:tau=2.0 | powerlog:beta=3.0 |
    gpl:tau=2.0,beta=1.0 | table:<path to two-column CSV, r ascending>."""
    head, _, rest = spec.partition(":")
    head = head.strip().lower()
    if head == "table":
        rows = []
        with open(rest, newline="", encoding="utf-8") as fh:
            for rec in csv.reader(fh):
                if not rec or rec[0].lstrip().startswith("#"):
                    continue
                if len(rec) < 2:
                    raise ValueError(f"table row {rec} needs two columns, r and psi")
                rows.append((float(rec[0]), float(rec[1])))
        return PsiFunction.from_table(rows, d=d)
    kv = {}
    for part in rest.split(","):
        if not part.strip():
            continue
        key, _, val = part.partition("=")
        kv[key.strip()] = float(val)
    if head == "power":
        return PsiFunction.power(kv["tau"], d=d)
    if head == "powerlog":
        return PsiFunction.power_log(kv["beta"], d=d)
    if head == "gpl":
        return PsiFunction.generic_power_log(kv["tau"], kv["beta"], d=d)
    raise ValueError(f"unknown psi spec {spec!r}")


def lower_order(psi: PsiFunction) -> float:
    """liminf of -log psi(r) / log r as r grows.

    tau for the symbolic families; for tables, the minimum of the pointwise
    estimate over the last decade of the sampled range.
    """
    if psi.family != "table":
        return psi.tau
    if psi.table_r.size < 10:
        raise ValueError("table needs >= 10 points to estimate the lower order")
    tail = psi.table_r >= psi.table_r[-1] / 10.0
    r = psi.table_r[tail]
    v = psi.table_v[tail]
    usable = r > 1.0
    if not usable.any():
        raise ValueError("table tail must contain radii > 1")
    est = -np.log(v[usable]) / np.log(r[usable])
    return max(float(est.min()), 0.0)


# ---------------------------------------------------------------------------
# rational enumeration
# ---------------------------------------------------------------------------


def enumerate_rationals(d: int, n: int, window: Box) -> list:
    """All rational points p/q with 2^n <= q < 2^(n+1) inside the closed window.

    Representations are not reduced, but coincident values within a block are
    reported once (the representative with the smallest denominator).  Refuses
    windows whose estimated candidate count exceeds 10^8, and the blocks that
    _enumerate_windows refuses.  Points come in ascending q, and for each q in
    the product order of the numerators.
    """
    if window.dim != d:
        raise ValueError("window dimension mismatch")
    nums, qs, _ = _enumerate_windows(d, n, window.lo[None], window.hi[None])
    return [RationalPoint(p, q) for p, q in zip(nums.tolist(), qs.tolist())]


def _check_denominators(n: int) -> None:
    """The ceiling of every walk over the 2^n denominators of block n, the
    enumeration's and the layer test's: 2^n <= _WINDOW_CELL_CAP."""
    if 2**n > _WINDOW_CELL_CAP:
        raise ValueError(f"block {n} refused: its 2^{n} denominators per window "
                         f"exceed the ceiling of {_WINDOW_CELL_CAP} cells")


def _check_windows(d: int, n: int, lo: np.ndarray, hi: np.ndarray) -> None:
    """The refusals of _enumerate_windows, which it makes before any cell:
    _check_denominators' ceiling, a window of more than _ENUMERATION_CAP
    estimated candidates, and windows whose lo q - slop, hi q + slop can round
    by more than the slop in all (ulp(max |endpoint| 2^(n+1) + slop) > slop)."""
    _check_denominators(n)
    est = np.prod(hi - lo, axis=1) * 2.0 ** ((d + 1) * (n + 1))
    big = est[est > _ENUMERATION_CAP]
    if big.size:
        raise ValueError(f"enumeration of ~{big[0]:.2e} candidates refused; shrink the window")
    top = max(np.abs(lo).max(), np.abs(hi).max())
    if not np.spacing(top * 2.0 ** (n + 1) + _SLOP) <= _SLOP:  # also non-finite edges
        raise ValueError(f"block {n} refused: float64 numerator bounds for window "
                         f"endpoints up to {top:.6g} round by more than {_SLOP}")


def _enumerate_windows(d: int, n: int, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """enumerate_rationals for the windows [lo[k], hi[k]] (rows of shape (K, d))
    of one block, as int64 numerators (M, d), denominators (M,) and windows
    k (M,), window by window, after the refusals of _check_windows.  Below
    them no rational of a window is missed and none returned lies beyond
    2 slop / q outside it."""
    _check_windows(d, n, lo, hi)
    boxes = []
    for start in range(0, len(lo) << n, _CELL_BUDGET):
        # a step's cells (w, q) run window by window, each in ascending q
        cell = np.arange(start, min(start + _CELL_BUDGET, len(lo) << n))
        w, q = cell >> n, (cell & (2**n - 1)) + 2**n
        p_lo, p_hi = np.ceil(lo[w] * q[:, None] - _SLOP), np.floor(hi[w] * q[:, None] + _SLOP)
        hit = np.flatnonzero((p_lo <= p_hi).all(axis=1))
        boxes.append(np.column_stack((w[hit], q[hit], p_lo[hit], p_hi[hit])))
    w, q, p_lo, p_hi = np.hsplit(np.concatenate(boxes).astype(np.int64), [1, 2, 2 + d])
    # every point of each hit cell's box, the last numerator fastest
    sides = p_hi - p_lo + 1
    size = sides.prod(axis=1)
    at = np.repeat(np.arange(len(size)), size)
    rest = np.arange(len(at)) - np.repeat(np.cumsum(size) - size, size)
    nums = np.empty((len(at), d), dtype=np.int64)
    for i in range(d - 1, -1, -1):
        rest, nums[:, i] = np.divmod(rest, sides[at, i])
    nums, qs, owner = nums + p_lo[at], q[at, 0], w[at, 0]
    # keep each value's first point, the one with the smallest denominator
    first = _first_of_each_value(nums, qs, owner)
    return nums[first], qs[first], owner[first]


# ---------------------------------------------------------------------------
# approximability scans
# ---------------------------------------------------------------------------


def is_psi_approximable(x, psi: PsiFunction, q_max: int) -> tuple:
    """Scan q = 1..q_max for sup-norm approximations |x - p/q| <= psi(q).

    The best candidate for each q is the per-coordinate rounding p_i =
    round(x_i q) (it minimizes the sup-norm), so the scan is exact.  Returns
    (hit_count, witnesses) where witnesses holds one nearest RationalPoint per
    successful q.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    qs = np.arange(1, q_max + 1, dtype=float)
    prods = xv[None, :] * qs[:, None]
    ps = np.rint(prods)
    sup_err = np.max(np.abs(prods - ps), axis=1) / qs
    bound = psi(qs)
    hits = sup_err <= bound
    witnesses = [
        RationalPoint(tuple(int(v) for v in ps[j]), int(qs[j]))
        for j in np.nonzero(hits)[0]
    ]
    return int(hits.sum()), witnesses


def _offsets(m: int, d: int):
    return product(range(-m, m + 1), repeat=d)


def layer_hit_mask(points: np.ndarray, n: int, psi: PsiFunction, d: int) -> np.ndarray:
    """Which points lie in the block-n layer, for many points at once.

    points has shape (N, d).  A point x hits when some q in the block and
    some p within m of the rounded numerator rint(x q) give |p/q - x|^2 <=
    (sqrt(d) psi(q))^2, where m = 0 while the radius times q is below 1/2
    and floor(radius q + 1/2) beyond.  Non-finite points never hit; a
    non-finite radius anywhere in the block makes every point hit.

    For d = 1 the block rationals are swept against the sorted points
    (`_sweep_hit_mask`) whenever that enumerates no more centres than the
    N 2^n point-q tests of the per-q loop below and psi(2^n) 2^n < 1/2; the
    loop serves every other case.  Both give the same mask bit for bit, and
    both walk all 2^n denominators, under the ceiling of _check_denominators.
    """
    _check_denominators(n)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"expected points of shape (N, {d})")
    if d == 1:
        swept = _sweep_hit_mask(pts[:, 0], n, psi)
        if swept is not None:
            return swept
    hits = np.zeros(pts.shape[0], dtype=bool)
    todo = np.isfinite(pts).all(axis=1)  # non-finite points never hit
    sq = math.sqrt(d)
    for q in range(2**n, 2 ** (n + 1)):
        radius = sq * psi(float(q))
        if not np.isfinite(radius):
            hits[:] = True
            return hits
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
        todo &= ~hits
    return hits


# Largest number of block centres one sweep step searches; steps start at
# _SWEEP_FIRST centres and double, so points that hit at small q leave early.
_SWEEP_CHUNK = 2**14
_SWEEP_FIRST = 2**10
# Largest number of (point, centre) candidate pairs one sweep step decides.
_SWEEP_PAIRS = 2**16


def _sweep_hit_mask(x: np.ndarray, n: int, psi: PsiFunction) -> np.ndarray | None:
    """layer_hit_mask for d = 1, deciding each (point, p, q) candidate.

    Walks the centres p/q of the block in ascending q, then p, over the span
    of the finite points, and finds each centre's points by `searchsorted`
    in the sorted points.  A candidate hits under exactly the per-q loop's two
    tests: the float test (p/q - x)^2 <= r^2 and the numerator window
    |p - rint(x q)| <= m.  Points that hit are dropped after each step.
    Returns None, leaving the block to the per-q loop, when the centres
    outnumber the loop's N 2^n point-q tests, when psi(2^n) 2^n >= 1/2 (the
    first q's radius then reaches half its spacing 1/q, so the loop decides
    nearly every point at that q), or when the numerators could leave the
    exact integer range of a float.
    """
    q_lo = 2**n
    if psi(float(q_lo)) * q_lo >= 0.5:
        return None
    radius = np.array([psi(float(q)) for q in range(q_lo, 2 * q_lo)])  # sqrt(d) = 1
    if not np.isfinite(radius).all():
        return np.ones(x.shape[0], dtype=bool)
    hits = np.zeros(x.shape[0], dtype=bool)
    live = np.flatnonzero(np.isfinite(x))
    if live.size == 0:
        return hits
    live = live[np.argsort(x[live])]
    xs = x[live]
    qf = np.arange(q_lo, 2 * q_lo, dtype=float)
    reach = _reach(radius)  # how far past each radius the float test accepts
    if (max(-xs[0], xs[-1]) + reach.max() + 2.0) * qf[-1] >= 2.0**52:
        return None
    p_first = np.floor((xs[0] - reach) * qf) - 1.0
    count = np.ceil((xs[-1] + reach) * qf) + 2.0 - p_first
    if count.sum() > x.shape[0] * q_lo:
        return None
    p_first = p_first.astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(count.astype(np.int64))))
    half = radius * qf
    m = np.where(half < 0.5, 0.0, np.floor(half + 0.5))
    r2 = radius * radius

    k, size = 0, _SWEEP_FIRST
    while k < starts[-1] and live.size:
        ks = np.arange(k, min(k + size, starts[-1]))
        # j: the q index of each centre in the step
        js = np.arange(np.searchsorted(starts, k, side="right") - 1,
                       np.searchsorted(starts, ks[-1], side="right"))
        j = np.repeat(js, np.minimum(starts[js + 1], ks[-1] + 1) - np.maximum(starts[js], k))
        p = (p_first[j] + (ks - starts[j])).astype(float)
        centre = p / qf[j]
        top = centre + reach[j]
        lo = np.searchsorted(xs, centre - reach[j], side="left")
        # most centres reach no point; search the upper end only for the rest
        near = np.flatnonzero(xs[np.minimum(lo, xs.size - 1)] <= top)
        found = np.searchsorted(xs, top[near], side="right") - lo[near]
        pairs = np.cumsum(found)
        take = max(1, int(np.searchsorted(pairs, _SWEEP_PAIRS, side="right")))
        if take < near.size:  # decide the rest of the step in the next one
            ks = ks[:near[take]]
        k, size = ks[-1] + 1, min(2 * ks.size, _SWEEP_CHUNK)
        if not pairs[:take].any():
            continue
        near, found = near[:take], found[:take]
        c = np.repeat(near, found)  # centre and sorted-point index of each candidate
        pos = np.arange(pairs[take - 1]) + np.repeat(lo[near] - pairs[:take] + found, found)
        xv = xs[pos]
        jc = j[c]
        diff = centre[c] - xv
        ok = (diff * diff <= r2[jc]) & (np.abs(p[c] - np.rint(xv * qf[jc])) <= m[jc])
        if ok.any():
            got = np.zeros(xs.shape[0], dtype=bool)
            got[pos[ok]] = True
            hits[live[got]] = True
            live, xs = live[~got], xs[~got]
    return hits


def smallness_onset(psi: PsiFunction, c: float, d: int, n_max: int = 60) -> int | None:
    """First block index from which psi(2^n) < c * 2^(-n(d+1)/d) holds through
    n_max; None if the threshold is never reached in range."""
    if c <= 0:
        raise ValueError("c must be positive")
    onset = None
    for n in range(0, n_max + 1):
        if psi(2.0**n) < c * 2.0 ** (-n * (d + 1) / d):
            if onset is None:
                onset = n
        else:
            onset = None
    return onset
