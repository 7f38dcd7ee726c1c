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
# The last block smallness_onset checks.
_ONSET_LAST = 60


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
        # a scalar is a one-element array, so psi(r) has the bits of psi([r])[0]
        scalar = np.isscalar(r)
        rr = np.atleast_1d(np.asarray(r, dtype=float))
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
        return float(out[0]) if scalar else out.reshape(np.shape(r))


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


def layer_hit_mask(points: np.ndarray, n: int, psi: PsiFunction, d: int) -> np.ndarray:
    """Which points lie in the block-n layer, for many points at once.

    points has shape (N, d).  A point x hits when some q in the block and
    some p within m of the rounded numerator rint(x q) give |p/q - x|^2 <=
    r^2, r = sqrt(d) psi(q), where m = 0 while r q is below 1/2 and
    floor(r q + 1/2) beyond.  Non-finite points never hit; a non-finite
    radius anywhere in the block makes every point hit.

    The block's table (per q: m, r^2 and, in one dimension, the float
    reach of r) is built once, from one psi call.  Three kernels read it and
    give the same mask bit for bit; among those whose preconditions hold,
    the one with the least estimated work takes the block:

      the q loop, N 2^n point-q tests, no precondition.  It takes the
        table's q in steps that start at one q and double up to
        _CELL_BUDGET (q, point) pairs, and drops the points that hit after
        each step;
      the sweep of the block rationals over the sorted points
        (`_sweep_hit_mask`), as many steps as centres it enumerates; for
        d = 1 when psi(2^n) 2^n < 1/2 and every numerator stays below 2^52;
      the continued-fraction kernel (`_convergent_hit_mask`), N times the
        Euclid step bound ceil(log_phi 2^(n+1)) + 1; under the sweep's
        numerator bound and the Legendre condition 2 q^2 (reach + ulp) < 1
        for every q of the block, where ulp is the float spacing at the
        sweep's bound max |x| + max reach + 2.

    All three stay under the 2^n denominator ceiling of _check_denominators.
    """
    _check_denominators(n)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"expected points of shape (N, {d})")
    q = np.arange(2**n, 2 ** (n + 1), dtype=float)
    radius = math.sqrt(d) * psi(q)
    if not np.isfinite(radius).all():
        return np.ones(pts.shape[0], dtype=bool)
    half = radius * q
    m = np.where(half < 0.5, 0.0, np.floor(half + 0.5))
    r2 = radius * radius
    hits = np.zeros(pts.shape[0], dtype=bool)
    live = np.flatnonzero(np.isfinite(pts).all(axis=1))  # non-finite points never hit
    work = {}  # estimated work of each kernel whose preconditions hold
    if live.size and d == 1 and half[0] < 0.5:
        # reach: how far past each radius the float test accepts; first and
        # count: the numerators of the centres p/q it lets touch [lo, hi]
        lo, hi, reach = pts[live, 0].min(), pts[live, 0].max(), _reach(radius)
        top = max(-lo, hi) + reach.max() + 2.0
        if top * q[-1] < 2.0**52:
            first = np.floor((lo - reach) * q) - 1.0
            count = np.ceil((hi + reach) * q) + 2.0 - first
            work["sweep"] = count.sum()
            # the float centre of a hit p/q lies within reach of its point
            # and within one spacing at top of p/q: Legendre's condition
            # |x - p/q| < 1/(2 q^2) holds when this does
            if (2.0 * q * q * (reach + np.spacing(top)) < 1.0).all():
                # denominators of the convergents grow at least like phi^k
                steps = math.ceil((n + 1) / math.log2((1 + math.sqrt(5)) / 2)) + 1
                work["convergent"] = pts.shape[0] * steps
    work["loop"] = pts.shape[0] * q.size
    kernel = min(work, key=work.get)
    if kernel == "sweep":
        live = live[np.argsort(pts[live, 0])]
        hits[live] = _sweep_hit_mask(pts[live, 0], (q, m, r2, reach), first, count)
        return hits
    if kernel == "convergent":
        hits[live] = _convergent_hit_mask(pts[live, 0], n, (q, m, r2))
        return hits
    j, size = 0, 1
    while j < q.size and live.size:
        # the q j..k-1 on a (q, point, coordinate) array; bound[s] is r^2 at
        # the q whose m reaches offsets of sup norm s, and -1 (no hit) elsewhere
        k = min(j + size, q.size)
        qs, sub = q[j:k, None, None], pts[live][None]
        p0 = np.rint(sub * qs)
        top = int(m[j:k].max())
        bound = np.where(m[j:k] >= np.arange(top + 1)[:, None], r2[j:k], -1.0)[..., None]
        offs = np.array(list(product(range(-top, top + 1), repeat=d)), dtype=float)
        found = np.zeros((k - j, live.size), dtype=bool)
        for off, s in zip(offs, np.abs(offs).max(axis=1).astype(int).tolist()):
            diff = (p0 + off) / qs - sub
            found |= np.einsum("qij,qij->qi", diff, diff) <= bound[s]
        got = found.any(axis=0)
        hits[live[got]] = True
        live = live[~got]
        j, size = k, min(2 * size, max(1, _CELL_BUDGET // max(live.size, 1)))
    return hits


def _float_hits(p: np.ndarray, x: np.ndarray, j: np.ndarray, table: tuple) -> np.ndarray:
    """The q loop's two tests on d = 1 candidates p/q[j] for the points x,
    with the block's table (q, m, r^2, ...): the float test (p/q - x)^2 <=
    r^2 and the numerator window |p - rint(x q)| <= m."""
    q, m, r2 = table[:3]
    diff = p / q[j] - x
    return (diff * diff <= r2[j]) & (np.abs(p - np.rint(x * q[j])) <= m[j])


# Largest number of block centres one sweep step searches; steps start at
# _SWEEP_FIRST centres and double, so points that hit at small q leave early.
_SWEEP_CHUNK = 2**14
_SWEEP_FIRST = 2**10
# Largest number of (point, centre) candidate pairs one sweep step decides.
_SWEEP_PAIRS = 2**16


def _sweep_hit_mask(xs: np.ndarray, table: tuple, first: np.ndarray,
                    count: np.ndarray) -> np.ndarray:
    """layer_hit_mask for d = 1 on the sorted finite points xs and the block's
    table (q, m, r^2, reach), deciding each (point, p, q) candidate.

    Walks the centres p/q of the block in ascending q, then p, the j-th q's
    count[j] numerators from first[j], and finds each centre's points by
    `searchsorted` in xs.  A candidate hits under exactly the q loop's two
    tests (`_float_hits`).  Points that hit are dropped after each step.
    """
    qf, reach = table[0], table[3]
    hits = np.zeros(xs.shape[0], dtype=bool)
    live = np.arange(xs.shape[0])
    first = first.astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(count.astype(np.int64))))

    k, size = 0, _SWEEP_FIRST
    while k < starts[-1] and live.size:
        ks = np.arange(k, min(k + size, starts[-1]))
        # j: the q index of each centre in the step
        js = np.arange(np.searchsorted(starts, k, side="right") - 1,
                       np.searchsorted(starts, ks[-1], side="right"))
        j = np.repeat(js, np.minimum(starts[js + 1], ks[-1] + 1) - np.maximum(starts[js], k))
        p = (first[j] + (ks - starts[j])).astype(float)
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
        ok = _float_hits(p[c], xs[pos], j[c], table)
        if ok.any():
            got = np.zeros(xs.shape[0], dtype=bool)
            got[pos[ok]] = True
            hits[live[got]] = True
            live, xs = live[~got], xs[~got]
    return hits


# Largest number of points one continued-fraction expansion step holds.
_EXPAND_SLICE = 2**13


def _convergent_hit_mask(x: np.ndarray, n: int, table: tuple) -> np.ndarray:
    """layer_hit_mask for d = 1 on the finite points x and the block's table
    (q, m, r^2), under the Legendre condition that every float hit p/q lies
    within 1/(2 q^2) of its point.

    By Legendre's theorem such a p/q, in lowest terms a/b, is a convergent
    of x, and -a/b one of -x.  IEEE division rounds every multiple (t a)/(t b)
    to the float of a/b, so the float test (p/q - x)^2 <= r^2 can pass only
    for the multiples of the convergents that `_close_convergents` keeps.
    The candidates are their multiples with 2^n <= t b < 2^(n+1), decided by
    exactly the q loop's two tests (`_float_hits`).  Points are expanded
    _EXPAND_SLICE at a time; each round takes the next multiples of every
    pair whose point has not hit, one at first and doubling up to
    _CELL_BUDGET candidates a round.
    """
    hits, r2_max = np.zeros(x.size, dtype=bool), table[2].max()
    for s in range(0, x.size, _EXPAND_SLICE):
        xs = x[s:s + _EXPAND_SLICE]
        pt, num, den = _close_convergents(xs, n, r2_max)
        num = np.where(xs[pt] < 0, -num, num)
        t, stop = -(-(2**n) // den), (2 ** (n + 1) - 1) // den + 1
        got, size = hits[s:s + _EXPAND_SLICE], 1
        while pt.size:
            take = np.minimum(stop - t, size)
            c = np.repeat(np.arange(pt.size), take)
            tc = t[c] + np.arange(c.size) - np.repeat(np.cumsum(take) - take, take)
            p, j = (tc * num[c]).astype(float), tc * den[c] - 2**n
            ok = _float_hits(p, xs[pt[c]], j, table)
            got[pt[c[ok]]] = True
            t = t + take
            left = (t < stop) & ~got[pt]
            pt, num, den, t, stop = pt[left], num[left], den[left], t[left], stop[left]
            size = min(2 * size, max(1, _CELL_BUDGET // max(pt.size, 1)))
    return hits


def _close_convergents(x: np.ndarray, n: int, r2_max: float) -> tuple:
    """The convergents a/b of the points |x| with b < 2^(n+1) and float gap
    (a/b - |x|)^2 <= r2_max, as int64 arrays (point index, a, b).

    |x| = F + M/2^E with F = floor(|x|) and 2^52 <= M < 2^53 is expanded by
    one Euclid run over all points, and every quotient is exact.  When
    2^E/M > 2^(n+2) the first quotient puts the next denominator past the
    block, and F/1 is the only convergent.  Otherwise E <= n + 54: the first
    remainder is the exact IEEE fmod(2^E, M), the first quotient an integer
    of at most 2^(n+2) that float division gets to far less than 1/2, and
    the later steps divide int64 values below 2^53.  Denominators grow, so a
    point stops at its first convergent whose denominator reaches 2^(n+1).
    """
    y = np.abs(x)
    whole = np.floor(y)
    frac = y - whole  # exact: whole <= y < 2 whole, or whole = 0
    lim = 2 ** (n + 1)
    found = []

    def keep(at, a, b, ok=True):
        gap = a / b - y[at]
        close = ok & (gap * gap <= r2_max)
        if close.any():
            found.append((at[close], a[close], b[close]))

    keep(np.arange(y.size), whole.astype(np.int64), np.ones(y.size, dtype=np.int64))
    at = np.flatnonzero(frac >= 2.0 ** -(n + 2))
    mant, exp = np.frexp(frac[at])
    big, low = np.ldexp(mant, 53), np.ldexp(1.0, 53 - exp)  # frac = big / low
    rem = np.fmod(low, big)
    quot = np.rint((low - rem) / big)
    # per point: the next quotient, the remainder pair (u, v) it leaves and
    # the last two convergents a0/b0, a1/b1
    one = np.ones(at.size, dtype=np.int64)
    state = (at, *(col.astype(np.int64) for col in (quot, big, rem)), one,
             whole[at].astype(np.int64), np.zeros_like(one), one)
    while state[0].size:
        at, quot, u, v, a0, a1, b0, b1 = state
        b2 = np.minimum(quot, lim) * b1 + b0
        ok = b2 < lim
        a2 = np.where(ok, quot, 0) * a1 + a0
        keep(at, a2, b2, ok)
        quot, rem = np.divmod(u, np.maximum(v, 1))
        go = ok & (v > 0)
        state = tuple(col[go] for col in (at, quot, v, rem, a1, a2, b1, b2))
    if not found:
        return np.zeros((3, 0), dtype=np.int64)
    return tuple(np.concatenate(col) for col in zip(*found))


def smallness_onset(psi: PsiFunction, c: float, d: int) -> int | None:
    """First block index from which psi(2^n) < c * 2^(-n(d+1)/d) holds through
    block _ONSET_LAST; None if the threshold is never reached in range."""
    if c <= 0:
        raise ValueError("c must be positive")
    onset = None
    for n in range(0, _ONSET_LAST + 1):
        if psi(2.0**n) < c * 2.0 ** (-n * (d + 1) / d):
            if onset is None:
                onset = n
        else:
            onset = None
    return onset
