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

from .geometry import _first_of_each_value, _reach

__all__ = [
    "PsiFunction",
    "parse_psi_spec",
    "layer_hit_mask",
    "smallness_onset",
]

_GRID_POINTS = 1000
# Largest number of denominators 2^n one enumeration window or layer test walks.
_WINDOW_CELL_CAP = 2**20
# Rows one vectorised step holds: the enumeration's (window, denominator)
# cells, the q loop's (q, point) pairs and the d = 1 kernels' candidates.
_CELL_BUDGET = 2**16
# Slop on the numerator bounds lo q - slop and hi q + slop of a window.
_SLOP = 1e-12
# The last block smallness_onset checks.
_ONSET_LAST = 60
# Time per unit of work of each layer_hit_mask kernel, in ns, measured by
# timing each kernel alone on the blocks of the decay and dim-report runs of
# 40,000 sorted cantor samples (tau 2.5 and 3, blocks 1-10; and tau 1.5) on a
# 2-core x86-64 box, numpy 2.4.6, medians of 7 calls:
#   loop: 9-14 ns per test at blocks 9-10 (0.39-0.53 s for 4.1e7 tests);
#   sweep: 67-110 ns per centre at blocks 9-10 (0.13-0.15 s for 1.6e6),
#     and 60-130 ns per estimated candidate at blocks 1-2, where the
#     candidates (2.7e4-4.4e4) outnumber the centres (15-42), 1.6-5.7 ms;
#   convergent: 17-26 ns per Euclid step, 5.4-16 ms per call at blocks 3-10.
_NS_LOOP_TEST = 12.0
_NS_SWEEP_CENTRE = 85.0
_NS_SWEEP_PAIR = 90.0
_NS_EUCLID_STEP = 21.0


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
    large r.  Construction checks one set of samples, the table's (r, psi)
    or psi on a 1000-point grid, under one rule: psi finite, positive and
    non-increasing.  A table's r must be finite, positive and strictly
    ascending.
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
            vals = np.asarray(self.table_v, dtype=float)
            if r.ndim != 1 or r.shape != vals.shape or r.size < 2:
                raise ValueError("table needs matching r and psi columns, >= 2 rows")
            if not (np.isfinite(r).all() and r[0] > 0 and (np.diff(r) > 0).all()):
                raise ValueError("table r values must be finite, positive and "
                                 "strictly ascending")
            r.flags.writeable = False
            vals.flags.writeable = False
            object.__setattr__(self, "table_r", r)
            object.__setattr__(self, "table_v", vals)
        else:
            if self.family == "power":
                object.__setattr__(self, "beta", 0.0)
            elif self.family == "power_log":
                object.__setattr__(self, "tau", (self.d + 1) / self.d)
            lo = 1.0 if self.family == "power" else 1.001
            vals = self(np.geomspace(lo, 2.0**30, _GRID_POINTS))
        # one rule for the samples of every family: the table's, or the grid's
        if not (np.isfinite(vals).all() and (vals > 0).all()):
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
                    rr ** (-self.tau) * np.log(np.maximum(rr, 1.0)) ** (-self.beta),
                    np.inf,
                )
        else:
            rc = np.clip(rr, self.table_r[0], self.table_r[-1])
            out = np.exp(
                np.interp(np.log(rc), np.log(self.table_r), np.log(self.table_v))
            )
        return float(out[0]) if scalar else out.reshape(np.shape(r))


# spec head -> (constructor, the keys it takes, in order)
_PSI_SPECS = {
    "power": (PsiFunction.power, ("tau",)),
    "powerlog": (PsiFunction.power_log, ("beta",)),
    "gpl": (PsiFunction.generic_power_log, ("tau", "beta")),
}


def parse_psi_spec(spec: str, d: int = 1) -> PsiFunction:
    """Parse the CLI psi string: power:tau=2.0 | powerlog:beta=3.0 |
    gpl:tau=2.0,beta=1.0 | table:<path to two-column CSV of r and psi>.  A
    symbolic spec gives exactly its family's keys, once each."""
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
    if head not in _PSI_SPECS:
        raise ValueError(f"unknown psi spec {spec!r}")
    make, keys = _PSI_SPECS[head]
    pairs = [part.partition("=") for part in rest.split(",") if part.strip()]
    got = [key.strip() for key, _, _ in pairs]
    if sorted(got) != sorted(keys):
        raise ValueError(f"{head} spec needs the keys {', '.join(keys)}, once each; "
                         f"got {got}")
    kv = {key.strip(): float(val) for key, _, val in pairs}
    return make(*(kv[key] for key in keys), d=d)


# ---------------------------------------------------------------------------
# rational enumeration
# ---------------------------------------------------------------------------


def _check_denominators(n: int) -> None:
    """The rules of every walk over the 2^n denominators of block n, the
    enumeration's and the layer test's: n >= 0 and 2^n <= _WINDOW_CELL_CAP,
    decided on the exponents, so a huge n costs no 2^n."""
    if n < 0:
        raise ValueError(f"block {n} refused: a block index must be >= 0")
    if n > _WINDOW_CELL_CAP.bit_length() - 1:
        raise ValueError(f"block {n} refused: its 2^{n} denominators per window "
                         f"exceed the ceiling of {_WINDOW_CELL_CAP} cells")


def _check_windows(n: int, lo: np.ndarray, hi: np.ndarray) -> None:
    """The refusals of _enumerate_windows, which it makes before any cell:
    _check_denominators' ceiling, and windows whose lo q - slop, hi q + slop
    can round by more than the slop in all (ulp(max |endpoint| 2^(n+1) +
    slop) > slop)."""
    _check_denominators(n)
    top = max(np.abs(lo).max(), np.abs(hi).max())
    if not np.spacing(top * 2.0 ** (n + 1) + _SLOP) <= _SLOP:  # also non-finite edges
        raise ValueError(f"block {n} refused: float64 numerator bounds for window "
                         f"endpoints up to {top:.6g} round by more than {_SLOP}")


def _enumerate_windows(n: int, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """All rational points p/q with 2^n <= q < 2^(n+1) inside the closed
    windows [lo[k], hi[k]] (rows of shape (K, d)) of one block, as int64
    numerators (M, d), denominators (M,) and windows k (M,), window by
    window, after the refusals of _check_windows.  Within a window, points
    come in ascending q, and for each q in the product order of the
    numerators; coincident values are reported once, with the smallest
    denominator.  Below the refusals no rational of a window is missed and
    none returned lies beyond 2 slop / q outside it.

    A numpy step holds at most _CELL_BUDGET (window, q) cells: _CELL_BUDGET
    >> n whole windows, or a slice of one window's q.  It tests the first
    coordinate alone on the (windows x q) grid, ceil(lo q - slop) <= hi q +
    slop (for a whole left side, ceil <= floor), and gives only the cells
    that pass the bounds of all d coordinates, by the same float operations."""
    _check_windows(n, lo, hi)
    d = lo.shape[1]
    q = np.arange(2**n, 2 ** (n + 1))
    rows, span = max(1, _CELL_BUDGET >> n), min(_CELL_BUDGET, 2**n)
    boxes = []
    for k in range(0, len(lo), rows):
        for j in range(0, 2**n, span):
            # nonzero's row-major order runs window by window, each in ascending q
            a, b, qj = lo[k:k + rows, :1], hi[k:k + rows, :1], q[j:j + span]
            w, i = np.nonzero(np.ceil(a * qj - _SLOP) <= b * qj + _SLOP)
            w, qi = w + k, qj[i]
            p_lo, p_hi = np.ceil(lo[w] * qi[:, None] - _SLOP), np.floor(hi[w] * qi[:, None] + _SLOP)
            hit = np.flatnonzero((p_lo <= p_hi).all(axis=1))
            boxes.append(np.column_stack((w[hit], qi[hit], p_lo[hit], p_hi[hit])))
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


def layer_hit_mask(points: np.ndarray, n: int, psi: PsiFunction) -> np.ndarray:
    """Which points lie in the block-n layer, for many points at once.

    points has shape (N, d).  A point x hits when some q in the block and
    some p within m of the rounded numerator rint(x q) give |p/q - x|^2 <=
    r^2, r = sqrt(d) psi(q), where m = 0 while r q is below 1/2 and
    floor(r q + 1/2) beyond.  Non-finite points never hit; a non-finite
    radius anywhere in the block makes every point hit.

    The block's table (per q: m, r^2 and, in one dimension, the float
    reach of r) is built once, from one psi call.  Three kernels read it and
    give the same mask bit for bit; among those whose preconditions hold,
    the one of least estimated time takes the block, each unit of work
    weighed by its measured cost (_NS_LOOP_TEST and the others):

      the q loop, no precondition, 12 ns per point-q test.  It takes the
        table's q in steps that start at one q and double up to
        _CELL_BUDGET (q, point) pairs, and drops the points that hit after
        each step.  It makes N 2^n tests; where the sweep may run, it is
        priced at the tests of N evenly spread points, each dropped at its
        first hit, which at q has the chance 2 q reach;
      the sweep of the block rationals over the sorted points
        (`_sweep_hit_mask`), 85 ns per centre it enumerates plus 90 ns per
        (centre, point) candidate, N 2 q reach of them summed over the q;
        for d = 1 when psi(2^n) 2^n < 1/2 and every numerator stays below
        2^52.  The sort takes 0.17 ms for 40,000 points passed in ascending
        order, against 1 ms for unsorted ones;
      the continued-fraction kernel (`_convergent_hit_mask`), 21 ns for
        each of N times ceil(log_phi 2^(n+1)) + 1 Euclid steps; under the
        sweep's numerator bound, the Legendre condition 2 q^2 (reach + ulp)
        < 1 for every q of the block, where ulp is the float spacing at the
        sweep's bound max |x| + max reach + 2, and r^2 non-increasing over
        the block.  It decides each convergent a/b of a point by one float
        test at its smallest block multiple: a float hit p/q is then a
        convergent, each block multiple of a/b has the float of a/b, the
        smallest has the largest r^2, and the q loop's numerator test never
        rejects a float hit (rint(fl(x q)) = p and m = 0).

    All three stay under the 2^n denominator ceiling of _check_denominators.
    """
    _check_denominators(n)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ValueError("expected points of shape (N, d), d >= 1")
    d = pts.shape[1]
    q = np.arange(2**n, 2 ** (n + 1), dtype=float)
    radius = math.sqrt(d) * psi(q)
    if not np.isfinite(radius).all():
        return np.ones(pts.shape[0], dtype=bool)
    half = radius * q
    m = np.where(half < 0.5, 0.0, np.floor(half + 0.5))
    r2 = radius * radius
    hits = np.zeros(pts.shape[0], dtype=bool)
    live = np.flatnonzero(np.isfinite(pts).all(axis=1))  # non-finite points never hit
    # the estimated time in ns of each kernel whose preconditions hold; the
    # loop tests each point at every q unless the d = 1 table tells more
    work = {"loop": _NS_LOOP_TEST * live.size * q.size}
    if live.size and d == 1 and half[0] < 0.5:
        # reach: how far past each radius the float test accepts; first and
        # count: the numerators of the centres p/q it lets touch [lo, hi]
        lo, hi, reach = pts[live, 0].min(), pts[live, 0].max(), _reach(radius)
        top = max(-lo, hi) + reach.max() + 2.0
        if top * q[-1] < 2.0**52:
            first = np.floor((lo - reach) * q) - 1.0
            count = np.ceil((hi + reach) * q) + 2.0 - first
            # an evenly spread point lies within reach of 2 q reach centres of
            # q: the sweep's candidates; the loop tests it until its first hit
            meet = 2.0 * q * reach
            stay = np.cumprod(np.maximum(1.0 - meet, 0.0))
            work["loop"] = _NS_LOOP_TEST * live.size * (1.0 + stay[:-1].sum())
            work["sweep"] = (_NS_SWEEP_CENTRE * count.sum()
                             + _NS_SWEEP_PAIR * live.size * meet.sum())
            # the float centre of a hit p/q lies within reach of its point
            # and within one spacing at top of p/q: Legendre's condition
            # |x - p/q| < 1/(2 q^2) holds when this does; with r^2
            # non-increasing, a convergent's smallest block multiple decides it
            if ((2.0 * q * q * (reach + np.spacing(top)) < 1.0).all()
                    and (r2[1:] <= r2[:-1]).all()):
                # denominators of the convergents grow at least like phi^k
                steps = math.ceil((n + 1) / math.log2((1 + math.sqrt(5)) / 2)) + 1
                work["convergent"] = _NS_EUCLID_STEP * live.size * steps
    kernel = min(work, key=work.get)
    if kernel == "sweep":
        live = live[np.argsort(pts[live, 0])]
        hits[live] = _sweep_hit_mask(pts[live, 0], (q, m, r2, reach), first, count)
        return hits
    if kernel == "convergent":
        hits[live] = _convergent_hit_mask(pts[live, 0], n, r2)
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
        found = np.zeros((k - j, live.size), dtype=bool)
        # the offsets shell by shell, by sup norm s, until every point has hit
        for s in range(top + 1):
            for off in _shell(s, d):
                diff = (p0 + off) / qs - sub
                found |= np.einsum("qij,qij->qi", diff, diff) <= bound[s]
            if found.any(axis=0).all():
                break
        got = found.any(axis=0)
        hits[live[got]] = True
        live = live[~got]
        j, size = k, min(2 * size, max(1, _CELL_BUDGET // max(live.size, 1)))
    return hits


def _shell(s: int, d: int) -> np.ndarray:
    """The integer offsets of sup norm s in d dimensions, as float rows:
    coordinate i at -s or s, those before it in (-s, s), those after it in
    [-s, s]."""
    rows = [(*head, end, *tail) for i in range(d) for end in {-s, s}
            for head in product(range(1 - s, s), repeat=i)
            for tail in product(range(-s, s + 1), repeat=d - 1 - i)]
    return np.array(rows, dtype=float)


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
        take = max(1, int(np.searchsorted(pairs, _CELL_BUDGET, side="right")))
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


def _convergent_hit_mask(x: np.ndarray, n: int, r2: np.ndarray) -> np.ndarray:
    """layer_hit_mask for d = 1 on the finite points x and the block's r^2
    per q, under three conditions: every float hit p/q lies within 1/(2 q^2)
    of its point (the Legendre condition), |x| q < 2^52 (the sweep's bound)
    and r^2 is non-increasing over the block.

    A point hits iff, for one of its convergents a/b, the float test
    (a/b - |x|)^2 <= r^2 passes at the smallest block multiple q0 of b.
    By Legendre's theorem a float hit p/q, in lowest terms a/b, is a
    convergent of x (-a/b one of -x, the same gap with the other sign), and
    IEEE division rounds every multiple (t a)/(t b) to the float of a/b, so
    each block multiple compares one gap with its own r^2: the smallest,
    with the largest r^2, passes if any does.  Under the conditions the q
    loop's numerator test never rejects a float hit: |x q - p| < 1/(2 q),
    fl(x q) is within 1/4 of x q, so rint(fl(x q)) = p, and m = 0.

    |x| = F + M/2^E with F = floor(|x|) and 2^52 <= M < 2^53 is expanded by
    one Euclid run, _EXPAND_SLICE points at a time, and every quotient is
    exact.  When 2^E/M > 2^(n+2) the first quotient puts the next
    denominator past the block, and F/1 is the only convergent.  Otherwise
    E <= n + 54: the first remainder is the exact IEEE fmod(2^E, M), the
    first quotient an integer of at most 2^(n+2) that float division gets
    to far less than 1/2, and the later steps divide int64 values below
    2^53.  A point leaves at its first hit, or at its first denominator of
    2^(n+1) or more; a quotient of 2^(n+1) stands for the end of the run.
    """
    hits, lo, lim = np.zeros(x.size, dtype=bool), 2**n, 2 ** (n + 1)
    for s in range(0, x.size, _EXPAND_SLICE):
        y = np.abs(x[s:s + _EXPAND_SLICE])
        got = hits[s:s + _EXPAND_SLICE]
        whole = np.floor(y)
        frac = y - whole  # exact: whole <= y < 2 whole, or whole = 0
        # a far point's run ends at F/1; for the rest, frac = big / low
        far = frac < 2.0 ** -(n + 2)
        mant, exp = np.frexp(np.where(far, 0.5, frac))
        big, low = np.ldexp(mant, 53), np.ldexp(1.0, 53 - exp)
        rem = np.fmod(low, big)
        quot = np.where(far, lim, np.rint((low - rem) / big))
        # per point: the convergent a1/b1 to test, the one before it a0/b0,
        # the next quotient and the remainder pair (u, v) it leaves
        one = np.ones(y.size, dtype=np.int64)
        state = (np.arange(y.size), whole.astype(np.int64), one, one, np.zeros_like(one),
                 *(col.astype(np.int64) for col in (quot, big, rem)))
        while state[0].size:
            at, a1, b1, a0, b0, quot, u, v = state
            gap = a1 / b1 - y[at]
            hit = gap * gap <= r2[-(-lo // b1) * b1 - lo]
            got[at[hit]] = True
            go = ~hit & (np.minimum(quot, lim) * b1 + b0 < lim)
            at, a1, b1, a0, b0, quot, u, v = (col[go] for col in state)
            nxt, rem = np.divmod(u, np.maximum(v, 1))
            state = (at, quot * a1 + a0, quot * b1 + b0, a1, b1,
                     np.where(v > 0, nxt, lim), v, rem)
    return hits


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
