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
from fractions import Fraction
from itertools import product

import numpy as np

from .geometry import Ball, Box, RationalPoint

__all__ = [
    "PsiFunction",
    "ApproxLayer",
    "parse_psi_spec",
    "lower_order",
    "enumerate_rationals",
    "is_psi_approximable",
    "layer_membership",
    "layer_hit_mask",
    "smallness_onset",
]

_GRID_POINTS = 1000
_ENUMERATION_CAP = 10**8


@dataclass(frozen=True)
class PsiFunction:
    """A positive non-increasing approximation function.

    Families:
      power              r -> r^-tau
      power_log          r -> r^(-(d+1)/d) * (log r)^-beta
      generic_power_log  r -> r^-tau * (log r)^-beta
      table              finite samples (r, psi(r)), geometric interpolation

    The log families are +inf at r <= 1, which keeps every x trivially
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
        elif self.family in ("power_log", "generic_power_log"):
            tau = (self.d + 1) / self.d if self.family == "power_log" else self.tau
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                out = np.where(
                    rr > 1.0,
                    rr ** (-tau) * np.log(np.maximum(rr, 1.0 + 1e-300)) ** (-self.beta),
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

    Closed form for the symbolic families; for tables, the minimum of the
    pointwise estimate over the last decade of the sampled range.
    """
    if psi.family == "power":
        return psi.tau
    if psi.family == "power_log":
        return (psi.d + 1) / psi.d
    if psi.family == "generic_power_log":
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


def layer_hit_mask(points: np.ndarray, n: int, psi: PsiFunction, d: int) -> np.ndarray:
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
