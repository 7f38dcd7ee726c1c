"""Convergence sums and what they predict: measure-zero and Hausdorff-measure
verdicts, dimension bounds, the block cover constructions, cover costs, and
box-counting estimation.

Numeric summation can never prove convergence, so verdicts are trivalent:
closed-form classification for the symbolic psi families, and a dyadic
condensation heuristic (with an undetermined outcome) for tabulated ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import (PsiFunction, _check_denominators, _check_windows, _enumerate_windows,
                     layer_hit_masks)
from .geometry import DyadicScale, _greedy_segments, _reach, _witness_block
from .ifs import IFSystem, _check_alpha, _Frontier, sample_measure

__all__ = [
    "SumSpec",
    "SumVerdict",
    "classify_sum",
    "dimension_bound",
    "sum_term_log",
    "condensed_term_log",
    "hs_upper_bound",
    "HsTail",
    "box_dimension",
    "BoxDimensionEstimate",
    "audit_hyperplane_lemma",
    "LemmaAuditReport",
    "layer_decay_experiment",
    "LayerDecayResult",
    "approximant_points",
    "dimension_report",
]

_BOUNDARY_TOL = 1e-12
CONDENSATION_BLOCKS = range(5, 61)  # 56 dyadic terms


@dataclass(frozen=True)
class SumSpec:
    """One of the three sums: which kind, over which psi, with which exponents.

    "lebesgue":      sum (r psi(r))^d -- gates the ambient-measure verdict
    "measure_zero":  sum r^(alpha (d+1)/d - 1) psi(r)^alpha -- gates the
                     fractal-measure verdict for an alpha-decaying measure
    "hausdorff":     sum r^(alpha (d+1)/d - 1) psi(r)^(alpha + s - delta) --
                     gates the s-dimensional cover-cost verdict; 0 <= s <= delta
    """

    kind: str
    psi: PsiFunction
    d: int
    alpha: float | None = None
    delta: float | None = None
    s: float | None = None

    def __post_init__(self):
        if self.kind not in ("lebesgue", "measure_zero", "hausdorff"):
            raise ValueError(f"'kind' must be lebesgue, measure_zero or hausdorff: {self.kind!r}")
        if self.d < 1:
            raise ValueError("'d' must be >= 1")
        if self.kind in ("measure_zero", "hausdorff"):
            if self.alpha is None or self.alpha <= 0:
                raise ValueError(f"'alpha' must be > 0 for the {self.kind} sum")
        if self.kind == "hausdorff":
            if self.delta is None or self.s is None:
                raise ValueError("'s' and 'delta' are both needed for the hausdorff sum")
            if not 0 <= self.s <= self.delta + _BOUNDARY_TOL:
                raise ValueError(f"'s' must be in [0, delta] = [0, {self.delta!r}]")

    @property
    def psi_exponent(self) -> float:
        if self.kind == "lebesgue":
            return float(self.d)
        if self.kind == "measure_zero":
            return self.alpha
        return self.alpha + self.s - self.delta

    @property
    def r_exponent(self) -> float:
        if self.kind == "lebesgue":
            return float(self.d)
        return self.alpha * (self.d + 1) / self.d - 1.0


def sum_term_log(spec: SumSpec, r) -> np.ndarray:
    """log of the summand at radius r, computed in log space."""
    rr = np.asarray(r, dtype=float)
    e = spec.psi_exponent
    base = spec.r_exponent * np.log(rr)
    psi = spec.psi
    if psi.family == "table":
        lpsi = np.log(psi(rr))
    else:
        lpsi = -psi.tau * np.log(rr)
        if psi.beta:  # (log r)^0 = 1, also where log log r is not finite
            lpsi = lpsi - psi.beta * np.log(np.log(rr))
    return base + e * lpsi


def condensed_term_log(spec: SumSpec, n) -> np.ndarray:
    """log of the dyadic condensation term 2^n * f(2^n)."""
    nn = np.asarray(n, dtype=float)
    return nn * math.log(2.0) + sum_term_log(spec, 2.0**nn)


@dataclass(frozen=True)
class SumVerdict:
    converges: str  # "yes" | "no" | "undetermined"
    method: str  # "closed_form" | "condensation_numeric"
    criterion: str
    margin: float
    condensed_terms: tuple
    partial_sums: tuple

    def __bool__(self):
        return self.converges == "yes"


def _condensation_evidence(spec: SumSpec, blocks) -> tuple:
    ns = np.array(list(blocks), dtype=float)
    logc = condensed_term_log(spec, ns)
    with np.errstate(over="ignore"):
        terms = np.exp(logc)
        partial = np.cumsum(terms)
    condensed = tuple((int(n), float(t)) for n, t in zip(ns, terms))
    partials = tuple((int(n), float(s)) for n, s in zip(ns, partial))
    return ns, logc, condensed, partials


def _condensation_fit(ns: np.ndarray, logc: np.ndarray) -> tuple:
    """Least-squares fit log c_n ~ a n + b log n + const.

    This matches the exact shape of the condensed term for every symbolic
    family, so a recovers (A+1) ln 2 and b recovers the log exponent B.
    """
    mask = np.isfinite(logc)
    ns, logc = ns[mask], logc[mask]
    design = np.column_stack([ns, np.log(ns), np.ones_like(ns)])
    coef, *_ = np.linalg.lstsq(design, logc, rcond=None)
    return float(coef[0]), float(coef[1])


def classify_sum(spec: SumSpec) -> SumVerdict:
    """Trivalent convergence verdict for the requested sum.

    Symbolic psi families are classified in closed form from the exponent pair
    (A, B) of the summand r^A (log r)^B: convergent iff A < -1, or A = -1 and
    B < -1.  Tabulated psi gets the dyadic-condensation heuristic: fit the
    condensed terms to a geometric-times-polynomial shape and read the rates,
    answering undetermined near the boundary or on short tables.
    """
    psi = spec.psi
    if psi.family != "table":
        a_exp = spec.r_exponent - psi.tau * spec.psi_exponent
        b_exp = -psi.beta * spec.psi_exponent
        # at A = -1 and B = -1 exactly, sum 1/(r log r) diverges
        converges = a_exp < -1.0 - _BOUNDARY_TOL or (
            a_exp <= -1.0 + _BOUNDARY_TOL and b_exp < -1.0 - _BOUNDARY_TOL)
        verdict = "yes" if converges else "no"
        margin = abs(a_exp + 1.0)
        if margin <= _BOUNDARY_TOL:
            margin = abs(b_exp + 1.0)
        crit = (
            f"summand ~ r^{a_exp:.12g} (log r)^{b_exp:.12g}; "
            "convergent iff A < -1 or (A = -1 and B < -1)"
        )
        _, _, condensed, partials = _condensation_evidence(spec, CONDENSATION_BLOCKS)
        return SumVerdict(verdict, "closed_form", crit, margin,
                          condensed, partials)

    # tabulated psi: condensation over the covered dyadic range
    r = psi.table_r
    n_lo = max(1, math.ceil(math.log2(float(r[0]))))
    n_hi = math.floor(math.log2(float(r[-1])))
    avail = range(n_lo, n_hi + 1)
    if len(avail) < 8:
        return SumVerdict(
            "undetermined", "condensation_numeric",
            f"table covers only {len(avail)} dyadic blocks (< 8)", 0.0,
            tuple(), tuple(),
        )
    ns, logc, condensed, partials = _condensation_evidence(spec, avail)
    a, b = _condensation_fit(ns, logc)
    tol_a = 0.01 * math.log(2.0)
    if a < -tol_a:
        verdict, margin = "yes", abs(a / math.log(2.0))
    elif a > tol_a:
        verdict, margin = "no", abs(a / math.log(2.0))
    elif b < -1.05:
        verdict, margin = "yes", abs(b + 1.0)
    elif b > -0.95:
        verdict, margin = "no", abs(b + 1.0)
    else:
        verdict, margin = "undetermined", min(abs(a / math.log(2.0)), abs(b + 1.0))
    crit = f"condensed fit: rate a={a:.6g} per block, log exponent b={b:.6g}"
    return SumVerdict(verdict, "condensation_numeric", crit, margin,
                      condensed, partials)


def dimension_bound(delta: float, alpha: float, d: int, lambda_or_tau: float) -> float:
    """Upper bound delta - alpha (1 - (d+1) / (lambda d)) for the dimension of
    the well-approximable part; requires lambda >= (d+1)/d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if lambda_or_tau < (d + 1) / d - _BOUNDARY_TOL:
        raise ValueError(
            f"lower order {lambda_or_tau} below the Dirichlet exponent {(d + 1) / d}"
        )
    return delta - alpha * (1.0 - (d + 1) / (lambda_or_tau * d))


# ---------------------------------------------------------------------------
# block covers
# ---------------------------------------------------------------------------

_NET_BUDGET = 4_000_000
_AUDIT_BLOCK = 1024  # trials audit_hyperplane_lemma draws and enumerates at once
_AUDIT_BOX_SIDE = 1.0  # the audit draws its ball centres uniformly from [0, side)^d
_POOL_SIZE = 20_000  # natural-measure samples hs_upper_bound draws per block


def _dn_centres(sys: IFSystem, n: int) -> np.ndarray:
    """The centres, as rows, of disjoint balls of block radius r_n in K
    whose 3-dilates cover the attractor.

    A cylinder net is refined until each cylinder has diameter <= r_n, so the
    cylinder anchor images form an r_n-net of K; the greedy cover then selects
    a 2 r_n-separated subset.  Every point of K is within r_n of a candidate
    and within 3 r_n of a selected centre.  Refuses a block whose r_n
    underflows to 0, and one whose cylinder net, k^depth anchors, exceeds
    _NET_BUDGET (compared in log space, as k^depth can overflow a float)."""
    r_n = DyadicScale(n, sys.dim).r_n
    if r_n == 0.0:
        raise ValueError(f"block {n} refused: its radius r_n underflows to 0")
    depth = _net_depth(sys, n)
    if depth * math.log(sys.k) > math.log(_NET_BUDGET):
        raise ValueError(f"block {n} refused: its cylinder net of {sys.k}^{depth} "
                         f"candidates exceeds the budget of {_NET_BUDGET}")
    net = _cylinder_net(sys, r_n)
    return _greedy_segments(net, np.zeros(len(net), dtype=np.intp), r_n)[0]


def _net_depth(sys: IFSystem, n: int) -> int:
    """Cylinder depth at which every cylinder is at most r_n across."""
    r_n = DyadicScale(n, sys.dim).r_n
    return max(0, math.ceil(math.log(r_n / sys.diameter, float(np.max(sys.ratios)))))


def _cylinder_net(sys: IFSystem, resolution: float) -> np.ndarray:
    """Anchor images of all cylinders refined to diameter <= resolution."""
    cyl = _Frontier(sys)
    done = []
    while True:
        finished = cyl.scale * sys.diameter <= resolution
        if finished.any():
            done.append(cyl.image(sys.anchor)[finished])
        if finished.all():
            return np.concatenate(done)
        cyl.expand(~finished)


# Most pool rows _cdn_centres gathers into the windows of one step.
_WINDOW_ROWS = 1 << 18


def _cdn_centres(pool, centres, radius, normals, offsets, eps, r) -> tuple:
    """The covers C(D_n) of many block balls at once: for each ball
    B(centres[k], radius / 3) with the slab |normals[k] . x - offsets[k]|
    <= eps, disjoint balls of radius r centred at the pool rows in its
    3-dilate and its slab, whose 3-dilates cover those rows.  Returns
    (chosen rows, the ball k of each row), by ball.

    Ball k reads the pool rows within reach of its 3-dilate in the first
    coordinate (the pool is sorted by it once), keeps those in the 3-dilate
    and the slab, and _greedy_segments selects from every ball's rows at
    once.  Slab distances come from the whole pool's product, one per
    distinct normal, as BLAS may round the rows of a slice's product
    differently.
    """
    order = np.argsort(pool[:, 0])
    x0 = pool[order, 0]
    w = _reach(radius)
    lo = np.searchsorted(x0, centres[:, 0] - w)
    size = np.searchsorted(x0, centres[:, 0] + w, "right") - lo
    distinct, which = np.unique(normals, axis=0, return_inverse=True)
    picked, balls = [], []
    for first, last in _steps(size, _WINDOW_ROWS):
        seg = np.repeat(np.arange(first, last), size[first:last])
        starts = lo[first:last] - (np.cumsum(size[first:last]) - size[first:last])
        rows = order[np.arange(seg.size) + np.repeat(starts, size[first:last])]
        sub = pool[rows]
        proj = _slab_products(pool, rows, distinct, which.ravel()[seg])
        keep = ((np.linalg.norm(sub - centres[seg], axis=1) <= radius)
                & (np.abs(proj - offsets[seg]) <= eps))
        chosen, ball = _greedy_segments(sub[keep], seg[keep], r)
        picked.append(chosen)
        balls.append(ball)
    if not picked:
        return np.zeros((0, pool.shape[1])), np.zeros(0, dtype=np.intp)
    return np.concatenate(picked), np.concatenate(balls)


def _slab_products(pool: np.ndarray, rows: np.ndarray, normals: np.ndarray,
                   which: np.ndarray) -> np.ndarray:
    """(pool @ normals[which[i]])[rows[i]] for every i, from one whole-pool
    product per normal in use."""
    out = np.empty(len(rows))
    by_normal = np.argsort(which, kind="stable")
    for part in np.split(by_normal, np.flatnonzero(np.diff(which[by_normal])) + 1):
        if part.size:
            out[part] = (pool @ normals[which[part[0]]])[rows[part]]
    return out


def _steps(sizes: np.ndarray, budget: int) -> list:
    """Consecutive (first, last) runs of sizes whose total is at most budget,
    or a single item where one alone exceeds it."""
    out, first, total = [], 0, 0
    for k, size in enumerate(sizes.tolist()):
        if k > first and total + size > budget:
            out.append((first, k))
            first, total = k, 0
        total += size
    if first < len(sizes):
        out.append((first, len(sizes)))
    return out


@dataclass(frozen=True)
class HsTail:
    """Tail costs of the triple-sum cover of the well-approximable part.

    rows hold (n, #D_n, #C total over D_n, cost_n with cost_n =
    #C_total * (3 psi(2^n))^s); tails[k] = sum of cost_n for n >= k; c_max[j]
    is the largest single-ball count #C(D_n) seen at rows[j].
    """

    s: float
    rows: tuple
    tails: tuple  # (k, tail cost) pairs, k each block of the range
    c_max: tuple


def hs_upper_bound(sys: IFSystem, psi: PsiFunction, s: float, blocks, seed: int = 0) -> HsTail:
    """Assemble the block-cover cost sum_n #D_n #C(D_n) (3 psi(2^n))^s over
    the block range and report its tail from each starting block of it.

    For each block ball D_n the rationals of the dyadic block inside the
    closed 6-dilate determine the slab (half-width sqrt(d) psi(2^n)); the slab
    mass inside 3 D_n is then covered by sample-centred balls of radius
    psi(2^n).  Balls whose 6-dilate holds no block rational contribute no
    cost.  Every block's refusal is raised before any pool is drawn.
    """
    if not 0 <= s:
        raise ValueError("s must be >= 0")
    if not blocks or blocks[0] < 0:
        raise ValueError("blocks must be a nonempty range of blocks >= 0")
    d = sys.dim
    sq = math.sqrt(d)
    plans = []
    for n in blocks:  # every refusal before any block is covered
        scale, centres = DyadicScale(n, d), _dn_centres(sys, n)
        _check_windows(n, *_six_dilates(scale, centres)[:2])
        plans.append((n, scale, centres))
    rows = []
    c_maxes = []
    for n, scale, centres in plans:
        pool = sample_measure(sys, _POOL_SIZE, np.random.SeedSequence([seed, n]))
        r = float(psi(2.0**n))
        found, normals, offsets = _block_witness(scale, centres)
        if np.isnan(offsets).any():
            raise RuntimeError(
                "volume obstruction failed inside hs_upper_bound; "
                "this contradicts the block geometry"
            )
        held = found > 0  # the balls with points
        _, ball = _cdn_centres(pool, centres[held], 3.0 * scale.r_n, normals[held],
                               offsets[held], sq * r, r)
        counts = np.bincount(ball, minlength=int(held.sum()))
        c_total = int(counts.sum())
        cost_n = c_total * (3.0 * r) ** s
        rows.append((n, len(centres), c_total, cost_n))
        c_maxes.append(int(counts.max(initial=0)))
    costs = [row[3] for row in rows]
    tails = tuple((n, float(sum(costs[i:]))) for i, n in enumerate(blocks))
    return HsTail(s=s, rows=tuple(rows), tails=tails, c_max=tuple(c_maxes))


def _six_dilates(scale: DyadicScale, centres: np.ndarray) -> tuple:
    """The 6-dilates of the block balls B(c, r_n), c the rows of centres: the
    corners lo, hi of their windows [c - 6 r_n, c + 6 r_n], and 6 r_n."""
    radius = 6.0 * scale.r_n
    return centres - radius, centres + radius, radius


def _block_witness(scale: DyadicScale, centres: np.ndarray) -> tuple:
    """The simplex lemma on the block balls B(c, r_n), c the rows of centres:
    (counts, normals, offsets) of _witness_block on the block rationals in
    each closed 6-dilate (relative slack 1e-9), from one enumeration of their
    windows.  A row of NaN is a ball whose rationals span a simplex."""
    lo, hi, radius = _six_dilates(scale, centres)
    nums, qs, owner = _enumerate_windows(scale.n, lo, hi)
    values = nums / qs[:, None]
    inside = np.linalg.norm(values - centres[owner], axis=1) <= radius * (1.0 + 1e-9)
    return _witness_block(nums[inside], qs[inside], owner[inside], values[inside], centres)


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------

_MIN_POINTS = 1000  # fewest points box counting takes


@dataclass(frozen=True)
class BoxDimensionEstimate:
    slope: float
    confidence: float  # 1.96 sigma half-width of the slope
    counts: tuple  # (grid size, occupied boxes)


def box_dimension(points: np.ndarray, scales) -> BoxDimensionEstimate:
    """Least-squares box-counting slope of log N(g) against log (1/g)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] < _MIN_POINTS:
        raise ValueError(f"box counting needs at least {_MIN_POINTS} points")
    scales = sorted(float(g) for g in scales)
    if len(scales) < 4:
        raise ValueError("box counting needs at least 4 scales")
    counts = []
    for g in scales:
        # occupied boxes: the distinct rows of the cells, counted after one
        # lexicographic sort of the rows
        cells = np.floor(pts / g).astype(np.int64)
        cells = cells[np.lexsort(cells.T)]
        counts.append(1 + int(np.count_nonzero((cells[1:] != cells[:-1]).any(axis=1))))
    x = np.log(1.0 / np.asarray(scales))
    y = np.log(np.asarray(counts, dtype=float))
    design = np.column_stack([x, np.ones_like(x)])
    coef, residuals, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope = float(coef[0])
    dof = len(x) - 2
    if dof > 0 and residuals.size:
        sig2 = float(residuals[0]) / dof
        sx = float(np.sum((x - x.mean()) ** 2))
        conf = 1.96 * math.sqrt(sig2 / sx)
    else:
        conf = 0.0
    return BoxDimensionEstimate(slope, conf, tuple(zip(scales, counts)))


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaAuditReport:
    d: int
    n: int
    balls: int
    max_rationals: int
    simplex_counterexamples: int


def audit_hyperplane_lemma(d: int, blocks, n_balls: int, seed: int = 0) -> list:
    """Randomized audit of the volume obstruction, one report per block: for
    random block balls the rationals of the dyadic block in the closed
    6-dilate must always sit on a single hyperplane.  Exact arithmetic decides;
    counterexamples are counted (zero is expected at every block).  Every
    block's enumeration refusal is raised before any block is enumerated."""
    for n in blocks:
        scale = DyadicScale(n, d)
        for centres in _audit_centres(d, n, n_balls, seed):
            _check_windows(n, *_six_dilates(scale, centres)[:2])
    reports = []
    for n in blocks:
        scale = DyadicScale(n, d)
        max_pts = bad = 0
        for centres in _audit_centres(d, n, n_balls, seed):
            counts, _, offsets = _block_witness(scale, centres)
            max_pts = max(max_pts, int(counts.max(initial=0)))
            bad += int(np.isnan(offsets).sum())
        reports.append(LemmaAuditReport(d=d, n=n, balls=n_balls, max_rationals=max_pts,
                                        simplex_counterexamples=bad))
    return reports


def _audit_centres(d: int, n: int, n_balls: int, seed: int):
    """The ball centres audit_hyperplane_lemma draws for block n, in chunks
    of at most _AUDIT_BLOCK rows."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([seed, d, n]))
    for start in range(0, n_balls, _AUDIT_BLOCK):
        # one (k, d) draw gives the bits of k draws of d numbers each
        yield rng.random((min(_AUDIT_BLOCK, n_balls - start), d)) * _AUDIT_BOX_SIDE


@dataclass(frozen=True)
class LayerDecayResult:
    """Per-block empirical layer mass next to the decay envelope
    (2^(n (d+1)/d) psi(2^n))^alpha, plus fitted log2 slopes."""

    rows: tuple  # (n, empirical mass, envelope)
    empirical_slope: float
    predicted_slope: float
    samples: int


def layer_decay_experiment(
    sys: IFSystem,
    psi: PsiFunction,
    alpha: float,
    blocks,
    n_samples: int,
    seed: int = 0,
) -> LayerDecayResult:
    """Estimate the natural-measure mass of each block layer by sampling;
    alpha, and every block of the range against the layer test's rules, are
    checked before any sample is drawn."""
    _check_alpha(sys, alpha)
    for n in blocks:
        _check_denominators(n)
    pts = _sorted_sample(sys, n_samples, seed)
    d = sys.dim
    rows = []
    for n, mask in zip(blocks, layer_hit_masks(pts, blocks, psi)):
        emp = float(mask.mean())
        env = float((2.0 ** (n * (d + 1) / d) * psi(2.0**n)) ** alpha)
        rows.append((n, emp, env))
    ns = np.array([r[0] for r in rows], dtype=float)
    emp = np.array([r[1] for r in rows])
    env = np.array([r[2] for r in rows])
    fit_mask = emp > 0
    emp_slope = _log2_slope(ns[fit_mask], emp[fit_mask])
    pred_slope = _log2_slope(ns, env)
    return LayerDecayResult(tuple(rows), emp_slope, pred_slope, n_samples)


def _sorted_sample(sys: IFSystem, count: int, seed) -> np.ndarray:
    """sample_measure's points in ascending order of the first coordinate,
    so that the layer test's sweep, where it takes a block, sorts them in
    one pass.  On the runs of the benchmark (cantor decay at tau 2.5, and
    dim-report at tau 3) the sweep takes no block: the q loop and the shared
    continued-fraction run take them all.  Layer masks are per point, and
    layer masses and box counts ignore order."""
    pts = sample_measure(sys, count, seed)
    return pts[np.argsort(pts[:, 0])]


def _log2_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log2 y against x; nan below two points."""
    if x.size < 2:
        return math.nan
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, np.log2(y), rcond=None)
    return float(coef[0])


# The blocks whose layers approximant_points unites, and the most sampling
# batches it draws to reach _MIN_POINTS points.
_APPROXIMANT_BLOCKS = range(5, 11)
_MAX_BATCHES = 12


def approximant_points(
    sys: IFSystem,
    psi: PsiFunction,
    seed: int = 0,
    batch: int = 1_000_000,
) -> np.ndarray:
    """Natural-measure samples lying in at least one layer of the blocks
    _APPROXIMANT_BLOCKS; sampling continues in deterministic batches until at
    least _MIN_POINTS survivors are collected (or _MAX_BATCHES are drawn)."""
    d = sys.dim
    survivors = []
    total = 0
    for b in range(_MAX_BATCHES):
        pts = _sorted_sample(sys, batch, np.random.SeedSequence([seed, b]))
        mask = layer_hit_masks(pts, _APPROXIMANT_BLOCKS, psi).any(axis=0)
        survivors.append(pts[mask])
        total += int(mask.sum())
        if total >= _MIN_POINTS:
            break
    return np.concatenate(survivors) if survivors else np.empty((0, d))


def dimension_report(
    sys: IFSystem,
    alpha: float,
    taus,
    seed: int = 0,
    batch: int = 1_000_000,
    on_shortfall=None,
) -> list:
    """Rows (tau, dimension bound, box-count estimate of the approximant).
    Taus below the Dirichlet exponent (d+1)/d get a None bound and no
    estimate; every other tau's psi is built, or refused with its tau, before
    any sample is drawn.  The counting scales are six log-spaced values
    spanning the ball radii of the ends of _APPROXIMANT_BLOCKS, the window
    where the layer union thins out the way the limsup set does.  A tau whose
    approximant keeps fewer than _MIN_POINTS points gets a None estimate, and
    on_shortfall(tau, points kept), if given, is told.  An alpha outside
    (0, delta] is refused first."""
    _check_alpha(sys, alpha)
    d = sys.dim
    plans = []
    for tau in taus:
        try:
            bound = dimension_bound(sys.delta, alpha, d, tau)
        except ValueError:  # tau below the Dirichlet exponent
            plans.append((tau, None, None))
            continue
        try:
            plans.append((tau, bound, PsiFunction.power(tau, d=d)))
        except ValueError as e:
            raise ValueError(f"tau={tau}: {e}") from e
    rows = []
    for tau, bound, psi in plans:
        est = None
        if psi is not None:
            pts = approximant_points(sys, psi, seed=seed, batch=batch)
            if pts.shape[0] >= _MIN_POINTS:
                n_lo, n_hi = _APPROXIMANT_BLOCKS[0], _APPROXIMANT_BLOCKS[-1]
                scales = np.geomspace(float(psi(2.0**n_hi)), float(psi(2.0**n_lo)), 6)
                est = box_dimension(pts, scales).slope
            elif on_shortfall is not None:
                on_shortfall(tau, pts.shape[0])
        rows.append((tau, bound, est))
    return rows
