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

from .approx import PsiFunction, enumerate_rationals, layer_hit_mask
from .geometry import (
    Ball,
    Box,
    DyadicScale,
    Slab,
    _greedy_centres,
    _reach,
    hyperplane_witness,
)
from .ifs import IFSystem, _Frontier, sample_measure

__all__ = [
    "SumSpec",
    "SumVerdict",
    "CoverCost",
    "classify_sum",
    "predict_measure_zero",
    "dimension_bound",
    "sum_term_log",
    "condensed_term_log",
    "build_dn_cover",
    "build_cdn_cover",
    "cover_cost",
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
                     gates the s-dimensional cover-cost verdict; s <= delta
    """

    kind: str
    psi: PsiFunction
    d: int
    alpha: float | None = None
    delta: float | None = None
    s: float | None = None

    def __post_init__(self):
        if self.kind not in ("lebesgue", "measure_zero", "hausdorff"):
            raise ValueError(f"unknown sum kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind in ("measure_zero", "hausdorff"):
            if self.alpha is None or self.alpha <= 0:
                raise ValueError(f"{self.kind} needs alpha > 0")
        if self.kind == "hausdorff":
            if self.delta is None or self.s is None:
                raise ValueError("the hausdorff sum needs both s and delta")
            if self.s > self.delta + _BOUNDARY_TOL:
                raise ValueError("the hausdorff sum assumes s <= delta")

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
    if psi.family == "power":
        lpsi = -psi.tau * np.log(rr)
    elif psi.family in ("power_log", "generic_power_log"):
        tau = (psi.d + 1) / psi.d if psi.family == "power_log" else psi.tau
        lpsi = -tau * np.log(rr) - psi.beta * np.log(np.log(rr))
    else:
        lpsi = np.log(psi(rr))
    return base + e * lpsi


def condensed_term_log(spec: SumSpec, n) -> np.ndarray:
    """log of the dyadic condensation term 2^n * f(2^n)."""
    nn = np.asarray(n, dtype=float)
    return nn * math.log(2.0) + sum_term_log(spec, 2.0**nn)


def _closed_form_exponents(spec: SumSpec) -> tuple:
    """(A, B) with summand asymptotically r^A (log r)^B."""
    psi = spec.psi
    e = spec.psi_exponent
    if psi.family == "power":
        tau, beta = psi.tau, 0.0
    elif psi.family == "power_log":
        tau, beta = (psi.d + 1) / psi.d, psi.beta
    elif psi.family == "generic_power_log":
        tau, beta = psi.tau, psi.beta
    else:
        raise ValueError("no closed form for tabulated psi")
    return spec.r_exponent - tau * e, -beta * e


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


def classify_sum(spec: SumSpec, blocks=CONDENSATION_BLOCKS) -> SumVerdict:
    """Trivalent convergence verdict for the requested sum.

    Symbolic psi families are classified in closed form from the exponent pair
    (A, B) of the summand r^A (log r)^B: convergent iff A < -1, or A = -1 and
    B < -1.  Tabulated psi gets the dyadic-condensation heuristic: fit the
    condensed terms to a geometric-times-polynomial shape and read the rates,
    answering undetermined near the boundary or on short tables.
    """
    if spec.psi.family != "table":
        a_exp, b_exp = _closed_form_exponents(spec)
        if a_exp < -1.0 - _BOUNDARY_TOL:
            verdict = "yes"
        elif a_exp > -1.0 + _BOUNDARY_TOL:
            verdict = "no"
        elif b_exp < -1.0 - _BOUNDARY_TOL:
            verdict = "yes"
        elif b_exp > -1.0 + _BOUNDARY_TOL:
            verdict = "no"
        else:
            verdict = "no"  # A = -1, B = -1 exactly: sum 1/(r log r) diverges
        margin = abs(a_exp + 1.0)
        if margin <= _BOUNDARY_TOL:
            margin = abs(b_exp + 1.0)
        crit = (
            f"summand ~ r^{a_exp:.12g} (log r)^{b_exp:.12g}; "
            "convergent iff A < -1 or (A = -1 and B < -1)"
        )
        _, _, condensed, partials = _condensation_evidence(spec, blocks)
        return SumVerdict(verdict, "closed_form", crit, margin,
                          condensed, partials)

    # tabulated psi: condensation over the covered dyadic range
    r = spec.psi.table_r
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


def predict_measure_zero(spec: SumSpec, decay_certificate=None) -> str:
    """"mu_null" when the measure_zero-kind sum converges, "no_conclusion"
    otherwise (a divergent sum supports no conclusion either way).

    The prediction is only meaningful for a measure certified doubling and
    absolutely alpha-decaying; pass the DecayCertificate to source alpha.
    """
    if spec.kind != "measure_zero":
        raise ValueError("measure-zero prediction expects a measure_zero-kind sum")
    if decay_certificate is not None and abs(decay_certificate.alpha - spec.alpha) > 1e-9:
        raise ValueError("certificate alpha does not match the sum spec")
    return "mu_null" if classify_sum(spec).converges == "yes" else "no_conclusion"


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


def build_dn_cover(sys: IFSystem, n: int) -> list:
    """Disjoint balls of block radius r_n with centres in K whose 3-dilates
    cover the attractor.

    A cylinder net is refined until each cylinder has diameter <= r_n, so the
    cylinder anchor images form an r_n-net of K; the greedy cover then selects
    a 2 r_n-separated subset.  Every point of K is within r_n of a candidate
    and within 3 r_n of a selected centre.
    """
    r_n = DyadicScale(n, sys.dim).r_n
    depth_needed = _net_depth(sys, n)
    if depth_needed > 64:
        feasible = _max_feasible_block(sys)
        raise ValueError(
            f"block {n} needs cylinder depth {depth_needed} > 64; "
            f"largest feasible block is {feasible}"
        )
    if sys.k**depth_needed > _NET_BUDGET:
        raise ValueError(
            f"cylinder net of ~{sys.k**depth_needed:.2e} candidates refused"
        )

    return [Ball(c, r_n) for c in _greedy_centres(_cylinder_net(sys, r_n), r_n)]


def _net_depth(sys: IFSystem, n: int) -> int:
    """Cylinder depth at which every cylinder is at most r_n across."""
    r_n = DyadicScale(n, sys.dim).r_n
    return max(0, math.ceil(math.log(r_n / sys.diameter, float(np.max(sys.ratios)))))


def _max_feasible_block(sys: IFSystem) -> int:
    for n in range(0, 1000):
        if _net_depth(sys, n) > 64:
            return n - 1
    return 1000


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


def build_cdn_cover(
    sys: IFSystem,
    dn: Ball,
    slab: Slab,
    psi: PsiFunction,
    n: int,
    pool: np.ndarray | None = None,
    seed: int = 0,
    pool_size: int = 10_000,
) -> list:
    """Disjoint balls of radius psi(2^n) centred at natural-measure samples in
    (3 D_n) intersect slab; their 3-dilates cover those samples."""
    if pool is None:
        pool = sample_measure(sys, pool_size, seed)
    r = float(psi(2.0**n))
    order = np.argsort(pool[:, 0])
    return [Ball(c, r) for c in _cdn_centres(pool, order, pool[order, 0], dn, slab, r)]


def _cdn_centres(pool, order, x0, dn: Ball, slab: Slab, r: float) -> np.ndarray:
    """build_cdn_cover's centres, as rows.  `order` sorts the pool by its first
    coordinate, x0 = pool[order, 0], and only the rows within reach of 3 D_n
    in x0 are tested.  For d >= 2 slab distances come from the whole pool's
    product, as BLAS may round the rows of a slice's product differently."""
    c, radius = dn.center, 3.0 * dn.radius
    w = _reach(radius)
    rows = order[np.searchsorted(x0, c[0] - w):np.searchsorted(x0, c[0] + w, "right")]
    sub, normal = pool[rows], slab.plane.normal
    proj = sub @ normal if normal.size == 1 else (pool @ normal)[rows]
    keep = ((np.linalg.norm(sub - c, axis=1) <= radius)
            & (np.abs(proj - slab.plane.offset) <= slab.epsilon))
    return _greedy_centres(sub[keep], r)


@dataclass(frozen=True)
class CoverCost:
    """Cost sum(radius^s) of a ball collection with radii <= rho."""

    s: float
    rho: float
    radii: tuple
    cost: float


def cover_cost(s: float, balls, rho: float | None = None) -> CoverCost:
    """Cover cost at exponent s; balls may be Ball objects or bare radii."""
    if s < 0:
        raise ValueError("exponent s must be >= 0")
    radii = tuple(
        float(b.radius) if isinstance(b, Ball) else float(b) for b in balls
    )
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if rho is None:
        rho = max(radii) if radii else 0.0
    if any(r > rho * (1 + 1e-12) for r in radii):
        raise ValueError("a radius exceeds the cover scale rho")
    return CoverCost(s=s, rho=rho, radii=radii, cost=float(sum(r**s for r in radii)))


@dataclass(frozen=True)
class HsTail:
    """Tail costs of the triple-sum cover of the well-approximable part.

    rows hold (n, #D_n, #C total over D_n, cost_n with cost_n =
    #C_total * (3 psi(2^n))^s); tails[k] = sum of cost_n for n >= k; c_max[j]
    is the largest single-ball count #C(D_n) seen at rows[j].
    """

    s: float
    rows: tuple
    tails: tuple  # (k, tail cost) pairs, k = k_min..k_max
    c_max: tuple


def hs_upper_bound(
    sys: IFSystem,
    psi: PsiFunction,
    s: float,
    k_min: int,
    k_max: int,
    seed: int = 0,
    pool_size: int = 20_000,
) -> HsTail:
    """Assemble the block-cover cost sum_n #D_n #C(D_n) (3 psi(2^n))^s and
    report its tails for starting blocks k_min..k_max.

    For each block ball D_n the rationals of the dyadic block inside the
    closed 6-dilate determine the slab (half-width sqrt(d) psi(2^n)); the slab
    mass inside 3 D_n is then covered by sample-centred balls of radius
    psi(2^n).  Balls whose 6-dilate holds no block rational contribute no
    cost.
    """
    if not 0 <= s:
        raise ValueError("s must be >= 0")
    if k_min < 0 or k_max < k_min:
        raise ValueError("need 0 <= k_min <= k_max")
    d = sys.dim
    sq = math.sqrt(d)
    rows = []
    c_maxes = []
    for n in range(k_min, k_max + 1):
        dn_balls = build_dn_cover(sys, n)
        pool = sample_measure(sys, pool_size, np.random.SeedSequence([seed, n]))
        order = np.argsort(pool[:, 0])
        x0 = pool[order, 0]
        r = float(psi(2.0**n))
        scale = DyadicScale(n, d)
        c_total = 0
        c_max = 0
        for dn in dn_balls:
            pts = _block_rationals_in_six_dilate(d, scale, dn)
            if not pts:
                continue
            witness = hyperplane_witness(pts, dn, scale)
            if not witness.is_hyperplane:
                raise RuntimeError(
                    "volume obstruction failed inside hs_upper_bound; "
                    "this contradicts the block geometry"
                )
            slab = Slab(witness.hyperplane, sq * r)
            count = len(_cdn_centres(pool, order, x0, dn, slab, r))
            c_total += count
            c_max = max(c_max, count)
        cost_n = c_total * (3.0 * r) ** s
        rows.append((n, len(dn_balls), c_total, cost_n))
        c_maxes.append(c_max)
    costs = [row[3] for row in rows]
    tails = []
    for k in range(k_min, k_max + 1):
        tails.append((k, float(sum(costs[k - k_min:]))))
    return HsTail(s=s, rows=tuple(rows), tails=tuple(tails), c_max=tuple(c_maxes))


def _block_rationals_in_six_dilate(d: int, scale: DyadicScale, dn: Ball) -> list:
    six = dn.dilate(6.0)
    window = Box(six.center - six.radius, six.center + six.radius)
    pts = enumerate_rationals(d, scale.n, window)
    keep = []
    for p in pts:
        if np.linalg.norm(p.as_float() - six.center) <= six.radius * (1 + 1e-9):
            keep.append(p)
    return keep


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------


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
    if pts.shape[0] < 1000:
        raise ValueError("box counting needs at least 1000 points")
    scales = sorted(float(g) for g in scales)
    if len(scales) < 4:
        raise ValueError("box counting needs at least 4 scales")
    counts = []
    for g in scales:
        cells = np.floor(pts / g).astype(np.int64)
        counts.append(len(np.unique(cells, axis=0)))
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


def audit_hyperplane_lemma(
    d: int, n: int, n_balls: int, seed: int = 0, box_side: float = 1.0
) -> LemmaAuditReport:
    """Randomized audit of the volume obstruction: for random block balls the
    rationals of the dyadic block in the closed 6-dilate must always sit on a
    single hyperplane.  Exact arithmetic decides; counterexamples are counted
    (zero is the expected outcome at every block)."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([seed, d, n]))
    scale = DyadicScale(n, d)
    max_pts = 0
    bad = 0
    for _ in range(n_balls):
        center = rng.random(d) * box_side
        ball = Ball(center, scale.r_n)
        pts = _block_rationals_in_six_dilate(d, scale, ball)
        max_pts = max(max_pts, len(pts))
        witness = hyperplane_witness(pts, ball, scale)
        if not witness.is_hyperplane:
            bad += 1
    return LemmaAuditReport(d=d, n=n, balls=n_balls, max_rationals=max_pts,
                            simplex_counterexamples=bad)


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
    """Estimate the natural-measure mass of each block layer by sampling."""
    blocks = list(blocks)
    pts = sample_measure(sys, n_samples, seed)
    d = sys.dim
    rows = []
    for n in blocks:
        mask = layer_hit_mask(pts, n, psi, d)
        emp = float(mask.mean())
        env = float((2.0 ** (n * (d + 1) / d) * psi(2.0**n)) ** alpha)
        rows.append((n, emp, env))
    ns = np.array([r[0] for r in rows], dtype=float)
    emp = np.array([r[1] for r in rows])
    env = np.array([r[2] for r in rows])
    fit_mask = emp > 0
    emp_slope = _log2_slope(ns[fit_mask], emp[fit_mask]) if fit_mask.sum() >= 2 else math.nan
    pred_slope = _log2_slope(ns, env)
    return LayerDecayResult(tuple(rows), emp_slope, pred_slope, n_samples)


def _log2_slope(x: np.ndarray, y: np.ndarray) -> float:
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, np.log2(y), rcond=None)
    return float(coef[0])


def approximant_points(
    sys: IFSystem,
    psi: PsiFunction,
    n_lo: int,
    n_hi: int,
    seed: int = 0,
    min_points: int = 1000,
    batch: int = 1_000_000,
    max_batches: int = 12,
) -> np.ndarray:
    """Natural-measure samples lying in at least one layer with block index in
    [n_lo, n_hi]; sampling continues in deterministic batches until at least
    min_points survivors are collected (or the batch budget runs out)."""
    d = sys.dim
    survivors = []
    total = 0
    for b in range(max_batches):
        pts = sample_measure(sys, batch, np.random.SeedSequence([seed, b]))
        mask = np.zeros(batch, dtype=bool)
        for n in range(n_lo, n_hi + 1):
            todo = ~mask
            if not todo.any():
                break
            mask[todo] |= layer_hit_mask(pts[todo], n, psi, d)
        survivors.append(pts[mask])
        total += int(mask.sum())
        if total >= min_points:
            break
    return np.concatenate(survivors) if survivors else np.empty((0, d))


def dimension_report(
    sys: IFSystem,
    alpha: float,
    taus,
    n_lo: int = 5,
    n_hi: int = 10,
    seed: int = 0,
    scales=None,
    min_points: int = 1000,
    batch: int = 1_000_000,
) -> list:
    """Rows (tau, dimension bound, box-count estimate of the block-[n_lo,n_hi]
    approximant).  Taus below the Dirichlet exponent are skipped with a None
    bound.  Counting scales default to six log-spaced values spanning the ball
    radii of the outermost blocks, the window where the layer union thins out
    the way the limsup set does."""
    d = sys.dim
    rows = []
    for tau in taus:
        if tau < (d + 1) / d - _BOUNDARY_TOL:
            rows.append((tau, None, None))
            continue
        bound = dimension_bound(sys.delta, alpha, d, tau)
        psi = PsiFunction.power(tau, d=d)
        pts = approximant_points(sys, psi, n_lo, n_hi, seed=seed,
                                 min_points=min_points, batch=batch)
        if pts.shape[0] < min_points:
            rows.append((tau, bound, None))
            continue
        if scales is None:
            g_lo = float(psi(2.0**n_hi))
            g_hi = float(psi(2.0**n_lo))
            use_scales = np.geomspace(g_lo, g_hi, 6)
        else:
            use_scales = scales
        est = box_dimension(pts, use_scales)
        rows.append((tau, bound, est.slope))
    return rows
