"""Empirical certificates for the three measure hypotheses: doubling,
absolute decay against hyperplane neighborhoods, and two-sided regularity.

A certificate is not a proof.  Constants are maxima (or envelopes) over a
finite random sample, made conservative by interval-arithmetic inflation of
every mass ratio; the samples ship with the constant so the evidence can be
re-examined or re-validated on fresh trials.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import Ball, Hyperplane, Slab
from .ifs import IFSystem, measure_of_ball, measure_of_slab_in_ball, sample_measure

__all__ = [
    "CertificationError",
    "DoublingCertificate",
    "DecayCertificate",
    "RegularityCertificate",
    "certify_doubling",
    "certify_decay",
    "certify_regularity",
    "decay_alpha_from_regularity",
    "default_r0",
    "certificate_table",
]

_REL_TOL = 0.02
_MIN_TOL = 1e-9
MAX_DISCARD_FRACTION = 0.2


class CertificationError(RuntimeError):
    """Too many degenerate trials (or an inconsistent sample) to certify."""


def default_r0(sys: IFSystem) -> float:
    """Default upper radius: a tenth of the witness diameter, small enough
    that cylinders resolve quickly, large enough to see the measure."""
    return sys.diameter / 10.0


def _ball_tol(sys: IFSystem, r: float) -> float:
    expected = (min(r / sys.diameter, 1.0)) ** sys.delta
    return max(_REL_TOL * expected, _MIN_TOL)


def _trial_rng(seed: int, idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([abs(int(seed)), int(idx)]))


def _trial_center_radius(sys: IFSystem, r0: float, rng) -> tuple:
    center = sample_measure(sys, 1, rng)[0]
    radius = r0 * math.exp(-math.log(100.0) * float(rng.random()))
    return center, radius


# ---------------------------------------------------------------------------
# trial workers (module level: picklable for process pools)
# ---------------------------------------------------------------------------


def _doubling_trial(args) -> tuple | None:
    sys, r0, seed, idx, _ = args
    rng = _trial_rng(seed, idx)
    center, radius = _trial_center_radius(sys, r0, rng)
    m1 = measure_of_ball(sys, Ball(center, radius), _ball_tol(sys, radius))
    m2 = measure_of_ball(sys, Ball(center, 2.0 * radius), _ball_tol(sys, 2.0 * radius))
    if m1.lo <= 0.0:
        return None
    return (tuple(center), radius, m2.lo / m1.hi, m2.hi / m1.lo)


def _decay_trial(args) -> tuple | None:
    sys, r0, seed, idx, alpha = args
    rng = _trial_rng(seed, idx)
    center, radius = _trial_center_radius(sys, r0, rng)
    normal = rng.normal(size=sys.dim)
    normal /= np.linalg.norm(normal)
    plane = Hyperplane(normal, float(normal @ center))
    rel = math.exp(
        math.log(1e-4) + (math.log(0.25) - math.log(1e-4)) * float(rng.random())
    )
    eps = rel * radius
    envelope = rel**alpha
    ball = Ball(center, radius)
    m_ball = measure_of_ball(sys, ball, _ball_tol(sys, radius))
    if m_ball.lo <= 0.0:
        return None
    slab_tol = max(_REL_TOL * envelope * m_ball.lo, _MIN_TOL)
    m_slab = measure_of_slab_in_ball(sys, ball, Slab(plane, eps), slab_tol)
    m_small = measure_of_ball(sys, Ball(center, eps), _ball_tol(sys, eps))
    return (
        tuple(center),
        radius,
        eps,
        m_slab.lo / (envelope * m_ball.hi),
        m_slab.hi / (envelope * m_ball.lo),
        m_small.hi / (envelope * m_ball.lo),
    )


def _regularity_trial(args) -> tuple | None:
    sys, r0, seed, idx, _ = args
    rng = _trial_rng(seed, idx)
    center, radius = _trial_center_radius(sys, r0, rng)
    m = measure_of_ball(sys, Ball(center, radius), _ball_tol(sys, radius))
    if m.lo <= 0.0:
        return None
    scale = radius**sys.delta
    return (tuple(center), radius, m.lo / scale, m.hi / scale)


_TAIL_MARGIN = 4.0


def _tail_factor(vals: list, k: int = 10) -> float:
    """1 + 4 * the relative spread between vals[0] and the k-th value.

    A raw sample extreme under-estimates an essential supremum (infimum), so
    fresh trials routinely beat it; extrapolating the observed top-tail
    spread makes the constant stable under re-sampling while collapsing to
    the exact extreme when the tail is saturated (zero spread).  The factor 4
    was calibrated so that 500-trial certificates on the bundled systems
    re-validate on fresh seeds.
    """
    kth = vals[min(k, len(vals)) - 1]
    spread = abs(vals[0] - kth) / kth if kth > 0 else 0.0
    return 1.0 + _TAIL_MARGIN * spread


def _tail_inflated_max(values) -> float:
    vals = sorted(values, reverse=True)
    return vals[0] * _tail_factor(vals)


def _tail_deflated_min(values) -> float:
    vals = sorted(values)
    return vals[0] / _tail_factor(vals)


def _run_ordered(worker, payloads: list, jobs: int) -> list:
    """worker(p) for every payload, in order, serially or over `jobs`
    processes; the pool's map keeps the order, so results never depend on
    `jobs`."""
    if jobs <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, payloads,
                             chunksize=max(1, len(payloads) // (4 * jobs))))


def _finish(results: list, trials: int) -> list:
    kept = [r for r in results if r is not None]
    discarded = trials - len(kept)
    if discarded > MAX_DISCARD_FRACTION * trials:
        raise CertificationError(
            f"{discarded}/{trials} trials discarded (> {MAX_DISCARD_FRACTION:.0%}); "
            "measure resolution too coarse at this r0"
        )
    return kept


def _collect(worker, sys: IFSystem, trials: int, r0: float | None, seed: int,
             jobs: int, alpha: float | None = None) -> tuple:
    """Run `trials` seeded trials of `worker`; return the kept results and
    the fields every certificate records (r0, trials, discarded, seed).

    Shared by every certificate and re-validation.  Discarded trials (None)
    are dropped; more than 20% of them aborts.  That rule also covers an
    empty result: at least one trial is required, and losing all of them is
    a 100% discard.
    """
    if alpha is not None and not alpha > 0:
        raise ValueError("alpha must be positive")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if r0 is None:
        r0 = default_r0(sys)
    if not r0 > 0:
        raise ValueError("r0 must be positive")
    payloads = [(sys, r0, seed, i, alpha) for i in range(trials)]
    kept = _finish(_run_ordered(worker, payloads, jobs), trials)
    return kept, dict(r0=r0, trials=trials, discarded=trials - len(kept), seed=seed)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoublingCertificate:
    """Empirical doubling constant: mu(2B) <= D mu(B) on all sampled balls."""

    D: float
    r0: float
    samples: tuple  # (center, radius, ratio_lo, ratio_hi)
    trials: int
    discarded: int
    seed: int

    def validate(self, sys: IFSystem, trials: int, seed: int, jobs: int = 1) -> int:
        """Count fresh trials whose optimistic ratio still exceeds D."""
        kept, _ = _collect(_doubling_trial, sys, trials, self.r0, seed, jobs)
        return sum(1 for _, _, opt, _ in kept if opt > self.D)


@dataclass(frozen=True)
class DecayCertificate:
    """Empirical decay constant: mu(B cap L^eps) <= C (eps/r)^alpha mu(B).

    small_ball_C = C 2^alpha is the constant of the concentric-ball corollary,
    checked on every sample with eps/r < 1/4."""

    alpha: float
    C: float
    r0: float
    samples: tuple  # (center, radius, epsilon, ratio_lo, ratio_hi)
    small_ball_ratios: tuple
    trials: int
    discarded: int
    seed: int

    @property
    def small_ball_C(self) -> float:
        return self.C * 2.0**self.alpha

    def validate(self, sys: IFSystem, trials: int, seed: int, jobs: int = 1) -> int:
        kept, _ = _collect(_decay_trial, sys, trials, self.r0, seed, jobs, self.alpha)
        return sum(1 for row in kept if row[3] > self.C)


@dataclass(frozen=True)
class RegularityCertificate:
    """Empirical two-sided regularity a r^delta <= mu(B(x,r)) <= b r^delta."""

    a: float
    b: float
    delta: float
    r0: float
    samples: tuple  # (center, radius, ratio_lo, ratio_hi)
    trials: int
    discarded: int
    seed: int

    def validate(self, sys: IFSystem, trials: int, seed: int, jobs: int = 1) -> int:
        kept, _ = _collect(_regularity_trial, sys, trials, self.r0, seed, jobs)
        return sum(1 for _, _, lo, hi in kept if lo > self.b or hi < self.a)


def certify_doubling(
    sys: IFSystem, trials: int, r0: float | None = None, seed: int = 0, jobs: int = 1
) -> DoublingCertificate:
    """Fit the doubling constant on random balls centred at measure samples.

    Radii are log-uniform in [r0/100, r0); each ratio is inflated by the
    interval widths of both masses, so D upper-bounds every ratio compatible
    with the evidence.  Trials whose small-ball mass cannot be bounded away
    from zero are discarded; more than 20% discards aborts certification.
    """
    kept, common = _collect(_doubling_trial, sys, trials, r0, seed, jobs)
    return DoublingCertificate(
        D=_tail_inflated_max([hi for _, _, _, hi in kept]),
        samples=tuple(kept),
        **common,
    )


def certify_decay(
    sys: IFSystem,
    alpha: float,
    trials: int,
    r0: float | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> DecayCertificate:
    """Fit the absolute decay constant for the given exponent alpha.

    Slabs are anchored at the ball centre (a measure sample, stressing planes
    through mass) with a uniformly random unit normal, and half-widths
    log-uniform in [r/10^4, r/4].  The concentric-ball ratio of each trial is
    recorded against the corollary constant C 2^alpha.
    """
    kept, common = _collect(_decay_trial, sys, trials, r0, seed, jobs, alpha)
    cert = DecayCertificate(
        alpha=alpha,
        C=_tail_inflated_max([r[4] for r in kept]),
        samples=tuple((r[0], r[1], r[2], r[3], r[4]) for r in kept),
        small_ball_ratios=tuple(r[5] for r in kept),
        **common,
    )
    bad = [x for x in cert.small_ball_ratios if x > cert.small_ball_C * (1 + 1e-12)]
    if bad:
        raise CertificationError(
            f"{len(bad)} trials violate the concentric-ball corollary bound "
            f"C 2^alpha = {cert.small_ball_C:.6g}"
        )
    return cert


def certify_regularity(
    sys: IFSystem, trials: int, r0: float | None = None, seed: int = 0, jobs: int = 1
) -> RegularityCertificate:
    """Fit the two-sided envelope of mu(B(x,r)) / r^delta on random balls."""
    kept, common = _collect(_regularity_trial, sys, trials, r0, seed, jobs)
    return RegularityCertificate(
        a=_tail_deflated_min([lo for _, _, lo, _ in kept]),
        b=_tail_inflated_max([hi for _, _, _, hi in kept]),
        delta=sys.delta,
        samples=tuple(kept),
        **common,
    )


def decay_alpha_from_regularity(delta: float, d: int) -> float | None:
    """Decay exponent delta - (d - 1) implied by two-sided regularity, when
    positive; None otherwise."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    alpha = delta - (d - 1)
    return alpha if alpha > 0 else None


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def certificate_table(cert) -> tuple:
    """(columns, rows, trailer) of a certificate's CSV: one row per sample
    (center coords, radius, epsilon or None, ratio lo, ratio hi), then the
    constants in a trailing comment line."""
    d = len(cert.samples[0][0])
    columns = [f"center_{i}" for i in range(d)] + [
        "radius", "epsilon", "ratio_lo", "ratio_hi",
    ]
    rows = []
    for row in cert.samples:
        if isinstance(cert, DecayCertificate):
            center, radius, eps, lo, hi = row
            eps = float(eps)
        else:
            center, radius, lo, hi = row
            eps = None
        rows.append((*(float(c) for c in center), float(radius), eps,
                     float(lo), float(hi)))
    if isinstance(cert, DoublingCertificate):
        tail = f"# D={cert.D!r} r0={cert.r0!r}"
    elif isinstance(cert, DecayCertificate):
        tail = (
            f"# C={cert.C!r} alpha={cert.alpha!r} "
            f"small_ball_C={cert.small_ball_C!r} r0={cert.r0!r}"
        )
    else:
        tail = f"# a={cert.a!r} b={cert.b!r} delta={cert.delta!r} r0={cert.r0!r}"
    return columns, rows, [tail]
