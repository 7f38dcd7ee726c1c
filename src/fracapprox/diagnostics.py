"""Empirical certificates for the three measure hypotheses: doubling,
absolute decay against hyperplane neighborhoods, and two-sided regularity.

A certificate is not a proof.  Constants are maxima (or envelopes) over a
finite random sample, made conservative by interval-arithmetic inflation of
every mass ratio; the samples ship with the constant so the evidence can be
re-examined or re-validated on fresh trials.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .ifs import (
    _TOL_FLOOR,
    SAMPLE_DEPTH,
    IFSystem,
    _check_alpha,
    _fold_digits,
    _uniform_digits,
    measure_many,
)

__all__ = [
    "CertificationError",
    "DoublingCertificate",
    "DecayCertificate",
    "RegularityCertificate",
    "certify_all",
    "decay_alpha_from_regularity",
    "default_r0",
    "certificate_table",
]

_REL_TOL = 0.02
MAX_DISCARD_FRACTION = 0.2
# Trials whose phases share one mass-oracle call.  This bounds the objects
# a block holds per trial (each trial's Generator, about 1 KB, plus its row
# plans and query tuples), so their memory grows with this and not with
# --trials; the oracle bounds the frontier rows itself.
_TRIAL_BLOCK = 1024


class CertificationError(RuntimeError):
    """Too many degenerate trials (or an inconsistent sample) to certify."""


def default_r0(sys: IFSystem) -> float:
    """Default upper radius: a tenth of the witness diameter, small enough
    that cylinders resolve quickly, large enough to see the measure."""
    return sys.diameter / 10.0


def _ball_tol(sys: IFSystem, r: float) -> float:
    expected = (min(r / sys.diameter, 1.0)) ** sys.delta
    return max(_REL_TOL * expected, _TOL_FLOOR)


# ---------------------------------------------------------------------------
# the trial-block worker (module level: picklable for process pools)
# ---------------------------------------------------------------------------


def _trial_block(args) -> list:
    """Seeded trials start..stop-1, in phases; one row tuple per trial, or
    None (a discarded trial) when mu(B(x, r)) cannot be bounded away from
    zero.

    Every trial draws from its own rng in the order a lone trial would: one
    rng.random(SAMPLE_DEPTH + 1) call gives the centre's digits and the
    radius, then, if kept, the draws of each certificate kind's row.  The
    centres are folded in one call, all mu(B(x, r)) come from one
    measure_many call on arrays, and all the masses the rows need from
    another.
    """
    kinds, sys, r0, seed, start, stop, alpha = args
    rngs = [np.random.default_rng(np.random.SeedSequence([int(seed), i]))
            for i in range(start, stop)]
    draws = np.array([rng.random(SAMPLE_DEPTH + 1) for rng in rngs])
    centers = _fold_digits(sys, _uniform_digits(sys, draws[:, :SAMPLE_DEPTH]))
    radii = [r0 * math.exp(-math.log(100.0) * u) for u in draws[:, SAMPLE_DEPTH].tolist()]
    masses = measure_many(sys, centers, radii, [_ball_tol(sys, r) for r in radii])
    kept = [i for i, m in enumerate(masses) if m.lo > 0.0]
    plans = [[kind._row(sys, rngs[i], centers[i], radii[i], masses[i], alpha)
              for kind in kinds] for i in kept]
    queries = [(i, *q) for i, plan in zip(kept, plans) for qs, _ in plan for q in qs]
    trial, radius, tol, normal, offset, width = zip(*queries) if queries else ((),) * 6
    found = iter(measure_many(sys, centers[list(trial)], radius, tol,
                              (np.reshape(normal, (-1, sys.dim)), offset, width)))
    results = [None] * (stop - start)
    for i, plan in zip(kept, plans):
        results[i] = tuple(row(*[next(found) for _ in qs]) for qs, row in plan)
    return results


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
    """worker(p) for every payload, in order, serially or over a process
    pool of at most `jobs` workers, one per payload and one per CPU; the
    pool's map keeps the order, so results never depend on `jobs`."""
    workers = min(jobs, len(payloads), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(p) for p in payloads]
    # imported here: the pool's modules would add 20-30 ms to every start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads,
                             chunksize=max(1, len(payloads) // (4 * workers))))


def _finish(results: list, trials: int) -> list:
    kept = [r for r in results if r is not None]
    discarded = trials - len(kept)
    if discarded > MAX_DISCARD_FRACTION * trials:
        raise CertificationError(
            f"{discarded}/{trials} trials discarded (> {MAX_DISCARD_FRACTION:.0%}); "
            "measure resolution too coarse at this r0"
        )
    return kept


def _collect(kinds: tuple, sys: IFSystem, trials: int, r0: float | None, seed: int,
             jobs: int, alpha: float | None = None) -> tuple:
    """Run `trials` seeded trials, each building the row of every given
    certificate kind; return one list of kept rows per kind and the fields
    every certificate records besides its samples (r0, trials, discarded,
    seed).

    Shared by every certificate and re-validation.  Discarded trials (None)
    are dropped; more than 20% of them aborts.  That rule also covers an
    empty result: at least one trial is required, and losing all of them is
    a 100% discard.
    """
    if alpha is not None:
        _check_alpha(sys, alpha)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if r0 is None:
        r0 = default_r0(sys)
    if not 0 < r0 < math.inf:
        raise ValueError("r0 must be positive and finite")
    # contiguous blocks of at most _TRIAL_BLOCK trials, one or more per worker
    workers = max(1, min(jobs, os.cpu_count() or 1))
    size = min(_TRIAL_BLOCK, -(-trials // workers))
    payloads = [(kinds, sys, r0, seed, start, min(start + size, trials), alpha)
                for start in range(0, trials, size)]
    blocks = _run_ordered(_trial_block, payloads, jobs)
    kept = _finish([r for block in blocks for r in block], trials)
    common = dict(r0=r0, trials=trials, discarded=trials - len(kept), seed=seed)
    return list(zip(*kept)), common


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class _Certificate:
    """The fields every certificate records, and its re-validation.

    Each kind (subclass) owns its rules:
    - _row(sys, rng, center, radius, m, alpha), called with a kept trial's
      rng (after the centre and radius draws), centre x, radius r and
      m = mu(B(x, r)).  It makes the trial's draws for the row and returns
      the masses the row needs, each a (radius, tol, unit normal, offset,
      half-width) query about x (half-width inf for a plain ball), and a
      function building the row from those masses, in the same order;
    - _fit(rows, common, sys, alpha), the certificate fitted on the kept rows;
    - _breaks(row), whether a fresh row breaks the certified constants;
    - _TRAILER, the fields written as name=value in the CSV's last line.
    """

    r0: float
    samples: tuple
    trials: int
    discarded: int
    seed: int

    def validate(self, sys: IFSystem, trials: int, seed: int, jobs: int = 1) -> int:
        """Count fresh trials, drawn up to this r0, whose rows break the
        certified constants."""
        (kept,), _ = _collect((type(self),), sys, trials, self.r0, seed, jobs,
                              getattr(self, "alpha", None))
        return sum(1 for row in kept if self._breaks(row))


@dataclass(frozen=True)
class DoublingCertificate(_Certificate):
    """Empirical doubling constant: mu(2B) <= D mu(B) on all sampled balls.

    Samples are (center, radius, ratio_lo, ratio_hi)."""

    D: float
    _TRAILER = ("D", "r0")

    @staticmethod
    def _row(sys, rng, center, radius, m, alpha) -> tuple:
        queries = [(2.0 * radius, _ball_tol(sys, 2.0 * radius), np.zeros(sys.dim), 0.0, math.inf)]
        return queries, lambda m2: (tuple(center), radius, m2.lo / m.hi, m2.hi / m.lo)

    @classmethod
    def _fit(cls, rows, common, sys, alpha) -> DoublingCertificate:
        return cls(D=_tail_inflated_max([hi for _, _, _, hi in rows]),
                   samples=tuple(rows), **common)

    def _breaks(self, row) -> bool:
        return row[2] > self.D  # the optimistic ratio still exceeds D


def _decay_row(center, radius, eps, envelope, m, m_slab, m_small) -> tuple:
    return (
        tuple(center),
        radius,
        eps,
        m_slab.lo / (envelope * m.hi),
        m_slab.hi / (envelope * m.lo),
        m_small.hi / (envelope * m.lo),
    )


@dataclass(frozen=True)
class DecayCertificate(_Certificate):
    """Empirical decay constant: mu(B cap L^eps) <= C (eps/r)^alpha mu(B).

    small_ball_C = C 2^alpha is the constant of the concentric-ball corollary,
    checked on every sample with eps/r < 1/4.  Samples are (center, radius,
    epsilon, ratio_lo, ratio_hi)."""

    alpha: float
    C: float
    small_ball_ratios: tuple
    _TRAILER = ("C", "alpha", "small_ball_C", "r0")

    @property
    def small_ball_C(self) -> float:
        return self.C * 2.0**self.alpha

    @staticmethod
    def _row(sys, rng, center, radius, m, alpha) -> tuple:
        normal = rng.normal(size=sys.dim)
        normal /= np.linalg.norm(normal)
        offset = float(normal @ center)
        rel = math.exp(
            math.log(1e-4) + (math.log(0.25) - math.log(1e-4)) * float(rng.random())
        )
        eps = rel * radius
        envelope = rel**alpha
        slab_tol = max(_REL_TOL * envelope * m.lo, _TOL_FLOOR)
        queries = [(radius, slab_tol, normal, offset, eps),
                   (eps, _ball_tol(sys, eps), np.zeros(sys.dim), 0.0, math.inf)]
        return queries, lambda m_slab, m_small: _decay_row(
            center, radius, eps, envelope, m, m_slab, m_small)

    @classmethod
    def _fit(cls, rows, common, sys, alpha) -> DecayCertificate:
        cert = cls(
            alpha=alpha,
            C=_tail_inflated_max([r[4] for r in rows]),
            samples=tuple(r[:5] for r in rows),
            small_ball_ratios=tuple(r[5] for r in rows),
            **common,
        )
        bad = [x for x in cert.small_ball_ratios if x > cert.small_ball_C * (1 + 1e-12)]
        if bad:
            raise CertificationError(
                f"{len(bad)} trials violate the concentric-ball corollary bound "
                f"C 2^alpha = {cert.small_ball_C:.6g}"
            )
        return cert

    def _breaks(self, row) -> bool:
        return row[3] > self.C  # the optimistic ratio still exceeds C


@dataclass(frozen=True)
class RegularityCertificate(_Certificate):
    """Empirical two-sided regularity a r^delta <= mu(B(x,r)) <= b r^delta.

    Samples are (center, radius, ratio_lo, ratio_hi)."""

    a: float
    b: float
    delta: float
    _TRAILER = ("a", "b", "delta", "r0")

    @staticmethod
    def _row(sys, rng, center, radius, m, alpha) -> tuple:
        scale = radius**sys.delta
        return [], lambda: (tuple(center), radius, m.lo / scale, m.hi / scale)

    @classmethod
    def _fit(cls, rows, common, sys, alpha) -> RegularityCertificate:
        return cls(a=_tail_deflated_min([lo for _, _, lo, _ in rows]),
                   b=_tail_inflated_max([hi for _, _, _, hi in rows]),
                   delta=sys.delta, samples=tuple(rows), **common)

    def _breaks(self, row) -> bool:
        return row[2] > self.b or row[3] < self.a  # ratio_lo, ratio_hi


def _certify(kinds: tuple, sys: IFSystem, trials: int, r0: float | None, seed: int,
             jobs: int, alpha: float | None = None) -> tuple:
    """One certificate per kind, fitted in order on one pass of trials."""
    rows, common = _collect(kinds, sys, trials, r0, seed, jobs, alpha)
    return tuple(kind._fit(kept, common, sys, alpha) for kind, kept in zip(kinds, rows))


def certify_all(
    sys: IFSystem,
    alpha: float,
    trials: int,
    r0: float | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> tuple:
    """(doubling, decay, regularity) certificates from one pass of trials.

    Each trial's ball is centred at a measure sample, with radius
    log-uniform in [r0/100, r0); every ratio is inflated by the interval
    widths of its masses, so each constant bounds every ratio compatible
    with the evidence.  A trial whose ball mass cannot be bounded away from
    zero is discarded; more than 20% discards aborts certification.  Decay
    slabs are anchored at the ball centre (stressing planes through mass)
    with a uniformly random unit normal and half-widths log-uniform in
    [r/10^4, r/4].
    """
    return _certify((DoublingCertificate, DecayCertificate, RegularityCertificate),
                    sys, trials, r0, seed, jobs, alpha)


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
    rows = [(*(float(c) for c in center), float(radius),
             float(eps[0]) if eps else None, float(lo), float(hi))
            for center, radius, *eps, lo, hi in cert.samples]
    tail = " ".join(f"{k}={getattr(cert, k)!r}" for k in cert._TRAILER)
    return columns, rows, [f"# {tail}"]
