"""Reference implementation of the certify trial phase.

This is the slow path that `fracapprox.diagnostics._trial_block` must agree
with bit for bit: each trial draws its centre's digits with `rng.choice` and
then its radius with a second `rng.random()` call, every query is a `Ball`
or a (`Ball`, `mass_oracle.Slab`) pair, and every mass comes from the
single-query mass oracle.  Tests import `_trial_block` as the oracle;
nothing in the package uses it.
"""

from __future__ import annotations

import math

import numpy as np

import sample_oracle
from fracapprox.diagnostics import (
    _REL_TOL,
    DecayCertificate,
    DoublingCertificate,
    RegularityCertificate,
    _ball_tol,
    _decay_row,
)
from fracapprox.geometry import Ball
from fracapprox.ifs import _TOL_FLOOR
from mass_oracle import Slab, measure


def _doubling(sys, rng, center, radius, m, alpha) -> tuple:
    queries = [(Ball(center, 2.0 * radius), _ball_tol(sys, 2.0 * radius))]
    return queries, lambda m2: (tuple(center), radius, m2.lo / m.hi, m2.hi / m.lo)


def _decay(sys, rng, center, radius, m, alpha) -> tuple:
    normal = rng.normal(size=sys.dim)
    normal /= np.linalg.norm(normal)
    rel = math.exp(
        math.log(1e-4) + (math.log(0.25) - math.log(1e-4)) * float(rng.random())
    )
    eps = rel * radius
    envelope = rel**alpha
    slab_tol = max(_REL_TOL * envelope * m.lo, _TOL_FLOOR)
    queries = [((Ball(center, radius), Slab(normal, float(normal @ center), eps)), slab_tol),
               (Ball(center, eps), _ball_tol(sys, eps))]
    return queries, lambda m_slab, m_small: _decay_row(
        center, radius, eps, envelope, m, m_slab, m_small)


def _regularity(sys, rng, center, radius, m, alpha) -> tuple:
    scale = radius**sys.delta
    return [], lambda: (tuple(center), radius, m.lo / scale, m.hi / scale)


ROWS = {DoublingCertificate: _doubling, DecayCertificate: _decay,
        RegularityCertificate: _regularity}


def _trial_block(args) -> list:
    """Seeded trials start..stop-1, one at a time; one row tuple per trial,
    or None when mu(B(x, r)) cannot be bounded away from zero."""
    kinds, sys, r0, seed, start, stop, alpha = args
    results = []
    for i in range(start, stop):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        center = sample_oracle._fold_digits(sys, sample_oracle._draw_digits(sys, 1, rng))[0]
        radius = r0 * math.exp(-math.log(100.0) * float(rng.random()))
        m = measure(sys, Ball(center, radius), _ball_tol(sys, radius))
        if not m.lo > 0.0:
            results.append(None)
            continue
        plans = [ROWS[kind](sys, rng, center, radius, m, alpha) for kind in kinds]
        results.append(tuple(row(*[measure(sys, q, t) for q, t in qs]) for qs, row in plans))
    return results
