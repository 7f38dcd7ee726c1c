"""Reference implementation of the psi family dispatch.

This is the per-family code that `PsiFunction`, `lower_order`,
`analysis.sum_term_log` and `analysis.classify_sum` must agree with bit for
bit: each of them branches on the family and computes power_log's tau
(d+1)/d itself, and the closed-form verdict walks a five-branch chain over
the exponent pair (A, B) of the summand r^A (log r)^B.  Tests import it as
the oracle; nothing in the package uses it.
"""

from __future__ import annotations

import numpy as np

from fracapprox.analysis import _BOUNDARY_TOL, SumSpec


def psi_value(psi, r):
    """psi(r) for a symbolic family."""
    rr = np.asarray(r, dtype=float)
    if psi.family == "power":
        return rr ** (-psi.tau)
    tau = (psi.d + 1) / psi.d if psi.family == "power_log" else psi.tau
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(
            rr > 1.0,
            rr ** (-tau) * np.log(np.maximum(rr, 1.0 + 1e-300)) ** (-psi.beta),
            np.inf,
        )


def lower_order(psi) -> float:
    if psi.family == "power":
        return psi.tau
    if psi.family == "power_log":
        return (psi.d + 1) / psi.d
    return psi.tau


def sum_term_log(spec: SumSpec, r) -> np.ndarray:
    rr = np.asarray(r, dtype=float)
    e = spec.psi_exponent
    base = spec.r_exponent * np.log(rr)
    psi = spec.psi
    if psi.family == "power":
        lpsi = -psi.tau * np.log(rr)
    else:
        tau = (psi.d + 1) / psi.d if psi.family == "power_log" else psi.tau
        lpsi = -tau * np.log(rr) - psi.beta * np.log(np.log(rr))
    return base + e * lpsi


def _closed_form_exponents(spec: SumSpec) -> tuple:
    """(A, B) with summand asymptotically r^A (log r)^B."""
    psi = spec.psi
    e = spec.psi_exponent
    if psi.family == "power":
        tau, beta = psi.tau, 0.0
    elif psi.family == "power_log":
        tau, beta = (psi.d + 1) / psi.d, psi.beta
    else:
        tau, beta = psi.tau, psi.beta
    return spec.r_exponent - tau * e, -beta * e


def closed_form_verdict(spec: SumSpec) -> tuple:
    """(verdict, margin, criterion) of the closed-form classification."""
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
    return verdict, margin, crit
