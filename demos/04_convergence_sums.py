"""Convergence sums and what they predict.

Classifies the three sum families in closed form, cross-checks with the
dyadic condensation heuristic on a tabulated psi, and turns convergent sums
into measure-zero predictions.
"""

import math

import numpy as np

from fracapprox.analysis import SumSpec, classify_sum
from fracapprox.approx import PsiFunction

alpha = math.log(2) / math.log(3)

cases = [
    ("power tau=2.5 (above the Dirichlet exponent)",
     SumSpec("measure_zero", PsiFunction.power(2.5), 1, alpha=alpha)),
    ("power tau=2.0 (harmonic boundary)",
     SumSpec("measure_zero", PsiFunction.power(2.0), 1, alpha=alpha)),
    ("power-log beta=1.5/alpha (log-convergent)",
     SumSpec("measure_zero", PsiFunction.power_log(1.5 / alpha, d=1), 1, alpha=alpha)),
    ("power-log beta=0.5/alpha (log-divergent)",
     SumSpec("measure_zero", PsiFunction.power_log(0.5 / alpha, d=1), 1, alpha=alpha)),
    ("lebesgue-style, d=2, tau=1.8",
     SumSpec("lebesgue", PsiFunction.power(1.8, d=2), 2)),
]

for label, spec in cases:
    v = classify_sum(spec)
    print(f"{label}\n  -> {v.converges} ({v.method}; margin {v.margin:.3f})")

# the same verdict from raw numbers only: tabulate psi and condense
r = np.geomspace(2.0, 2.0**45, 240)
table = PsiFunction.from_table(list(zip(r, r**-2.5)))
vt = classify_sum(SumSpec("measure_zero", table, 1, alpha=alpha))
print(f"\ntabulated tau=2.5 -> {vt.converges} ({vt.method})")
print(f"  {vt.criterion}")

# a convergent measure_zero sum gives mu(W(psi) cap K) = 0; a divergent one
# supports no conclusion either way
for tau in (2.0, 2.5):
    spec = SumSpec("measure_zero", PsiFunction.power(tau), 1, alpha=alpha)
    converges = classify_sum(spec).converges == "yes"
    print(f"prediction for tau={tau}: "
          f"{'mu(W(psi) cap K) = 0' if converges else 'no conclusion'}")
