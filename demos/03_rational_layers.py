"""Rationals in dyadic denominator blocks and the volume obstruction.

Enumerates block rationals, scans approximability (Dirichlet floor, a badly
approximable point), and audits the rationals-on-a-hyperplane lemma with
exact arithmetic.
"""

import math

import numpy as np

from fracapprox.analysis import audit_hyperplane_lemma
from fracapprox.approx import PsiFunction, enumerate_rationals, is_psi_approximable
from fracapprox.geometry import Box

# block rationals, de-duplicated by value
for n in (0, 1, 2):
    pts = enumerate_rationals(n, Box([0.0], [1.0]))
    vals = sorted(float(p.fractions()[0]) for p in pts)
    print(f"block {n} (q in [{2**n},{2**(n+1)})): {len(vals)} values")

# every point obeys the Dirichlet floor at the critical exponent
psi_crit = PsiFunction.power(2.0)
rng = np.random.default_rng(0)
hits = [is_psi_approximable([x], psi_crit, 1000)[0] for x in rng.random(20)]
print(f"\nDirichlet floor, psi(q)=q^-2, q<=1000: min hits over 20 random "
      f"points = {min(hits)}")

# the golden ratio resists a steeper psi
x = (math.sqrt(5) - 1) / 2
count, wits = is_psi_approximable([x], PsiFunction.power(3.0), 10_000)
print(f"golden ratio, psi(q)=q^-3, q<=10^4: {count} hits, "
      f"witness denominators {[w.denominator for w in wits]}")

# the simplex/determinant obstruction: all block rationals near a block ball
# lie on one hyperplane, decided exactly; no counterexample exists
print("\nvolume-obstruction audit (200 random balls per block):")
for d in (1, 2):
    for rep in audit_hyperplane_lemma(d, (2, 4, 6), 200, seed=11):
        print(f"  d={d} n={rep.n}: max rationals/ball={rep.max_rationals}, "
              f"simplex counterexamples={rep.simplex_counterexamples}")
