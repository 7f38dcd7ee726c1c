"""Rationals in dyadic denominator blocks and the volume obstruction.

Tests approximability block by block with the layer hit test (Dirichlet
floor, a badly approximable point), and audits the rationals-on-a-hyperplane
lemma with exact arithmetic.
"""

import math

import numpy as np

from fracapprox.analysis import audit_hyperplane_lemma
from fracapprox.approx import PsiFunction, layer_hit_mask

# the block-n layer: the balls B(p/q, psi(q)) over 2^n <= q < 2^(n+1).
# Every point obeys the Dirichlet floor at the critical exponent, so blocks
# 0-9 (q < 1024) hold each point in some layer
psi_crit = PsiFunction.power(2.0)
pts = np.random.default_rng(0).random((20, 1))
hits = sum(layer_hit_mask(pts, n, psi_crit).astype(int) for n in range(10))
print(f"Dirichlet floor, psi(q)=q^-2, blocks 0-9: min layers hit over 20 random "
      f"points = {hits.min()}")

# the golden ratio resists a steeper psi
x = np.array([[(math.sqrt(5) - 1) / 2]])
held = [n for n in range(14) if layer_hit_mask(x, n, PsiFunction.power(3.0))[0]]
print(f"golden ratio, psi(q)=q^-3, blocks 0-13 (q < 16384): in the layers of "
      f"blocks {held}")

# the simplex/determinant obstruction: all block rationals near a block ball
# lie on one hyperplane, decided exactly; no counterexample exists
print("\nvolume-obstruction audit (200 random balls per block):")
for d in (1, 2):
    for rep in audit_hyperplane_lemma(d, (2, 4, 6), 200, seed=11):
        print(f"  d={d} n={rep.n}: max rationals/ball={rep.max_rationals}, "
              f"simplex counterexamples={rep.simplex_counterexamples}")
