"""Block covers, cover costs, and dimension bounds vs box counting.

Builds the disjoint block covers whose 3-dilates blanket the attractor,
assembles the cover-cost tails, and compares the closed-form dimension
bound with a box-count estimate of the near-rational layer approximant.
"""

import math

from fracapprox.analysis import (
    box_dimension,
    dimension_bound,
    dimension_report,
    hs_upper_bound,
)
from fracapprox.approx import PsiFunction
from fracapprox.ifs import bundled_system, sample_measure

cantor = bundled_system("cantor")
alpha = math.log(2) / math.log(3)

# the cover-cost pass builds each block's cover D_n, and its rows report #D_n
tail = hs_upper_bound(cantor, PsiFunction.power(3.0), cantor.delta, range(1, 7), seed=0)
print("block covers (disjoint balls of radius r_n, centers on the attractor):")
for n, n_dn, _, _ in tail.rows:
    quantity = n_dn * 2.0 ** (-2 * (n + 1) * cantor.delta)
    print(f"  n={n}: #D_n={n_dn:5d}   #D_n * 2^(-2(n+1)delta) = {quantity:.3f}")

print("\ncover-cost tails at s = delta, psi(q) = q^-3 (convergent regime):")
for (n, n_dn, n_c, _), (k, t) in zip(tail.rows, tail.tails):
    print(f"  n={n}: #D_n={n_dn:5d}  #C_total={n_c:4d}   tail from {k}: {t:.4f}")

print("\nbox dimension of raw attractor samples:")
pts = sample_measure(cantor, 100_000, seed=3)
est = box_dimension(pts, [3.0**-k for k in range(2, 8)])
print(f"  estimate {est.slope:.4f} +- {est.confidence:.4f} "
      f"(delta = {cantor.delta:.4f})")

print("\ndimension bound vs layer-approximant estimate (blocks 5..10):")
rows = dimension_report(cantor, alpha, [3.0, 4.0], seed=5, batch=400_000)
for tau, bound, estimate in rows:
    closed = {3.0: "2 delta/3", 4.0: "delta/2"}[tau]
    print(f"  tau={tau}: bound={bound:.4f} ({closed})   "
          f"box estimate={estimate:.4f}")

print("\nbound degenerates to delta at the Dirichlet exponent:")
print(f"  tau=2: {dimension_bound(cantor.delta, alpha, 1, 2.0):.6f} "
      f"== delta = {cantor.delta:.6f}")
