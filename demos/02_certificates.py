"""Empirical measure diagnostics: doubling, absolute decay, regularity.

Fits the three certificates on the Cantor measure in one pass of trials,
re-validates the constants on fresh trials, and shows the
regularity-implied decay exponent on the gasket.
"""

import math

from fracapprox.diagnostics import (
    certificate_table,
    certify_all,
    decay_alpha_from_regularity,
)
from fracapprox.ifs import bundled_system

cantor = bundled_system("cantor")
alpha = math.log(2) / math.log(3)  # = delta - (d-1) for d = 1

# one trial pass serves all three certificates: each trial draws its centre
# and radius and computes mu(B(x, r)) once
doubling, decay, regularity = certify_all(cantor, alpha, trials=500, seed=1)
print(f"doubling:   D = {doubling.D:.4f}   (r0 = {doubling.r0}, "
      f"{doubling.discarded} discarded)")
print(f"  fresh-seed violations: {doubling.validate(cantor, 500, seed=2)}")

print(f"decay:      C = {decay.C:.4f}  alpha = {decay.alpha:.4f}  "
      f"small-ball constant C*2^alpha = {decay.small_ball_C:.4f}")
print(f"  fresh-seed violations: {decay.validate(cantor, 500, seed=2)}")

print(f"regularity: {regularity.a:.4f} <= mu(B)/r^delta <= {regularity.b:.4f}")

columns, rows, trailer = certificate_table(decay)
print(f"\nCSV table: {len(columns)} columns, {len(rows)} rows, "
      f"trailing constants: {trailer[-1]}")

# on the gasket, two-sided regularity with delta > d-1 implies decay with
# exponent delta - (d - 1)
gasket = bundled_system("gasket")
a2 = decay_alpha_from_regularity(gasket.delta, 2)
print(f"\ngasket delta = {gasket.delta:.6f} -> implied decay exponent "
      f"alpha = {a2:.6f}")
_, gd, gr = certify_all(gasket, a2, trials=150, seed=1)
print(f"gasket regularity: {gr.a:.4f} <= mu(B)/r^delta <= {gr.b:.4f}")
print(f"gasket decay constant C = {gd.C:.4f}")
