"""Empirical measure diagnostics: doubling, absolute decay, regularity.

Fits the three certificates on the Cantor measure, re-validates the
constants on fresh trials, and shows the regularity-implied decay exponent
on the gasket.
"""

import math

from fracapprox.diagnostics import (
    certificate_table,
    certify_decay,
    certify_doubling,
    certify_regularity,
    decay_alpha_from_regularity,
)
from fracapprox.ifs import bundled_system

cantor = bundled_system("cantor")
alpha = math.log(2) / math.log(3)  # = delta - (d-1) for d = 1

doubling = certify_doubling(cantor, trials=500, seed=1)
print(f"doubling:   D = {doubling.D:.4f}   (r0 = {doubling.r0}, "
      f"{doubling.discarded} discarded)")
print(f"  fresh-seed violations: {doubling.validate(cantor, 500, seed=2)}")

decay = certify_decay(cantor, alpha, trials=500, seed=1)
print(f"decay:      C = {decay.C:.4f}  alpha = {decay.alpha:.4f}  "
      f"small-ball constant C*2^alpha = {decay.small_ball_C:.4f}")
print(f"  fresh-seed violations: {decay.validate(cantor, 500, seed=2)}")

regularity = certify_regularity(cantor, trials=500, seed=1)
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
gd = certify_decay(gasket, a2, trials=150, seed=1)
print(f"gasket decay constant C = {gd.C:.4f}")
