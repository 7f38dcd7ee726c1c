"""Self-similar systems and their natural measures.

Builds the four bundled systems, evaluates ball and slab masses with
certified intervals, and checks the sampler against the interval oracle.
"""

import math

import numpy as np

from fracapprox.ifs import bundled_system, measure_many, sample_measure

for name in ("cantor", "gasket", "dust", "koch"):
    sys_ = bundled_system(name)
    print(f"{name:>7}: d={sys_.dim}  k={sys_.k}  delta={sys_.delta:.6f}  "
          f"moran residual={sys_.moran_residual():.2e}")

cantor = bundled_system("cantor")

# one subdivision serves many queries, one per row: a ball (centre, radius)
# cut by a slab (unit normal, offset, half-width); a half-width of inf leaves
# the ball uncut.  The left third of the unit interval carries exactly half
# the mass, and the middle-third gap |x - 1/2| <= 1/18 carries none
centers, radii = [[1 / 6], [0.5]], [1 / 6, 1.0]
slabs = ([[0.0], [1.0]], [0.0, 0.5], [math.inf, 1 / 18])
iv, iv_gap = measure_many(cantor, centers, radii, [1e-6, 1e-6], slabs)
print(f"\nmu([0,1/3]) in [{iv.lo:.9f}, {iv.hi:.9f}]  (width {iv.width:.1e})")
print(f"mu(gap slab [4/9,5/9]) in [{iv_gap.lo:.1e}, {iv_gap.hi:.1e}]")

# Monte Carlo agrees with the interval oracle
pts = sample_measure(cantor, 100_000, seed=1)[:, 0]
print(f"\nsampler: mean={pts.mean():.4f} (symmetry gives 1/2)")
for radius in (0.1, 0.25):
    center = 1 / 3
    emp = float((np.abs(pts - center) <= radius).mean())
    oracle = measure_many(cantor, [[center]], [radius], [1e-5])[0]
    print(f"  mu(B(1/3, {radius})) empirical={emp:.4f}  "
          f"oracle=[{oracle.lo:.4f}, {oracle.hi:.4f}]")

# rotations are handled the same way
koch = bundled_system("koch")
iv_k = measure_many(koch, [[0.5, 0.1]], [0.2], [1e-4])[0]
print(f"\nkoch ball mass in [{iv_k.lo:.5f}, {iv_k.hi:.5f}] "
      f"(depth {iv_k.depth})")
