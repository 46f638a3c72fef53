"""Invariant density of a chaotic map, computed two independent ways.

Route 1 iterates the map with small noise and histograms the visits.
Route 2 evolves a density histogram with the transfer operator until it
stops changing.  The two share nothing but the map, so their L1 distance
is an honest accuracy estimate for either.

Run:  python demos/01_invariant_density.py
"""
import numpy as np

import chaosrng as cr
from chaosrng.density import fp_fixed_point, l1_distance, mc_density

L = 1024

for name, make in (("cubic_sample", cr.cubic_sample_map),
                   ("tent", cr.tent_map),
                   ("logistic", cr.logistic_map)):
    m = make()
    fp = fp_fixed_point(m, L, tol=1e-11, max_iter=20000, grid_factor=16)
    mc = mc_density(m, L, seed=7, K=8_000_000, grid_factor=512)
    print(f"{name:>12}: operator fixed point in {fp.meta['iterations']} iterations, "
          f"L1(mc, fp) = {l1_distance(mc, fp):.4f}")
    if name == "logistic":
        # the logistic map has a closed-form stationary law to check against
        edges = np.arange(L + 1) / L
        F = (2.0 / np.pi) * np.arcsin(np.sqrt(edges))
        w = (F[1:] - F[:-1]) * L
        closed = cr.DensityHistogram(L=L, weights=w / (w.sum() / L), method="fp_operator")
        print(f"{'':>12}  closed-form arcsine law: L1(fp, exact) = {l1_distance(fp, closed):.4f}")

# the cubic map's density: flat-ish in the middle, a 1/sqrt spike toward 1
m = cr.cubic_sample_map()
f = fp_fixed_point(m, 64, tol=1e-11, max_iter=20000, grid_factor=16)
print("\ncubic_sample density profile (64 bins, '#' = 0.25):")
for i in range(0, 64, 4):
    bar = "#" * int(f.weights[i] / 0.25)
    print(f"  x={i / 64:.3f}  {f.weights[i]:6.3f}  {bar}")
