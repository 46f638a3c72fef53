"""Block entropies, per-bit entropies, and the extractable-randomness rate.

Integrating the invariant density over each refined cell gives the N-bit
word probabilities; from those come H_N, the conditional entropies
h_N = H_N - H_{N-1}, and the rate metric h = lim h_N.  A raw bit rate R
then supports at most R_d = h * R truly random bits after extraction.

Run:  python demos/03_entropy_curve.py
"""
import math

import chaosrng as cr
from chaosrng.partition import SymbolPartition

xb = 1.0 / math.sqrt(3.0)
m = cr.cubic_sample_map()
s = SymbolPartition.from_pairs([(0.0, xb)])

res = cr.run_analysis(m, s, depth=12, density=cr.fp_fixed_point(m, 8192, tol=1e-11),
                      input_rate=1.0e6)
r = res.report

print(f"bias |P(0) - 1/2| = {r.bias:.4f}")
print(f"\n{'N':>3} {'H_N':>10} {'h_N':>10}")
for n, (H, h) in enumerate(zip(r.H, r.h), start=1):
    print(f"{n:>3} {H:>10.6f} {h:>10.6f}")

print(f"\nentropy rate estimate h = {r.h_estimate:.4f}  (tail spread {r.spread:.1e})")
print(f"raw rate R = {r.input_rate:.3g} bit/s -> R_d = h*R = {r.recommended_rate:.4g} bit/s "
      f"(overhead factor {r.overhead:.4f})")

# the ideal baseline: for the tent map every h_N is exactly 1
tent = cr.tent_map()
ideal = cr.run_analysis(tent, cr.symmetric_partition(), depth=8, density=cr.fp_fixed_point(tent, 1024))
print(f"\ntent map baseline: bias = {ideal.report.bias:.1e}, "
      f"h = {ideal.report.h_estimate:.6f} (a perfect coin)")
