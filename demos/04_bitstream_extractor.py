"""Actually generating bits: dithered iteration, pattern counts, extraction.

Three points in one script:
1. the dithered grid generator's pattern statistics match the densities,
2. raw float iteration (no dither) is a trap: it collapses onto short
   periodic orbits, which is why the dither exists,
3. Von Neumann pair extraction debiases the stream at the cost of
   throughput.

Run:  python demos/04_bitstream_extractor.py
"""
import math

import chaosrng as cr
from chaosrng.bitstream import (
    BitstreamConfig,
    empirical_pattern_probs,
    generate_bits,
    monobit_frequency,
    von_neumann_extract,
)
from chaosrng.density import fp_fixed_point
from chaosrng.entropy import block_probabilities
from chaosrng.partition import SymbolPartition, refine

xb = 1.0 / math.sqrt(3.0)
m = cr.cubic_sample_map()
s = SymbolPartition.from_pairs([(0.0, xb)])

bits = generate_bits(m, s, BitstreamConfig(seed=99, length=2_000_000, L=1 << 22))
print(f"generated {bits.size} bits, P(1) = {monobit_frequency(bits):.4f} (predicted 0.43)")

f = fp_fixed_point(m, 4096, tol=1e-11, max_iter=20000, grid_factor=16)
p3 = refine(m, s, 3)
predicted = block_probabilities(p3, f).probs
measured = empirical_pattern_probs(bits, 3).probs
print("\n3-bit words: predicted (density) vs measured (stream):")
for w, v in predicted.items():
    print(f"  {w}: {v:.4f} vs {measured[w]:.4f}")

# negative control: pure float iteration loses its randomness
raw = generate_bits(cr.tent_map(), cr.symmetric_partition(),
                    BitstreamConfig(seed=4, length=20_000, dither=False))
good = generate_bits(cr.tent_map(), cr.symmetric_partition(),
                     BitstreamConfig(seed=4, length=20_000))
print(f"\ntent map, raw float iteration:  P(1) = {monobit_frequency(raw):.3f}  (collapsed)")
print(f"tent map, dithered iteration:   P(1) = {monobit_frequency(good):.3f}  (healthy)")

# extraction
out = von_neumann_extract(bits)
print(f"\nVon Neumann: {bits.size} -> {out.size} bits "
      f"(ratio {out.size / bits.size:.4f}), P(1) = {monobit_frequency(out):.4f}")
print("note: the independent-pairs model predicts ratio P(0)P(1) = 0.2451; the")
print("map's serial correlation lowers the realized ratio to about 0.23")
