"""Symbolic partition refinement: which starting points emit which words.

The generator emits bit 0 when the state is left of the branch split and
bit 1 to the right.  Refining the partition against map preimages yields,
for every N-bit word, the exact set of initial states that produce it.  A
refinement is stored as sorted cut points with one integer word code per
interval between them; `cells` lists each word's (lo, hi) pieces.

Run:  python demos/02_partition_refinement.py
"""
import math

import chaosrng as cr
from chaosrng.partition import SymbolPartition, refinement_ladder

xb = 1.0 / math.sqrt(3.0)
m = cr.cubic_sample_map()
s = SymbolPartition.from_pairs([(0.0, xb)])

ladder = refinement_ladder(m, s, 4)

print(f"split point 1/sqrt(3) = {xb:.6f}\n")
for p in ladder[:3]:
    print(f"depth {p.depth}:")
    for w, cell in p.cells.items():
        body = " u ".join(f"({a:.5f}, {b:.5f})" for a, b in cell)
        measure = sum(b - a for a, b in cell)
        print(f"  {w}: measure {measure:.5f}  {body}")
    print()

# the depth-2 boundaries are the two preimages of the split point
p2 = ladder[1]
cuts = sorted(set(p2.cuts.tolist()) - {0.0, 1.0, xb})
print("new depth-2 cut points (preimages of the split):")
for x in cuts:
    print(f"  x = {x:.5f},  M(x) = {m(x):.9f}")

# every cell's word agrees with actually iterating the map
x0 = 0.3141
w = ladder[3].word_of(x0)
bits = []
x = x0
for _ in range(4):
    bits.append(str(s.symbol_of(x)))
    x = m(x)
print(f"\nstart x0 = {x0}: cell word {w}, iterated bits {''.join(bits)}")
