"""Slow interval-set references for the property tests.

:class:`IntervalSet` is a sorted list of pairwise-disjoint open intervals
``(lo, hi)`` inside ``[0, 1]``; touching intervals merge on construction, so
two sets describing the same region compare equal.  With
:func:`preimage_of_set` and :func:`set_mass` it computes refined cells and
their masses one word at a time, the route that the cut/code refinement in
``chaosrng.partition`` replaces.  :func:`uniform_density` and :func:`fp_step`
(one transfer-operator step) serve the density tests,
:func:`scaled_map_table` is the map table that the grid chains of
``chaosrng.bitstream`` are held against, and :func:`markov_word_entropies`
gives the exact block entropies of a piecewise-linear Markov map.
"""
from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from chaosrng import density
from chaosrng.density import DensityHistogram
from chaosrng.maps import EPS


class IntervalSet:
    """Sorted disjoint union of subintervals of [0, 1].

    Immutable after construction.  Intervals are normalized: clipped to
    [0, 1], sorted ascending, degenerate pieces dropped, and overlapping or
    touching pieces merged.
    """

    __slots__ = ("_intervals", "_los", "_his")

    def __init__(self, intervals: Iterable[tuple[float, float]] = ()):
        self._intervals = _normalize(intervals)
        self._los = [a for a, _ in self._intervals]
        self._his = [b for _, b in self._intervals]

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return self._intervals

    @property
    def measure(self) -> float:
        return sum(b - a for a, b in self._intervals)

    @property
    def is_empty(self) -> bool:
        return not self._intervals

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        body = " ∪ ".join(f"({a:.6g}, {b:.6g})" for a, b in self._intervals)
        return f"IntervalSet[{body or '∅'}]"

    def contains(self, x: float) -> bool:
        """Membership with the left-cell tie convention: (lo, hi]."""
        i = bisect.bisect_left(self._his, x)
        return i < len(self._intervals) and self._los[i] < x <= self._his[i]

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        a, b = self._intervals, other._intervals
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def complement(self, lo: float = 0.0, hi: float = 1.0) -> "IntervalSet":
        """Complement within (lo, hi)."""
        out = []
        cursor = lo
        for a, b in self._intervals:
            if cursor < a:
                out.append((cursor, a))
            cursor = max(cursor, b)
        if cursor < hi:
            out.append((cursor, hi))
        return IntervalSet(out)


def _normalize(
    intervals: Iterable[tuple[float, float]],
) -> tuple[tuple[float, float], ...]:
    clipped = []
    for a, b in intervals:
        a = max(0.0, min(1.0, float(a)))
        b = max(0.0, min(1.0, float(b)))
        if a < b:
            clipped.append((a, b))
    clipped.sort()
    merged: list[tuple[float, float]] = []
    for a, b in clipped:
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return tuple(merged)



def preimage_of_set(m, s: IntervalSet) -> IntervalSet:
    """{x : M(x) in s} as a normalized interval set.

    Computed branch by branch: clip each target interval to the branch
    image, pull the endpoints back through the branch inverse.
    """
    pieces: list[tuple[float, float]] = []
    for br in m.branches:
        ylo, yhi = br.image
        clipped = [
            (max(a, ylo), min(b, yhi)) for a, b in s if max(a, ylo) < min(b, yhi)
        ]
        if not clipped:
            continue
        ys = np.array(clipped, dtype=float)
        xs = np.asarray(br.inverse(ys))
        for x0, x1 in xs:
            lo, hi = (x0, x1) if br.increasing else (x1, x0)
            pieces.append((max(lo, br.lo), min(hi, br.hi)))
    return IntervalSet(pieces)


def set_mass(f, s: IntervalSet) -> float:
    """Integral of the density histogram `f` over an IntervalSet."""
    if s.is_empty:
        return 0.0
    pairs = np.asarray(s.intervals, dtype=float)
    vals = f.cumulative(pairs)
    return float((vals[:, 1] - vals[:, 0]).sum())


def uniform_density(L: int, method: str = "fp_operator") -> DensityHistogram:
    return DensityHistogram(L=L, weights=np.ones(L), method=method, meta={})


def fp_step(m, f: DensityHistogram) -> DensityHistogram:
    """One application of the density transfer operator, a mass-preserving
    step, on the grid f was solved on (its uniform bins if it has no other).

    new mass of grid bin i = density mass of its preimage under M,
    accumulated branch by branch from the cumulative of f.
    """
    f.validate()
    w = f.grid_weights
    new = density._fp_apply(density._fp_data(m, f.grid, w.size), w)
    meta = {"iterations": f.meta.get("iterations", 0) + 1}
    return DensityHistogram(L=f.L, weights=None, method="fp_operator", meta=meta, grid=f.grid, grid_weights=new)


#: grid points per map evaluation in :func:`scaled_map_table`, so that a
#: slice's float64 temporaries (128 KiB each) stay small
_TABLE_CHUNK = 1 << 14


def scaled_map_table(m, L: int) -> np.ndarray:
    """table[j] = L * M(j/L) for grid states j = 0..L, clamped as the grid
    chains clamp: x is EPS at j = 0 and 1 - EPS at j = L, and M(x) lies in
    [EPS, 1 - EPS] before it is scaled.

    Filled in slices of ``_TABLE_CHUNK`` points, clipped and scaled in place;
    the values are those of one vectorized pass.
    """
    table = np.empty(L + 1)
    for lo in range(0, L + 1, _TABLE_CHUNK):
        hi = min(lo + _TABLE_CHUNK, L + 1)
        grid = np.arange(lo, hi) / L
        if lo == 0:
            grid[0] = EPS
        if hi == L + 1:
            grid[-1] = 1.0 - EPS
        vals = table[lo:hi]
        np.clip(np.asarray(m.raw_eval(grid), dtype=float), EPS, 1.0 - EPS, out=vals)
        vals *= L
    return table


def markov_word_entropies(breakpoints, values, cut: float, depth: int) -> list[float]:
    """Exact block entropies H_1..H_depth, in bits, of the symbol process of
    the continuous piecewise-linear map through (breakpoints[i], values[i]),
    with bit 0 on (0, cut] and 1 on (cut, 1], under its invariant density.

    Every input is read as the nearest fraction with denominator at most
    2^20 (0.3 as 3/10), and the forward orbits of the breakpoints and of the
    cut are found in rational arithmetic; they must be finite.  Their points
    split [0, 1] into intervals that M maps linearly onto unions of
    intervals, a Markov partition.  The invariant density is constant on
    each interval, with masses pi from pi P = pi, where P_ij is the share of
    M(I_i) that I_j covers, and a word's probability is the forward product
    pi D_{w_1} P D_{w_2} ... P D_{w_N} 1, D_b the 0/1 diagonal of the
    intervals whose bit is b.  P must be primitive, so that pi is unique.
    """
    xs = [Fraction(x).limit_denominator(1 << 20) for x in breakpoints]
    ys = [Fraction(y).limit_denominator(1 << 20) for y in values]
    c = Fraction(cut).limit_denominator(1 << 20)

    def M(x):
        k = min(bisect.bisect_right(xs, x), len(xs) - 1)  # x on the segment xs[k-1]..xs[k]
        return ys[k - 1] + (ys[k] - ys[k - 1]) * (x - xs[k - 1]) / (xs[k] - xs[k - 1])

    points, todo = set(), [*xs, c]
    while todo:
        x = todo.pop()
        if x not in points:
            if len(points) > 1000:
                raise ValueError("the forward orbits of the breakpoints and the cut exceed 1000 points")
            points.add(x)
            todo.append(M(x))
    pts = sorted(points)
    intervals = list(zip(pts, pts[1:]))
    P = np.zeros((len(intervals), len(intervals)))
    for i, (a, b) in enumerate(intervals):
        lo, hi = sorted((M(a), M(b)))
        for j, (u, v) in enumerate(intervals):
            if lo <= u and v <= hi:
                P[i, j] = (v - u) / (hi - lo)
    n = len(intervals)
    pi = np.linalg.lstsq(np.vstack((P.T - np.eye(n), np.ones(n))), np.append(np.zeros(n), 1.0), rcond=None)[0]
    onehot = np.array([[(v > c) == b for _, v in intervals] for b in (0, 1)], dtype=float)
    words = pi * onehot  # row w: pi D_{w_1} P ... D_{w_N}, one row per word code
    H = []
    for _ in range(depth):
        p = words.sum(axis=1)
        p = p[p > 0]
        H.append(float(-(p * np.log2(p)).sum()))
        words = ((words @ P)[:, None, :] * onehot).reshape(-1, n)
    return H
