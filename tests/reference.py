"""Slow interval-set references for the property tests.

:class:`IntervalSet` is a sorted list of pairwise-disjoint open intervals
``(lo, hi)`` inside ``[0, 1]``; touching intervals merge on construction, so
two sets describing the same region compare equal.  With
:func:`preimage_of_set` and :func:`set_mass` it computes refined cells and
their masses one word at a time, the route that the cut/code refinement in
``chaosrng.partition`` replaces.  :func:`uniform_density` and :func:`fp_step`
(one transfer-operator step) serve the density tests.
"""
from __future__ import annotations

import bisect
from typing import Iterable, Iterator

import numpy as np

from chaosrng import density
from chaosrng.density import DensityHistogram


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
    """One application of the density transfer operator, renormalized, on
    the grid f was solved on (its uniform bins if it has no other).

    new mass of grid bin i = density mass of its preimage under M,
    accumulated branch by branch from the cumulative of f.
    """
    f.validate()
    w = f._solve_weights
    new = density._fp_apply(density._fp_data(m, f.grid, w.size), w)
    meta = {"iterations": f.meta.get("iterations", 0) + 1}
    return DensityHistogram(L=f.L, weights=None, method="fp_operator", meta=meta, grid=f.grid, grid_weights=new)
