"""Bit-generation partitions and their depth-N refinements.

The unit interval is split into S(0) and S(1); the emitted bit is the index
of the set containing the current state.  The depth-N refinement gives every
N-bit word the initial states that generate exactly that word.  Since
cell(i w) = S(i) n M^-1(cell(w)), its boundaries are C_N = C_1 u M^-1(C_{N-1}).
Every level, the partition itself included, is a `SymbolPartition`: one
sorted cut array plus an integer code per interval (the bit for the
partition, the word for a refinement), computed from the branch inverses.
Those are closed forms, good to a few ulp, except for custom polynomial
maps, whose bisection can land ~1e-8 off near a critical value (see `maps`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .maps import ArgumentError, MapModel

DEFAULT_MAX_DEPTH = 20


class RefinementError(ArgumentError):
    """Refinement refused (depth beyond the configured cap or resolution)."""


class PartitionInvariantError(AssertionError):
    """A structural invariant of a partition failed."""


@dataclass(frozen=True, eq=False)
class SymbolPartition:
    """A partition of [0, 1] at depth N: the intervals (cuts[i], cuts[i+1]]
    tile [0, 1], and codes[i] is the N-bit word their points emit, as an
    integer with the first bit most significant.  A word's cell is the union
    of its code's intervals.

    Depth 1 is the bit-generation partition, S(0) and S(1), built by
    :meth:`from_pairs`; there neighbouring codes differ, so every inner cut is
    a boundary between S(0) and S(1).  Deeper levels come from
    :func:`refinement_ladder`.
    """

    cuts: np.ndarray  # sorted floats from 0 to 1
    codes: np.ndarray  # one int word code per interval
    depth: int = 1

    @classmethod
    def from_pairs(cls, s0_pairs, s1_pairs=None) -> "SymbolPartition":
        """S(0) as (lo, hi) pairs with 0 <= lo < hi <= 1 that may touch but not
        overlap; S(1) is its complement, and an explicit `s1_pairs` must equal it."""
        cuts, codes = _tiling("s0", s0_pairs)
        if s1_pairs is not None:
            cuts1, codes1 = _tiling("s1", s1_pairs)
            if not (np.array_equal(cuts1, cuts) and np.array_equal(codes1, 1 - codes)):
                raise ValueError("s1 must be the complement of s0 in [0, 1]")
        return cls(cuts=cuts, codes=codes)

    def symbol_of(self, x):
        """Code of each x in (0, 1] (a float or an array), with the left-cell
        tie convention (lo, hi] for boundary points: a numpy integer for a
        scalar or 0-d x, an array of x's shape otherwise.

        Raises ValueError when any x lies outside (0, 1] or is NaN: 0 lies in
        no interval.  The interval of x is the number of inner cuts below it,
        the same as ``searchsorted(cuts, x) - 1``, found by a branch-free
        binary search over the inner cuts padded with +inf to 2^k - 1 entries:
        one comparison per level, each a gather of one cut per x.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.size and not (x.min() > 0.0 and x.max() <= 1.0):
            bad = x[~((x > 0.0) & (x <= 1.0))].flat[0]
            raise ValueError(f"symbol_of needs x in (0, 1], got {float(bad)!r}")
        pad = self._search_cuts
        step = (pad.size + 1) // 2
        i = (pad[step - 1] < x) * step
        while step > 1:
            step //= 2
            i += (pad[i + (step - 1)] < x) * step
        return self.codes[i]

    @cached_property
    def _search_cuts(self) -> np.ndarray:
        """The inner cuts padded with +inf to 2^k - 1 entries, k >= 1."""
        inner = self.cuts[1:-1]
        size = 2 ** max(int(inner.size).bit_length(), 1) - 1
        return np.concatenate((inner, np.full(size - inner.size, np.inf)))

    def _run_bounds(self) -> np.ndarray:
        """Index of the first interval of each run of equal codes, then codes.size."""
        return np.append(np.flatnonzero(np.diff(self.codes, prepend=-1)), self.codes.size)

    @property
    def cells(self) -> dict:
        """Every N-bit word string mapped to its cell: a tuple of (lo, hi)
        pieces, one per run of its code, ascending (built on each access)."""
        b = self._run_bounds()
        pieces = [[] for _ in range(2**self.depth)]
        for c, lo, hi in zip(self.codes[b[:-1]].tolist(), self.cuts[b[:-1]].tolist(), self.cuts[b[1:]].tolist()):
            pieces[c].append((lo, hi))
        return {format(c, f"0{self.depth}b"): tuple(ps) for c, ps in enumerate(pieces)}

    def nonempty_count(self) -> int:
        return int(np.count_nonzero(np.bincount(self.codes, minlength=2**self.depth)))

    def min_cell_width(self) -> float:
        """Width of the narrowest cell component, i.e. of a run of equal codes."""
        return float(np.min(np.diff(self.cuts[self._run_bounds()])))

    def word_of(self, x: float) -> str:
        """Word of start x, as an N-bit string: :meth:`symbol_of`'s code, with
        its tie convention (lo, hi] and its ValueError for x outside (0, 1]."""
        return format(int(self.symbol_of(x)), f"0{self.depth}b")

    def validate(self, m: MapModel, parent: "SymbolPartition | None" = None) -> None:
        """Structural checks; with a `parent`, the children must reassemble its
        cells, and the map `m` must carry every interval's midpoint into a
        parent interval coded with the interval's last N-1 bits."""
        cuts, codes = self.cuts, self.codes
        if codes.shape != (cuts.size - 1,) or cuts[0] != 0.0 or cuts[-1] != 1.0 or np.any(np.diff(cuts) <= 0):
            raise PartitionInvariantError("cuts must rise strictly from 0 to 1, with one code per interval")
        if np.any((codes < 0) | (codes >= 2**self.depth)):
            raise PartitionInvariantError(f"word codes must lie in [0, 2^{self.depth})")
        if parent is None:
            return
        if parent.depth != self.depth - 1:
            raise PartitionInvariantError("parent must be one level shallower")
        at = np.minimum(np.searchsorted(cuts, parent.cuts), cuts.size - 1)
        if np.any(cuts[at] != parent.cuts):
            raise PartitionInvariantError("parent cut points are missing from the refinement")
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        if np.any(parent.codes[np.searchsorted(parent.cuts, mids) - 1] != codes >> 1):
            raise PartitionInvariantError("children do not reassemble their parent cells")
        at = np.clip(np.searchsorted(parent.cuts, m.raw_eval(mids)) - 1, 0, parent.codes.size - 1)
        if np.any(parent.codes[at] != codes & (2 ** (self.depth - 1) - 1)):
            raise PartitionInvariantError("M carries an interval out of the parent cell of its word's last N-1 bits")


def _tiling(name: str, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Cuts and codes of the partition whose S(0) is the union of `pairs`."""
    edges: list[float] = []  # starts and ends of the merged pairs
    for lo, hi in sorted((float(lo), float(hi)) for lo, hi in pairs):
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"{name}: pair [{lo!r}, {hi!r}] needs 0 <= lo < hi <= 1")
        if edges and lo < edges[-1]:
            raise ValueError(f"{name}: pair [{lo!r}, {hi!r}] overlaps the one ending at {edges[-1]!r}")
        if edges and lo == edges[-1]:
            edges[-1] = hi
        else:
            edges += [lo, hi]
    bounds = np.array([0.0, *edges, 1.0])
    keep = bounds[1:] > bounds[:-1]  # only the first and last interval can be empty
    codes = np.arange(1, bounds.size, dtype=np.int64) % 2
    return np.append(bounds[:-1][keep], 1.0), codes[keep]


def symmetric_partition() -> SymbolPartition:
    return SymbolPartition.from_pairs([(0.0, 0.5)])


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D float array.  numpy 2.4's np.unique (and a large
    np.isin) imports numpy.ma on first use, ~20 ms of every command."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def refine_once(m: MapModel, s: SymbolPartition, p: SymbolPartition) -> SymbolPartition:
    """Depth N -> N+1: prepend each possible first bit to every word.

    Within a branch each new interval pulls back a piece of one parent
    interval, whose code follows the first bit; M is never evaluated forward.
    """
    pulled = []  # per branch: preimages ascending, parent interval of the piece after each
    for br in m.branches:
        ylo, yhi = br.image
        y = np.concatenate(([ylo], p.cuts[(p.cuts > ylo) & (p.cuts < yhi)], [yhi]))
        par = np.searchsorted(p.cuts, y[:-1], side="right") - 1
        x = br.inverse(y)
        if not br.increasing:
            x, par = x[::-1], par[::-1]
        x[0], x[-1] = br.lo, br.hi  # the image ends pull back to the branch ends
        pulled.append((br, x, par))
    cuts = _sorted_distinct(np.concatenate([s.cuts, *(x for _, x, _ in pulled)]))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    codes = s.symbol_of(mids) << p.depth
    for br, x, par in pulled:
        inside = (mids > br.lo) & (mids < br.hi)
        codes[inside] |= p.codes[par[np.searchsorted(x, mids[inside]) - 1]]
    return SymbolPartition(cuts=cuts, codes=codes, depth=p.depth + 1)


def check_depth(N: int) -> None:
    if not 1 <= N <= DEFAULT_MAX_DEPTH:
        raise RefinementError("depth", f"need 1..{DEFAULT_MAX_DEPTH} (cell widths shrink geometrically, and a depth "
                              f"that exceeds the cap drops them below any usable grid resolution), got {N!r}")


def refinement_ladder(m: MapModel, s: SymbolPartition, N: int) -> list[SymbolPartition]:
    """The partitions at depths 1..N: `s` itself, then each refinement built
    from the one before."""
    if s.depth != 1:
        raise RefinementError("partition", f"refinement starts from a depth-1 partition, got depth {s.depth}")
    check_depth(N)
    ladder = [s]
    while ladder[-1].depth < N:
        ladder.append(refine_once(m, s, ladder[-1]))
    return ladder


def partition_from_config(cfg: dict) -> SymbolPartition:
    """Config: {"s0": [[lo,hi],...], optional "s1": [[lo,hi],...]}; pair ends
    are JSON numbers in [0, 1], and neither S(0) nor S(1) may be empty."""
    for key in cfg:
        if key not in ("s0", "s1"):
            raise ValueError(f"unknown key {key!r}; want 's0' and optionally 's1'")
    if "s0" not in cfg:
        raise ValueError("partition config needs 's0' as a list of [lo, hi] pairs")
    for key in ("s0", "s1"):
        for pair in cfg.get(key) or ():
            # compared before any float conversion, which a huge JSON integer overflows
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v <= 1 for v in pair):
                raise ValueError(f"{key}: pair {pair!r} needs numbers in [0, 1] for its ends")
    s = SymbolPartition.from_pairs(cfg["s0"], cfg.get("s1"))
    if s.codes.size < 2:
        raise ValueError(f"every bit would be {s.codes[0]}: S(0) and S(1) must both be non-empty")
    return s
