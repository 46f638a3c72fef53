"""Bit-generation partitions and their depth-N refinements.

The unit interval is split into S(0) and S(1); the emitted bit is the index
of the set containing the current state.  The depth-N refinement gives every
N-bit word the initial states that generate exactly that word.  Since
cell(i w) = S(i) n M^-1(cell(w)), its boundaries are C_N = C_1 u M^-1(C_{N-1}):
a refinement is one sorted cut array plus an integer word code per interval,
computed from the branch inverses.  Those are closed forms, good to a few
ulp, except for custom polynomial maps, whose bisection can land ~1e-8 off
near a critical value (see `maps`).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .intervals import IntervalSet
from .maps import MapModel

DEFAULT_MAX_DEPTH = 20


class RefinementError(ValueError):
    """Refinement refused (depth beyond the configured cap or resolution)."""


class PartitionInvariantError(AssertionError):
    """A structural invariant of a partition failed."""


@dataclass(frozen=True)
class SymbolPartition:
    """The two bit-generation sets S(0) and S(1)."""

    s0: IntervalSet
    s1: IntervalSet

    @classmethod
    def from_s0(cls, s0: IntervalSet) -> "SymbolPartition":
        return cls(s0=s0, s1=s0.complement())

    @classmethod
    def from_pairs(cls, pairs, s1_pairs=None) -> "SymbolPartition":
        s0 = IntervalSet(pairs)
        if s1_pairs is None:
            return cls.from_s0(s0)
        return cls(s0=s0, s1=IntervalSet(s1_pairs))

    def __getitem__(self, bit: int | str) -> IntervalSet:
        return self.s0 if int(bit) == 0 else self.s1

    def validate(self) -> None:
        if not self.s0.intersect(self.s1).measure < 1e-12:
            raise PartitionInvariantError("S(0) and S(1) overlap")
        total = self.s0.measure + self.s1.measure
        if abs(total - 1.0) > 1e-9:
            raise PartitionInvariantError(f"partition measures sum to {total!r}, not 1")

    def symbol_of(self, x: float) -> int:
        """0 or 1 with the left-cell tie convention for boundary points."""
        return 0 if self.s0.contains(x) else 1


def symmetric_partition() -> SymbolPartition:
    return SymbolPartition.from_s0(IntervalSet([(0.0, 0.5)]))


@dataclass(frozen=True, eq=False)
class RefinedPartition:
    """Depth-N refinement: the intervals (cuts[i], cuts[i+1]) tile [0, 1], and
    codes[i] is the N-bit word their starts emit, as an integer with the first
    bit most significant.  A word's cell is the union of its code's intervals.
    """

    depth: int
    cuts: np.ndarray  # sorted floats from 0 to 1
    codes: np.ndarray  # one int word code per interval

    @property
    def cells(self) -> dict:
        """Every N-bit word string mapped to its cell as an IntervalSet (built on each access)."""
        pieces = [[] for _ in range(2**self.depth)]
        for c, a, b in zip(self.codes.tolist(), self.cuts[:-1].tolist(), self.cuts[1:].tolist()):
            pieces[c].append((a, b))
        return {format(c, f"0{self.depth}b"): IntervalSet(ps) for c, ps in enumerate(pieces)}

    def nonempty_count(self) -> int:
        return int(np.count_nonzero(np.bincount(self.codes, minlength=2**self.depth)))

    def min_cell_width(self) -> float:
        """Width of the narrowest cell component, i.e. of a run of equal codes."""
        starts = np.flatnonzero(np.diff(self.codes, prepend=-1))
        return float(np.min(np.diff(self.cuts[np.append(starts, self.codes.size)])))

    def word_of(self, x: float) -> str | None:
        """Word of start x, with the left-cell tie convention (lo, hi]."""
        i = int(np.searchsorted(self.cuts, x)) - 1
        return format(int(self.codes[i]), f"0{self.depth}b") if 0.0 < x <= 1.0 else None

    def validate(self, m: MapModel, parent: "RefinedPartition | None" = None) -> None:
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

    def to_json(self, path: str | Path) -> None:
        payload = {w: [list(iv) for iv in c] for w, c in self.cells.items()}
        Path(path).write_text(json.dumps(payload))


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D float array.  numpy 2.4's np.unique (and a large
    np.isin) imports numpy.ma on first use, ~20 ms of every command."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def depth_one(s: SymbolPartition) -> RefinedPartition:
    cuts = _sorted_distinct(np.array([0.0, 1.0, *(e for iv in (*s.s0, *s.s1) for e in iv)]))
    codes = [s.symbol_of(x) for x in 0.5 * (cuts[:-1] + cuts[1:])]
    return RefinedPartition(depth=1, cuts=cuts, codes=np.array(codes, dtype=np.int64))


def refine_once(m: MapModel, s: SymbolPartition, p: RefinedPartition) -> RefinedPartition:
    """Depth N -> N+1: prepend each possible first bit to every word.

    Within a branch each new interval pulls back a piece of one parent
    interval, whose code follows the first bit; M is never evaluated forward.
    """
    first = depth_one(s)
    pulled = []  # per branch: preimages ascending, parent interval of the piece after each
    for br in m.branches:
        ylo, yhi = br.image
        y = np.concatenate(([ylo], p.cuts[(p.cuts > ylo) & (p.cuts < yhi)], [yhi]))
        par = np.searchsorted(p.cuts, y[:-1], side="right") - 1
        x = np.asarray(br.inverse(y), dtype=float)
        if not br.increasing:
            x, par = x[::-1], par[::-1]
        x[0], x[-1] = br.lo, br.hi  # the image ends pull back to the branch ends
        pulled.append((br, x, par))
    cuts = _sorted_distinct(np.concatenate([first.cuts, *(x for _, x, _ in pulled)]))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    codes = first.codes[np.searchsorted(first.cuts, mids) - 1] << p.depth
    for br, x, par in pulled:
        inside = (mids > br.lo) & (mids < br.hi)
        codes[inside] |= p.codes[par[np.searchsorted(x, mids[inside]) - 1]]
    return RefinedPartition(depth=p.depth + 1, cuts=cuts, codes=codes)


def refinement_ladder(
    m: MapModel, s: SymbolPartition, N: int, *, max_depth: int = DEFAULT_MAX_DEPTH, min_cell_width: float | None = None
) -> list[RefinedPartition]:
    """All refinements up to depth N (reusing each level to build the next).

    `min_cell_width`, when given, aborts once the narrowest nonempty cell
    component falls below it (cells finer than the density grid make the
    later integration meaningless).
    """
    if N < 1:
        raise RefinementError("depth must be at least 1")
    if N > max_depth:
        raise RefinementError(
            f"depth {N} exceeds the cap {max_depth}: cell widths shrink geometrically and "
            "drop below any usable grid resolution"
        )
    s.validate()
    ladder = [depth_one(s)]
    while ladder[-1].depth < N:
        ladder.append(refine_once(m, s, ladder[-1]))
        if min_cell_width is not None and ladder[-1].min_cell_width() < min_cell_width:
            raise RefinementError(
                f"narrowest cell at depth {ladder[-1].depth} is {ladder[-1].min_cell_width():.3e}, "
                f"below the resolution floor {min_cell_width:.3e}"
            )
    return ladder


def refine(m: MapModel, s: SymbolPartition, N: int, **kw) -> RefinedPartition:
    """Depth-N refinement of the bit-generation partition (see `refinement_ladder`)."""
    return refinement_ladder(m, s, N, **kw)[-1]


def partition_from_config(cfg: dict) -> SymbolPartition:
    """Config: {"s0": [[lo,hi],...], optional "s1": [[lo,hi],...]}."""
    if "s0" not in cfg:
        raise ValueError("partition config needs 's0' as a list of [lo, hi] pairs")
    s1 = cfg.get("s1")
    return SymbolPartition.from_pairs([tuple(p) for p in cfg["s0"]], None if s1 is None else [tuple(p) for p in s1])
