"""Symbol partitions and depth-N refinements with exact interval oracles."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import chaosrng as cr
from chaosrng.density import DensityHistogram
from chaosrng.entropy import ProbabilityTable, block_entropy, block_probabilities
from chaosrng.maps import piecewise_linear_map
from chaosrng.partition import (
    DEFAULT_MAX_DEPTH,
    PartitionInvariantError,
    RefinementError,
    SymbolPartition,
    _sorted_distinct,
    partition_from_config,
    refinement_ladder,
)
from reference import IntervalSet, preimage_of_set, set_mass

XB = 1.0 / math.sqrt(3.0)


def test_from_pairs_complements():
    s = SymbolPartition.from_pairs([(0.6, 0.8), (0.0, 0.3)])
    assert s.cuts.tolist() == [0.0, 0.3, 0.6, 0.8, 1.0]
    assert s.codes.tolist() == [0, 1, 0, 1]
    # touching pairs merge, and an explicit S(1) may restate the complement
    t = SymbolPartition.from_pairs([(0.0, 0.2), (0.2, 0.3), (0.6, 0.8)], [(0.3, 0.6), (0.8, 1.0)])
    assert t.cuts.tolist() == s.cuts.tolist() and t.codes.tolist() == s.codes.tolist()
    # S(0) may reach 1, or be empty
    assert SymbolPartition.from_pairs([(0.4, 1.0)]).codes.tolist() == [1, 0]
    assert SymbolPartition.from_pairs([]).codes.tolist() == [1]


def test_symbol_of_ties():
    s = SymbolPartition.from_pairs([(0.0, 0.5)])
    assert s.symbol_of(0.5) == 0  # boundary belongs to the left cell
    assert s.symbol_of(0.50000001) == 1
    assert s.symbol_of(0.1) == 0


@given(
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0), min_size=0, max_size=8, unique=True),
    st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=20),
)
def test_symbol_of_matches_interval_set(ends, xs):
    ends = sorted(ends)
    pairs = list(zip(ends[0::2], ends[1::2]))
    s = SymbolPartition.from_pairs(pairs)
    ref = IntervalSet(pairs)
    want = [0 if ref.contains(x) else 1 for x in xs]
    assert [s.symbol_of(x) for x in xs] == want
    assert s.symbol_of(np.array(xs)).tolist() == want


@st.composite
def partitions_and_points(draw):
    """A depth-1 partition of up to 64 S(0) pairs, and points of (0, 1] that
    probe it: every cut, each cut's neighbouring doubles, 1 and uniform draws."""
    ends = sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=128, unique=True)))
    s = SymbolPartition.from_pairs(list(zip(ends[0::2], ends[1::2])))
    cuts = s.cuts[1:]
    near = np.concatenate((np.nextafter(cuts, 0.0), np.nextafter(cuts, 2.0)))
    drawn = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=20))
    xs = np.concatenate((cuts, near[(near > 0.0) & (near <= 1.0)], [1.0], drawn))
    return s, xs


@given(partitions_and_points(), st.integers(1, 5))
def test_symbol_of_matches_searchsorted(case, lanes):
    # the binary search against the sorted-cut lookup it replaced, in value
    # and in type, for Python floats, 0-d arrays and (rows, lanes) blocks
    s, xs = case

    def reference(x):
        return s.codes[np.searchsorted(s.cuts, x) - 1]

    for x in xs.tolist():
        for arg in (x, np.array(x)):
            got, want = s.symbol_of(arg), reference(arg)
            assert type(got) is type(want) and got == want, (x, got, want)
    block = xs[: xs.size // lanes * lanes].reshape(-1, lanes)
    got, want = s.symbol_of(block), reference(block)
    assert type(got) is type(want) and got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_symbol_of_rejects_points_outside_the_unit_interval():
    # 0 lies in no interval (lo, hi], and neither does anything past 1 or NaN
    s = SymbolPartition.from_pairs([(0.0, 0.5)])
    for bad in (0.0, -0.25, math.nextafter(1.0, 2.0), 2.0, math.nan):
        for arg in (bad, np.array(bad), np.array([[0.25, bad], [1.0, 0.75]])):
            with pytest.raises(ValueError, match=f"got {bad!r}"):
                s.symbol_of(arg)


def test_word_of_rejects_points_outside_the_unit_interval(cubic, branch_part):
    # word_of reads symbol_of's code, so it keeps symbol_of's domain
    p = refinement_ladder(cubic, branch_part, 3)[-1]
    for bad in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            p.word_of(bad)
    assert p.word_of(1.0) == format(int(p.codes[-1]), "03b")


def test_validate_rejects_overlap_and_gap():
    with pytest.raises(ValueError, match="complement"):
        SymbolPartition.from_pairs([(0.0, 0.6)], [(0.4, 1.0)])
    with pytest.raises(ValueError, match="complement"):
        SymbolPartition.from_pairs([(0.0, 0.4)], [(0.5, 1.0)])
    with pytest.raises(ValueError, match="overlaps"):
        SymbolPartition.from_pairs([(0.0, 0.4), (0.3, 0.5)])
    for pair in [(0.5, 0.2), (0.3, 0.3), (-0.1, 0.5), (0.5, 1.5)]:
        with pytest.raises(ValueError, match="0 <= lo < hi <= 1"):
            SymbolPartition.from_pairs([pair])


def test_partition_from_config():
    s = partition_from_config({"s0": [[0.0, 0.25], [0.5, 0.75]]})
    assert s.cuts.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert s.codes.tolist() == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        partition_from_config({"s1": [[0.0, 0.5]]})
    with pytest.raises(ValueError, match="unknown key 'S1'"):
        partition_from_config({"s0": [[0.0, 0.5]], "S1": [[0.5, 1.0]]})


def test_depth_limits(cubic, branch_part):
    with pytest.raises(RefinementError):
        refinement_ladder(cubic, branch_part, 0)
    with pytest.raises(RefinementError):
        refinement_ladder(cubic, branch_part, 25)
    with pytest.raises(RefinementError, match="exceeds the cap"):
        refinement_ladder(cubic, branch_part, DEFAULT_MAX_DEPTH + 1)
    with pytest.raises(RefinementError, match="depth-1 partition"):
        refinement_ladder(cubic, refinement_ladder(cubic, branch_part, 2)[-1], 3)


def test_bernoulli_cells_are_binary_expansions(bernoulli, sym_part):
    # for 2x mod 1, the word w is the binary expansion: cell(w) = [0.w, 0.w + 2^-N]
    for N in (1, 3, 6):
        p = refinement_ladder(bernoulli, sym_part, N)[-1]
        for w, cell in p.cells.items():
            lo = int(w, 2) / 2**N
            assert len(cell) == 1
            a, b = cell[0]
            assert a == pytest.approx(lo, abs=1e-9)
            assert b == pytest.approx(lo + 2.0**-N, abs=1e-9)


def test_tent_cells_are_dyadic(tent, sym_part):
    p = refinement_ladder(tent, sym_part, 5)[-1]
    assert p.nonempty_count() == 32
    for cell in p.cells.values():
        assert len(cell) == 1
        a, b = cell[0]
        assert (b - a) == pytest.approx(2.0**-5, abs=1e-9)
        assert a * 32 == pytest.approx(round(a * 32), abs=1e-6)


def test_cubic_depth2_cut_points(cubic, branch_part):
    # the two new depth-2 boundaries are the preimages of the branch split
    p = refinement_ladder(cubic, branch_part, 2)[-1]
    cuts = sorted(
        {round(e, 9) for c in p.cells.values() for a, b in c for e in (a, b)}
        - {0.0, 1.0, round(XB, 9)}
    )
    assert len(cuts) == 2
    x1, x2 = cuts
    assert abs(cubic(x1) - XB) < 1e-9
    assert abs(cubic(x2) - XB) < 1e-9
    assert x1 < XB < x2


def test_refinement_ladder_consistency(cubic, branch_part):
    ladder = refinement_ladder(cubic, branch_part, 6)
    assert [p.depth for p in ladder] == [1, 2, 3, 4, 5, 6]
    for parent, child in zip(ladder, ladder[1:]):
        child.validate(cubic, parent=parent)


def test_logistic_ladder_matches_arcsine_measure(logistic, sym_part):
    # conjugate to the tent map by x = sin^2(pi t / 2): under the invariant
    # measure F(x) = (2/pi) arcsin(sqrt(x)) every N-bit word has mass 2^-N
    for p in refinement_ladder(logistic, sym_part, 18):
        F = 2.0 / np.pi * np.arcsin(np.sqrt(p.cuts))
        mass = np.bincount(p.codes, weights=np.diff(F), minlength=2**p.depth)
        assert np.max(np.abs(mass * 2**p.depth - 1.0)) < 1e-5, p.depth


def test_cubic_ladder_keeps_every_word(cubic, branch_part):
    for p in refinement_ladder(cubic, branch_part, 20):
        assert p.nonempty_count() == 2**p.depth, p.depth


def test_word_of_matches_iteration(cubic, branch_part):
    # the depth-N cell of x0 spells out the first N bits of the orbit
    N = 6
    p = refinement_ladder(cubic, branch_part, N)[-1]
    rng = np.random.default_rng(7)
    for x0 in rng.uniform(0.01, 0.99, size=25):
        w = p.word_of(float(x0))
        x = float(x0)
        spelled = ""
        for _ in range(N):
            spelled += str(branch_part.symbol_of(x))
            x = cubic(x)
        # boundary-adjacent starts may legitimately disagree by tie rules
        if w is not None and min(abs(x0 - e) for c in p.cells.values() for a, b in c for e in (a, b)) > 1e-9:
            assert w == spelled


@given(arrays(np.float64, st.integers(0, 50), elements=st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 0.5, 1.0])))
def test_sorted_distinct_matches_np_unique(a):
    assert np.array_equal(_sorted_distinct(a), np.unique(a))


def test_validate_catches_corruption(cubic, branch_part):
    parent, p = refinement_ladder(cubic, branch_part, 3)[1:]
    p.validate(cubic, parent=parent)
    codes = p.codes.copy()
    codes[0] = 2**3  # a code outside the depth-3 index space
    with pytest.raises(PartitionInvariantError):
        cr.SymbolPartition(depth=3, cuts=p.cuts, codes=codes).validate(cubic)
    with pytest.raises(PartitionInvariantError):
        cr.SymbolPartition(depth=2, cuts=p.cuts, codes=p.codes).validate(cubic)
    codes = p.codes.copy()
    codes[0] ^= 0b100  # flip the first bit: the word no longer extends its parent's
    with pytest.raises(PartitionInvariantError):
        cr.SymbolPartition(depth=3, cuts=p.cuts, codes=codes).validate(cubic, parent=parent)
    i = int(np.searchsorted(p.cuts, XB))  # drop the parent cut point 1/sqrt(3)
    with pytest.raises(PartitionInvariantError):
        cr.SymbolPartition(depth=3, cuts=np.delete(p.cuts, i), codes=np.delete(p.codes, i)).validate(cubic, parent=parent)
    with pytest.raises(PartitionInvariantError):  # cut points out of order
        cr.SymbolPartition(depth=3, cuts=p.cuts[::-1], codes=p.codes).validate(cubic)
    codes = p.codes.copy()
    codes[0] ^= 0b001  # flip the last bit: the prefix still matches, so only the check through M fails
    with pytest.raises(PartitionInvariantError, match="last N-1 bits"):
        cr.SymbolPartition(depth=3, cuts=p.cuts, codes=codes).validate(cubic, parent=parent)


def test_depth_two_cells_name_every_word(tent, sym_part):
    p = refinement_ladder(tent, sym_part, 2)[-1]
    assert sorted(p.cells) == ["00", "01", "10", "11"]
    assert sum(hi - lo for c in p.cells.values() for lo, hi in c) == pytest.approx(1.0)


def test_depth_one(tent, sym_part):
    # level 1 of the ladder is the partition itself
    p = refinement_ladder(tent, sym_part, 1)[0]
    assert p is sym_part
    assert p.depth == 1
    assert p.cells == {"0": ((0.0, 0.5),), "1": ((0.5, 1.0),)}


# ---------------------------------------------------------------------------
# the interval-set recurrence that the cut/code ladder replaces, as a reference


def reference_ladder(m, s, N):
    """cell(i w) = S(i) n M^-1(cell(w)), one {word: IntervalSet} dict per depth."""
    tiles = list(zip(s.cuts[:-1].tolist(), s.cuts[1:].tolist(), s.codes.tolist()))
    first = {str(i): IntervalSet((a, b) for a, b, c in tiles if c == i) for i in (0, 1)}
    levels = [first]
    while len(levels) < N:
        pre = {w: preimage_of_set(m, c) for w, c in levels[-1].items()}
        levels.append({i + w: first[i].intersect(pw) for i in "01" for w, pw in pre.items()})
    return levels


def _bumpy_density(L=500):
    w = np.random.default_rng(0).uniform(0.2, 2.0, L)
    return DensityHistogram(L=L, weights=w * (L / w.sum()), method="fp_operator")


def assert_matches_reference(m, s, N, f):
    for p, cells in zip(refinement_ladder(m, s, N), reference_ladder(m, s, N), strict=True):
        raw = {w: set_mass(f, c) for w, c in cells.items()}
        total = sum(raw.values())
        want = ProbabilityTable(depth=p.depth, p=[raw[w] / total for w in sorted(raw)])
        got = block_probabilities(p, f)
        assert np.abs(got.p - want.p).max() < 1e-12
        assert abs(block_entropy(got) - block_entropy(want)) < 1e-12
        if p.depth <= 6:
            for w, c in p.cells.items():
                c = IntervalSet(c)
                assert c.measure + cells[w].measure - 2 * c.intersect(cells[w]).measure < 1e-12, w


@pytest.mark.parametrize("name", sorted(cr.maps.BUILTIN_MAPS))
def test_ladder_matches_interval_recurrence_on_builtins(name):
    m = cr.maps.BUILTIN_MAPS[name]()
    s = SymbolPartition.from_pairs([(0.0, m.branches[0].hi)])
    assert_matches_reference(m, s, 10, _bumpy_density())


unit_value = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


@st.composite
def maps_and_partitions(draw):
    k = draw(st.integers(2, 4))  # monotone branches
    widths = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    xs = [0.0, *(np.cumsum(widths)[:-1] / widths.sum()).tolist(), 1.0]
    ys = draw(st.lists(unit_value, min_size=k + 1, max_size=k + 1))
    assume(all(abs(a - b) > 0.05 for a, b in zip(ys, ys[1:])))
    pts = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3, unique=True)))
    assume(all(b - a > 0.01 for a, b in zip(pts, pts[1:])))
    edges = [0.0, *pts, 1.0]
    first = draw(st.integers(0, 1))
    s0 = [(a, b) for i, (a, b) in enumerate(zip(edges, edges[1:])) if i % 2 == first]
    depth = draw(st.integers(1, {2: 10, 3: 6, 4: 5}[k]))
    return piecewise_linear_map(xs, ys), SymbolPartition.from_pairs(s0), depth


@settings(max_examples=30, deadline=None)
@given(maps_and_partitions())
def test_ladder_matches_interval_recurrence_on_generated_maps(case):
    m, s, N = case
    assert_matches_reference(m, s, N, _bumpy_density())
