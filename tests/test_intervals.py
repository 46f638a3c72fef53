"""Interval-set algebra: canonical form plus measure-theoretic properties."""

from hypothesis import given
from hypothesis import strategies as st

from reference import IntervalSet

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
pair = st.tuples(unit, unit)
interval_sets = st.lists(pair, max_size=8).map(IntervalSet)


def test_normalization_merges_and_sorts():
    s = IntervalSet([(0.6, 0.9), (0.1, 0.3), (0.3, 0.5), (0.7, 0.8)])
    assert s.intervals == ((0.1, 0.5), (0.6, 0.9))


def test_degenerate_and_reversed_pieces_drop():
    assert IntervalSet([(0.4, 0.4), (0.9, 0.2)]).is_empty
    assert IntervalSet().measure == 0.0


def test_clipping_to_unit_interval():
    s = IntervalSet([(-1.0, 0.25), (0.5, 3.0)])
    assert s.intervals == ((0.0, 0.25), (0.5, 1.0))


def test_contains_left_cell_tie():
    s = IntervalSet([(0.2, 0.5)])
    assert s.contains(0.5)  # right endpoint belongs to the cell
    assert not s.contains(0.2)  # left endpoint belongs to the neighbor
    assert s.contains(0.3)
    assert not s.contains(0.7)


@given(interval_sets)
def test_canonical_equality(s):
    # rebuilding from the normalized pieces is the identity
    assert IntervalSet(s.intervals) == s
    assert hash(IntervalSet(s.intervals)) == hash(s)


@given(interval_sets)
def test_complement_partitions_unit_interval(s):
    c = s.complement()
    assert abs(s.measure + c.measure - 1.0) < 1e-12
    assert s.intersect(c).measure < 1e-12


@given(interval_sets, interval_sets)
def test_intersection_commutes_and_bounds(a, b):
    ab = a.intersect(b)
    assert ab == b.intersect(a)
    assert ab.measure <= min(a.measure, b.measure) + 1e-15


@given(interval_sets, unit)
def test_contains_respects_set_operations(s, x):
    c = s.complement()
    if 0.0 < x <= 1.0 and s.contains(x):
        assert not c.contains(x)


@given(interval_sets)
def test_intervals_are_sorted_disjoint(s):
    ivs = s.intervals
    assert all(a < b for a, b in ivs)
    assert all(b1 < a2 for (_, b1), (a2, _) in zip(ivs, ivs[1:]))
