"""Invariant densities: Monte Carlo route, operator route, and their agreement."""
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import chaosrng as cr
from chaosrng import density
from chaosrng import maps as _maps
from chaosrng.bitstream import BitstreamConfig, _grid_bits, _grid_cuts, generate_bits
from chaosrng.density import (
    DensityHistogram,
    DitherConfig,
    NonConvergenceError,
    ResolutionError,
    chain_states,
    density_for,
    fp_fixed_point,
    fp_step,
    l1_distance,
    mc_density,
    scaled_map_table,
    uniform_density,
)
from chaosrng.intervals import IntervalSet
from chaosrng.partition import SymbolPartition


def arcsine_histogram(L):
    """Bin-averaged 1/(pi*sqrt(x(1-x))): the logistic map's stationary law."""
    edges = np.arange(L + 1) / L
    F = (2.0 / np.pi) * np.arcsin(np.sqrt(edges))
    w = (F[1:] - F[:-1]) * L
    return DensityHistogram(L=L, weights=w / (w.sum() / L), method="fp_operator")


# ---------------------------------------------------------------------------
# histogram container


def test_histogram_validation():
    h = uniform_density(128)
    h.validate()
    bad = DensityHistogram(L=128, weights=np.ones(64), method="montecarlo")
    with pytest.raises(ValueError):
        bad.validate()
    neg = DensityHistogram(L=4, weights=np.array([2.0, 2.0, 1.0, -1.0]), method="montecarlo")
    with pytest.raises(ValueError):
        neg.validate()


def test_cumulative_and_set_mass():
    h = uniform_density(64)
    assert h.cumulative(0.0) == 0.0
    assert h.cumulative(1.0) == pytest.approx(1.0)
    assert h.cumulative(0.3) == pytest.approx(0.3, abs=1e-12)
    s = IntervalSet([(0.1, 0.2), (0.5, 0.75)])
    assert h.set_mass(s) == pytest.approx(0.35, abs=1e-12)
    assert h.set_mass(IntervalSet()) == 0.0


def test_set_mass_nonuniform():
    h = arcsine_histogram(512)
    # F(3/4) - F(1/4) = (2/pi)(pi/3 - pi/6) = 1/3 under the arcsine law
    got = h.set_mass(IntervalSet([(0.25, 0.75)]))
    assert got == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_l1_distance_grid_mismatch():
    with pytest.raises(ValueError):
        l1_distance(uniform_density(64), uniform_density(128))
    assert l1_distance(uniform_density(64), uniform_density(64)) == 0.0


def test_csv_and_json_output(tmp_path):
    h = uniform_density(16)
    h.to_csv(tmp_path / "d.csv")
    rows = (tmp_path / "d.csv").read_text().strip().splitlines()
    assert rows[0] == "t,f"
    assert len(rows) == 17
    h.to_json(tmp_path / "d.json")
    assert '"L": 16' in (tmp_path / "d.json").read_text()


# ---------------------------------------------------------------------------
# Monte Carlo route


def test_mc_requires_enough_samples(tent):
    with pytest.raises(ResolutionError):
        mc_density(tent, 1024, DitherConfig(seed=0, K=1024 * 10))
    with pytest.raises(ValueError):
        mc_density(tent, 1024, DitherConfig(seed=0, K=200_000, burn_in=10))
    with pytest.raises(ValueError):
        mc_density(tent, 32, DitherConfig(seed=0, K=200_000))
    for shards in (0, 6_401):
        with pytest.raises(ValueError):
            mc_density(tent, 64, DitherConfig(seed=0, K=6_400, burn_in=1_000), shards=shards)


def test_mc_deterministic_given_seed(tent):
    cfg = DitherConfig(seed=42, K=200_000, burn_in=2_000)
    a = mc_density(tent, 256, cfg)
    b = mc_density(tent, 256, cfg)
    assert np.array_equal(a.weights, b.weights)
    c = mc_density(tent, 256, DitherConfig(seed=43, K=200_000, burn_in=2_000))
    assert not np.array_equal(a.weights, c.weights)


def test_mc_metadata_and_normalization(tent, tmp_path):
    h = mc_density(tent, 256, DitherConfig(seed=1, K=200_000, burn_in=2_000), shards=4)
    h.validate()
    assert h.method == "montecarlo"
    assert h.meta["rng"] == "PCG64"
    assert h.meta["shards"] == 4
    assert h.meta["lanes"] == density._LANES
    assert h.meta["seed"] == 1
    assert h.weights.sum() / h.L == pytest.approx(1.0, abs=1e-12)
    h.to_json(tmp_path / "d.json")
    assert json.loads((tmp_path / "d.json").read_text())["lanes"] == density._LANES
    # fewer visits per shard than _LANES: one lane per visit of the smallest shard
    assert mc_density(tent, 64, DitherConfig(seed=1, K=6_400, burn_in=1_000), shards=32).meta["lanes"] == 200


def test_mc_tent_near_uniform(tent):
    h = mc_density(tent, 256, DitherConfig(seed=3, K=2_000_000))
    assert l1_distance(h, uniform_density(256)) < 0.02


def test_mc_sharded_close_but_not_identical(tent):
    serial = mc_density(tent, 256, DitherConfig(seed=5, K=1_000_000))
    sharded = mc_density(tent, 256, DitherConfig(seed=5, K=1_000_000), shards=4)
    assert not np.array_equal(serial.weights, sharded.weights)
    assert l1_distance(serial, sharded) < 0.05


def test_scaled_map_table(tent):
    table = scaled_map_table(tent, 100)
    # table[j] = L * M(j/L); tent peaks at j = 50
    assert table[50] == pytest.approx(100.0, abs=1e-6)
    assert table[25] == pytest.approx(50.0, abs=1e-6)


def one_shot_bit_table(part, L):
    """bits[j] of grid state j/L for j = 0..L: 0 on every S(0) interval (a, b]."""
    grid = np.arange(L + 1) / L
    bits = np.ones(L + 1, dtype=np.uint8)
    for a, b in part.s0:
        bits[(grid > a) & (grid <= b)] = 0
    return bits


@pytest.mark.parametrize("L", [(1 << 21) + 3, 1 << 20])
def test_grid_tables_match_one_shot_construction(cubic, branch_part, L):
    # the 2^21 + 4 grid points of 2^21 + 3 fill 32 table slices and a 4-point
    # tail; on 2^20 the cut 1/2 is a grid point
    grid = np.arange(L + 1) / L
    grid[0], grid[L] = _maps.EPS, 1.0 - _maps.EPS
    one_shot = L * np.clip(cubic.raw_eval(grid), _maps.EPS, 1.0 - _maps.EPS)
    assert np.array_equal(scaled_map_table(cubic, L), one_shot)
    states = np.arange(1, L + 1)
    for part in (branch_part, cr.symmetric_partition(), SymbolPartition.from_pairs([(0.1, 0.3), (0.5, 0.77)])):
        assert np.array_equal(_grid_bits(_grid_cuts(part, L), states), one_shot_bit_table(part, L)[1:])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grid_bits_match_one_shot_table(data):
    L = data.draw(st.integers(64, 3000))
    # cuts drawn on and off grid points, so that ties with the left cell occur
    ends = data.draw(st.lists(st.integers(1, 4 * L - 1), min_size=2, max_size=6, unique=True))
    ends = sorted(e / (4 * L) if data.draw(st.booleans()) else (e // 4) / L for e in ends)
    part = SymbolPartition.from_pairs(list(zip(ends[0::2], ends[1::2])))
    states = np.arange(1, L + 1)
    assert np.array_equal(_grid_bits(_grid_cuts(part, L), states), one_shot_bit_table(part, L)[1:])


# ---------------------------------------------------------------------------
# chain kernel against the per-step numpy loop it replaced


def reference_chain(table, noise, j0, L):
    j, states = j0, []
    for u in noise:
        v = int(np.floor(table[j] + u))
        j = 1 if v < 1 else (L if v > L else v)
        states.append(j)
    return np.array(states, dtype=np.int64)


def run_chain(table, noise, j0, L):
    chunks = list(chain_states(table, noise, j0, L))
    assert all(c.dtype == np.int64 and 0 < len(c) <= density._CHAIN_CHUNK for c in chunks)
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_chain_states_match_reference_loop(data):
    L = data.draw(st.integers(1, 40))
    # table values outside [1, L + 1) force the lower and the upper clip
    table = data.draw(arrays(np.float64, L + 1, elements=st.floats(-3.0, L + 3.0)))
    noise = data.draw(arrays(np.float64, data.draw(st.integers(0, 300)), elements=st.floats(-1.0, 1.0, exclude_max=True)))
    j0 = data.draw(st.integers(0, L))
    with mock.patch.object(density, "_CHAIN_CHUNK", data.draw(st.integers(1, 64))):
        assert np.array_equal(run_chain(table, noise, j0, L), reference_chain(table, noise, j0, L))


def test_chain_states_clip_and_start_at_zero():
    table = np.array([2.5, 40.0, -7.0, 1.2])
    assert run_chain(table, np.zeros(5), 0, 3).tolist() == [2, 1, 3, 1, 3]


def test_chain_states_length_off_the_chunk_size(cubic):
    L = 1000
    table = scaled_map_table(cubic, L)
    noise = np.random.default_rng(2).uniform(-1.0, 1.0, size=2 * density._CHAIN_CHUNK + 123)
    chunks = list(chain_states(table, noise, 17, L))
    assert [len(c) for c in chunks] == [density._CHAIN_CHUNK] * 2 + [123]
    assert np.array_equal(np.concatenate(chunks), reference_chain(table, noise, 17, L))


def visit_counts(h):
    """Visits per output bin, recovered from the normalized weights."""
    return np.rint(h.weights * h.meta["K"] / h.L).astype(np.int64)


def serial_lane_counts(m, L, cfg, shards, lanes):
    """Per-bin visits of mc_density's chains, each run alone by chain_states
    over its own column of the shard's noise."""
    Lc = L * cfg.grid_factor
    table = scaled_map_table(m, Lc)
    visits = np.zeros(Lc + 1, dtype=np.int64)
    per_shard = [cfg.K // shards] * shards
    per_shard[0] += cfg.K % shards
    for seq, k in zip(np.random.SeedSequence(cfg.seed).spawn(shards), per_shard):
        rng = np.random.Generator(np.random.PCG64(seq))
        starts = rng.integers(1, Lc + 1, size=lanes)
        counted_steps = -(-k // lanes)
        noise = rng.uniform(-1.0, 1.0, size=(cfg.burn_in + counted_steps, lanes))
        last = k - (counted_steps - 1) * lanes  # lanes that take the last counted step
        for b in range(lanes):
            states = run_chain(table, noise[:, b], int(starts[b]), Lc)[cfg.burn_in :]
            np.add.at(visits, states[: counted_steps - (b >= last)], 1)
    bins = np.minimum((np.arange(1, Lc + 1) * L) // Lc, L - 1)
    return np.bincount(bins, weights=visits[1:], minlength=L).astype(np.int64)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mc_lanes_match_serial_chains(data):
    m = _maps.BUILTIN_MAPS[data.draw(st.sampled_from(sorted(_maps.BUILTIN_MAPS)))]()
    cfg = DitherConfig(
        seed=data.draw(st.integers(0, 2**32)),
        burn_in=data.draw(st.integers(1_000, 1_100)),
        K=data.draw(st.integers(6_400, 7_000)),
        grid_factor=data.draw(st.integers(1, 8)),
    )
    shards = data.draw(st.integers(1, 3))
    lanes = data.draw(st.integers(1, 9))
    with mock.patch.object(density, "_LANES", lanes), mock.patch.object(density, "_LANE_BLOCK", data.draw(st.integers(1, 40))):
        h = mc_density(m, 64, cfg, shards=shards)
    assert h.meta["lanes"] == lanes
    assert np.array_equal(visit_counts(h), serial_lane_counts(m, 64, cfg, shards, lanes))


@pytest.mark.parametrize("rows", [7, 333, 1000])
def test_mc_burn_in_across_chunk_boundaries(cubic, rows):
    # burn_in = 1000 ends inside a block of noise rows (7, 333) and on a block
    # boundary (1000); K = 7001 is no multiple of the lane count, and with 10^4
    # lanes each shard has fewer visits than _LANES
    cfg = DitherConfig(seed=5, K=7_001, burn_in=1_000, grid_factor=2)
    for lanes, shards in ((256, 1), (256, 2), (10_000, 1), (10_000, 2)):
        with mock.patch.object(density, "_LANES", lanes):
            with mock.patch.object(density, "_LANE_BLOCK", 1 << 20):
                one_block = mc_density(cubic, 64, cfg, shards=shards)
            with mock.patch.object(density, "_LANE_BLOCK", rows):
                blocked = mc_density(cubic, 64, cfg, shards=shards)
        assert np.array_equal(blocked.weights, one_block.weights)
        assert visit_counts(blocked).sum() == cfg.K


@pytest.mark.parametrize("start", [0.3, 0.9, None])
@pytest.mark.parametrize("length", [1, 2, 63, 64, 65, 129, 1_000])
def test_generate_bits_matches_reference_loop(cubic, branch_part, length, start):
    # chunked noise and states against one uniform(size=length) draw, the
    # reference loop and the L-sized bit table; the lengths sit on and around
    # multiples of the patched chunk
    L = 4096
    with mock.patch.object(density, "_CHAIN_CHUNK", 64):
        bits = generate_bits(cubic, branch_part, BitstreamConfig(seed=3, length=length, L=L, start=start))
    rng = np.random.Generator(np.random.PCG64(3))
    j0 = round(start * L) if start is not None else int(rng.integers(1, L + 1))
    noise = rng.uniform(-1.0, 1.0, size=length)
    states = np.concatenate(([j0], reference_chain(scaled_map_table(cubic, L), noise[:-1], j0, L)))
    assert np.array_equal(bits, one_shot_bit_table(branch_part, L)[states])


# ---------------------------------------------------------------------------
# operator route


def test_fp_tent_uniform_is_fixed(tent):
    h = fp_fixed_point(tent, 256, tol=1e-12)
    assert h.meta["iterations"] == 1
    assert np.abs(h.weights - 1.0).max() < 1e-12


def test_fp_step_reads_the_map_it_is_given():
    # maps built and freed in turn can reuse each other's id(); a step must
    # never pick up pull-back data of an earlier, freed map
    u = uniform_density(256)
    for i in range(1000):
        m = cr.tent_map() if i % 2 == 0 else cr.logistic_map()
        f = fp_step(m, u)
        if i % 2 == 0:
            assert np.allclose(f.weights, 1.0, atol=1e-9), f"step {i}"
        del m, f


def test_fp_bernoulli_uniform_is_fixed(bernoulli):
    h = fp_fixed_point(bernoulli, 256, tol=1e-12)
    assert np.abs(h.weights - 1.0).max() < 1e-10


def test_fp_step_mass_preserving(cubic):
    f = fp_step(cubic, uniform_density(512))
    f.validate()
    assert f.method == "fp_operator"
    unnormalized = DensityHistogram(L=512, weights=np.full(512, 2.0), method="fp_operator")
    with pytest.raises(ValueError, match="not normalized"):
        fp_step(cubic, unnormalized)


def test_fp_step_piles_mass_near_critical_value(cubic):
    # one pull-back of the uniform density: 1/|M'| diverges where the map
    # is flat, so bins near y = 1 exceed 1.5
    f = fp_step(cubic, uniform_density(512))
    assert f.weights[-8:].max() > 1.5


def test_fp_logistic_matches_closed_form(logistic):
    h = fp_fixed_point(logistic, 1024, tol=1e-11, max_iter=20000)
    assert l1_distance(h, arcsine_histogram(1024)) < 0.05
    fine = fp_fixed_point(logistic, 1024, tol=1e-11, max_iter=20000, grid_factor=16)
    assert l1_distance(fine, arcsine_histogram(1024)) < 0.015


def test_fp_fixed_point_is_stationary(cubic):
    h = fp_fixed_point(cubic, 1024, tol=1e-11, max_iter=20000)
    again = fp_step(cubic, h)
    assert l1_distance(h, again) < 2e-11


def test_fp_nonconvergence_reported(cubic):
    with pytest.raises(NonConvergenceError) as exc:
        fp_fixed_point(cubic, 256, tol=1e-30, max_iter=50)
    assert exc.value.iterations == 50


def test_fp_rejects_bad_arguments(cubic):
    with pytest.raises(ValueError):
        fp_fixed_point(cubic, 256, tol=0.0)
    with pytest.raises(ValueError):
        fp_fixed_point(cubic, 256, grid_factor=0)


# ---------------------------------------------------------------------------
# cross-route agreement


def test_density_for_dispatch(tent):
    mc = density_for(tent, "montecarlo", 256, seed=2, K=200_000, burn_in=2_000)
    fp = density_for(tent, "fp_operator", 256)
    assert mc.method == "montecarlo"
    assert fp.method == "fp_operator"
    with pytest.raises(ValueError):
        density_for(tent, "quadrature", 256)


def test_routes_agree_on_cubic(cubic):
    fp = fp_fixed_point(cubic, 512, tol=1e-11, max_iter=20000, grid_factor=8)
    mc = mc_density(cubic, 512, DitherConfig(seed=11, K=8_000_000, grid_factor=512))
    assert l1_distance(mc, fp) < 0.05
