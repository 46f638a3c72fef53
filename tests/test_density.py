"""Invariant densities: Monte Carlo route, operator route, and their agreement."""
import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import chaosrng as cr
from chaosrng import bitstream, density
from chaosrng.analysis import run_analysis
from chaosrng import maps as _maps
from chaosrng.bitstream import chain_states, generate_bits
from chaosrng.density import (
    DEFAULT_BURN_IN,
    MC_GRID_FACTOR,
    DensityHistogram,
    NonConvergenceError,
    ResolutionError,
    density_for,
    fp_fixed_point,
    l1_distance,
    mc_density,
    solve_grid,
)
from chaosrng.partition import SymbolPartition
from reference import IntervalSet, fp_step, scaled_map_table, set_mass, uniform_density
from strategies import map_models


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
    assert set_mass(h, s) == pytest.approx(0.35, abs=1e-12)
    assert set_mass(h, IntervalSet()) == 0.0


def test_set_mass_nonuniform():
    h = arcsine_histogram(512)
    # F(3/4) - F(1/4) = (2/pi)(pi/3 - pi/6) = 1/3 under the arcsine law
    got = set_mass(h, IntervalSet([(0.25, 0.75)]))
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
    assert h.to_dict()["L"] == 16


# ---------------------------------------------------------------------------
# Monte Carlo route


def test_mc_requires_enough_samples(tent):
    with pytest.raises(ResolutionError):
        mc_density(tent, 1024, seed=0, K=1024 * 10)
    with pytest.raises(ValueError):
        mc_density(tent, 1024, seed=0, K=200_000, burn_in=10)
    with pytest.raises(ValueError):
        mc_density(tent, 32, seed=0, K=200_000)
    with pytest.raises(ValueError, match="grid_factor"):
        mc_density(tent, 64, seed=0, K=6_400, burn_in=1_000, grid_factor=0)


def test_mc_deterministic_given_seed(tent):
    a = mc_density(tent, 256, seed=42, K=200_000, burn_in=2_000)
    b = mc_density(tent, 256, seed=42, K=200_000, burn_in=2_000)
    assert np.array_equal(a.weights, b.weights)
    c = mc_density(tent, 256, seed=43, K=200_000, burn_in=2_000)
    assert not np.array_equal(a.weights, c.weights)


def test_mc_metadata_and_normalization(tent, tmp_path):
    h = mc_density(tent, 256, seed=1, K=200_000, burn_in=2_000)
    h.validate()
    assert h.method == "montecarlo"
    assert h.meta["rng"] == "PCG64"
    assert h.meta["lanes"] == density.LANES
    assert h.meta["seed"] == 1
    assert h.weights.sum() / h.L == pytest.approx(1.0, abs=1e-12)
    assert json.loads(json.dumps(h.to_dict()))["lanes"] == density.LANES


def test_mc_tent_near_uniform(tent):
    h = mc_density(tent, 256, seed=3, K=2_000_000)
    assert l1_distance(h, uniform_density(256)) < 0.02


def test_scaled_map_table(tent):
    table = scaled_map_table(tent, 100)
    # table[j] = L * M(j/L); tent peaks at j = 50
    assert table[50] == pytest.approx(100.0, abs=1e-6)
    assert table[25] == pytest.approx(50.0, abs=1e-6)


def one_shot_bit_table(part, L):
    """bits[j] of grid state j/L for j = 0..L: codes[i] on every interval (cuts[i], cuts[i+1]]."""
    grid = np.arange(L + 1) / L
    bits = np.ones(L + 1, dtype=np.uint8)
    for a, b, c in zip(part.cuts[:-1], part.cuts[1:], part.codes):
        bits[(grid > a) & (grid <= b)] = c
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
    parts = [(0.1, 0.3), (0.5, 0.77)], [(0.2, 0.6), (0.8, 1.0)]
    for part in (branch_part, cr.symmetric_partition(), *map(SymbolPartition.from_pairs, parts)):
        assert np.array_equal(part.symbol_of(states / L), one_shot_bit_table(part, L)[1:])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grid_bits_match_one_shot_table(data):
    L = data.draw(st.integers(64, 3000))
    # cuts drawn on and off grid points, so that ties with the left cell occur
    ends = data.draw(st.lists(st.integers(1, 4 * L - 1), min_size=2, max_size=6, unique=True))
    ends = sorted({e / (4 * L) if data.draw(st.booleans()) else (e // 4) / L for e in ends})
    part = SymbolPartition.from_pairs(list(zip(ends[0::2], ends[1::2])))
    states = np.arange(1, L + 1)
    assert np.array_equal(part.symbol_of(states / L), one_shot_bit_table(part, L)[1:])


# ---------------------------------------------------------------------------
# grid chain kernel against a per-step numpy loop over the map table


def reference_chain(table, noise, j0, L):
    j, states = j0, []
    for u in noise:
        v = int(np.floor(table[j] + u))
        j = 1 if v < 1 else (L if v > L else v)
        states.append(j)
    return np.array(states, dtype=np.int64)


def run_chain(m, noise, j0, L):
    states = chain_states(m, noise, j0, L)
    assert states.dtype == np.int64 and states.shape == (len(noise),)
    return states


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_chain_states_match_reference_loop(data):
    m = data.draw(map_models)
    L = data.draw(st.integers(1, 3000))
    noise = data.draw(arrays(np.float64, data.draw(st.integers(0, 300)), elements=st.floats(-1.0, 1.0, exclude_max=True)))
    j0 = data.draw(st.integers(1, L))
    assert np.array_equal(run_chain(m, noise, j0, L), reference_chain(scaled_map_table(m, L), noise, j0, L))


def test_chain_states_clip_and_start_at_zero():
    L = 4
    noise = np.tile([-0.5, 3.5, -3.5, 0.3, 0.9], 8)
    for name, make in _maps.BUILTIN_MAPS.items():
        m = make()
        # the Bernoulli shift maps x = 1/2, the others map the top state
        # x = 1 - EPS next to 0, so u < 0 takes the chain below state 1; noise
        # outside [-1, 1) also forces the upper clip
        j0 = 2 if name == "bernoulli" else L
        table = scaled_map_table(m, L)
        states = reference_chain(table, noise, j0, L)
        unclipped = np.floor(table[np.concatenate(([j0], states[:-1]))] + noise)
        assert unclipped[0] < 1 and unclipped.max() > L, name
        assert np.array_equal(run_chain(m, noise, j0, L), states), name
        # state 0 is no grid point of the chain, and neither is L + 1
        for bad in (0, L + 1):
            with pytest.raises(ValueError, match="1..4"):
                run_chain(m, noise, bad, L)
    # the chain evaluates the map where the table does: x = 1 - EPS at j = L
    seen = []
    tent = _maps.tent_map()

    def recording(x):
        seen.append(x)
        return tent.raw_eval(x)

    run_chain(dataclasses.replace(tent, raw_eval=recording), [0.0, 0.0], L, L)
    assert seen == [1.0 - _maps.EPS, 1 / L]
    # the tent's peak M(1/2) = 1 is clamped to 1 - EPS, so u = 0 ends in
    # state L - 1 and not L
    assert run_chain(tent, [0.0], L // 2, L).tolist() == [L - 1]
    assert reference_chain(scaled_map_table(tent, L), [0.0], L // 2, L).tolist() == [L - 1]


def test_chain_states_length_off_the_chunk_size(cubic):
    # the kernel does not split its noise: bit_chunks passes it one chunk
    # at a time, and any longer noise still gives one array of its length
    L = 1000
    noise = np.random.default_rng(2).uniform(-1.0, 1.0, size=2 * density.NOISE_BLOCK + 123)
    states = run_chain(cubic, noise, 17, L)
    assert np.array_equal(states, reference_chain(scaled_map_table(cubic, L), noise, 17, L))
    assert run_chain(cubic, [], 17, L).size == 0


def visit_counts(h):
    """Visits per output bin, recovered from the normalized weights."""
    return np.rint(h.weights * h.meta["K"] / h.L).astype(np.int64)


def lead_chain_starts(m, L, lanes, burn_in, rng):
    """The last `lanes` states of one chain_states run from a uniform grid
    start over one draw of burn_in + lanes - 1 noise values: the lane starts,
    so that lane k starts at the lead chain's state burn_in + k."""
    j0 = int(rng.integers(1, L + 1))
    return chain_states(m, rng.uniform(-1.0, 1.0, size=burn_in + lanes - 1), j0, L)[-lanes:]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lane_starts_are_the_lead_chains_last_states(data):
    # the chunk loop that steps the serial stream and the lanes' lead chain:
    # chunks of NOISE_BLOCK values that end inside and at the end of the
    # run join into one chain_states run over one draw, and the generator
    # is left where that draw leaves it
    m = _maps.BUILTIN_MAPS[data.draw(st.sampled_from(sorted(_maps.BUILTIN_MAPS)))]()
    L = data.draw(st.sampled_from([64, 1000, 1 << 24]))
    n, j0 = data.draw(st.integers(0, 500)), data.draw(st.integers(1, 64))
    seed, block = data.draw(st.integers(0, 2**32)), data.draw(st.integers(1, 400))
    rng = np.random.default_rng(seed)
    with mock.patch.object(density, "NOISE_BLOCK", block):
        chunks = list(bitstream._chain_chunks(m, j0, L, n, rng))
    assert len(chunks) == -(-n // block) and all(c.dtype == np.int64 and c.size <= block for c in chunks)
    ref = np.random.default_rng(seed)
    states = chain_states(m, ref.uniform(-1.0, 1.0, size=n), j0, L)
    assert np.concatenate([np.zeros(0, np.int64), *chunks]).tolist() == states.tolist()
    assert rng.uniform() == ref.uniform()


@given(
    st.integers(0, 2**32),
    st.one_of(st.tuples(st.sampled_from([0, 1, 2, 7, 33])), st.tuples(st.integers(0, 5), st.integers(0, 9))),
    st.integers(0, 3),
)
def test_uniform_noise_is_the_uniform_draw(seed, shape, spare):
    # every sampler draws its noise through uniform_noise, into a buffer,
    # often a leading slice of a larger one: the doubles and the generator's
    # next draw are those of one uniform(-1, 1) draw of the same shape
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    buf = np.full((shape[0] + spare, *shape[1:]), np.nan)
    got = density.uniform_noise(rng, buf[: shape[0]])
    want = ref.uniform(-1.0, 1.0, size=shape)
    assert np.shares_memory(got, buf) or got.size == 0
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.isnan(buf[shape[0] :]).all()
    assert rng.uniform() == ref.uniform()


@settings(max_examples=200)
@given(st.integers(64, 2**52) | st.sampled_from([2**k for k in range(6, 53)]))
def test_counted_states_bin_inside_the_grid_without_a_clamp(L):
    # mc_density's states lie in [EPS, 1 - EPS], and it bins x at
    # int(x * L) with no clamp: (1 - EPS) * L rounds below L, since
    # EPS = 1e-15 > 2^-53.  The end states fall in the end bins while
    # L * EPS < 1 (L <= 2^49)
    lo, hi = int(_maps.EPS * L), int((1.0 - _maps.EPS) * L)
    assert 0 <= lo <= hi <= L - 1
    if L <= 2**49:
        assert (lo, hi) == (0, L - 1)


def noisy_chain(m, noise, x, sigma):
    """mc_density's chain stepped alone on Python floats from x, one state
    per noise value: x <- M(x) + sigma * u, reflected at 0 and 1, clamped."""
    states = []
    for u in noise.tolist():
        y = abs(m.raw_eval(x) + sigma * u)
        y = 1.0 - abs(1.0 - y)
        x = min(max(y, _maps.EPS), 1.0 - _maps.EPS)
        states.append(x)
    return states


def serial_lane_counts(m, L, lanes, *, seed, K, burn_in, grid_factor):
    """Per-bin visits of mc_density's chains, each run alone by noisy_chain
    over its own column of the noise, from the lead chain's state burn_in + k
    for lane k."""
    sigma = 1.0 / (grid_factor * L)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]))
    x0 = rng.uniform()
    starts = noisy_chain(m, rng.uniform(-1.0, 1.0, size=burn_in + lanes - 1), x0, sigma)[burn_in - 1 :]
    counted_steps = -(-K // lanes)
    noise = rng.uniform(-1.0, 1.0, size=(counted_steps, lanes))
    last = K - (counted_steps - 1) * lanes  # lanes that take the last counted step
    counts = np.zeros(L, dtype=np.int64)
    for b in range(lanes):
        for x in noisy_chain(m, noise[:, b], starts[b], sigma)[: counted_steps - (b >= last)]:
            counts[min(math.floor(x * L), L - 1)] += 1
    return counts


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mc_lanes_match_serial_chains(data):
    # one lane, a few, and more lanes than visits (K < lanes); blocks of
    # NOISE_BLOCK values hold 1 to 41 whole rows, so they split the counted
    # rows anywhere, and the lead chain's burn-in too
    m = _maps.BUILTIN_MAPS[data.draw(st.sampled_from(sorted(_maps.BUILTIN_MAPS)))]()
    kw = dict(
        seed=data.draw(st.integers(0, 2**32)),
        burn_in=data.draw(st.integers(1_000, 1_100)),
        K=data.draw(st.integers(6_400, 7_000)),
        grid_factor=data.draw(st.integers(1, 8)),
    )
    lanes = data.draw(st.one_of(st.just(1), st.integers(2, 9), st.integers(6_401, 7_100)))
    block = data.draw(st.integers(1, 41 * lanes))
    with mock.patch.object(density, "LANES", lanes), mock.patch.object(density, "NOISE_BLOCK", block):
        h = mc_density(m, 64, **kw)
    assert h.meta["lanes"] == lanes
    assert np.array_equal(visit_counts(h), serial_lane_counts(m, 64, lanes, **kw))


@pytest.mark.parametrize("block", [7, 333, 1000])
def test_mc_burn_in_across_chunk_boundaries(cubic, block):
    # blocks of `block` noise values: the lead chain's 999 steps before the
    # first lane start end inside a block (7, 1000) and on a block boundary
    # (333), and the counted rows come 1 or 3 to a block; K = 7001 is no
    # multiple of the lane count, and with 10^4 lanes the run has fewer
    # visits than lanes
    kw = dict(seed=5, K=7_001, burn_in=1_000, grid_factor=2)
    for lanes in (256, 10_000):
        with mock.patch.object(density, "LANES", lanes):
            with mock.patch.object(density, "NOISE_BLOCK", 1 << 20):
                one_block = mc_density(cubic, 64, **kw)
            with mock.patch.object(density, "NOISE_BLOCK", block):
                blocked = mc_density(cubic, 64, **kw)
        assert np.array_equal(blocked.weights, one_block.weights)
        assert visit_counts(blocked).sum() == kw["K"]


def test_mc_matches_fp_within_sampling_bound():
    # with independent visits, bin i's visit share has variance p_i / K, so
    # its distance to p_i has mean sqrt(2/pi) sqrt(p_i / K) and variance
    # (1 - 2/pi) p_i / K; summed over the bins, L1(mc, fp) has mean
    # sqrt(2 / (pi K)) * sum sqrt(p_i) and sd sqrt((1 - 2/pi) / K).  The
    # ratio of L1 to that mean read 0.98-1.15 over seeds 0-5 on all four
    # maps; the bound allows 1.44 times the independent visit variance (1.2
    # times the mean) plus 4 sd
    L, K = 4096, 4_000_000
    for name, make in sorted(_maps.BUILTIN_MAPS.items()):
        m = make()
        fp = fp_fixed_point(m, L)
        p = fp.weights / L
        mean = math.sqrt(2.0 / (math.pi * K)) * np.sqrt(p).sum()
        sd = math.sqrt((1.0 - 2.0 / math.pi) / K)
        d = l1_distance(mc_density(m, L, seed=0, K=K), fp)
        assert d < 1.2 * mean + 4.0 * sd, (name, d, mean)


#: tracemalloc peak of one verify-size mc_density (L 4096, K 4e6): 362 312
#: bytes on every built-in map, while a block is binned.  Alive then are the
#: 16384-state float64 block and its int64 bins (128 KiB each), bincount's
#: result, the counts and the lanes' states (32 KiB each).  The bound leaves
#: 38 KB of margin, about one more lane row; a second block-sized array, or
#: a map table of the 65 537-point grid that sigma spans (524 KB), would
#: exceed it
MC_PEAK = 400_000


@pytest.mark.parametrize("burn_in", [DEFAULT_BURN_IN, 20 * DEFAULT_BURN_IN])
def test_mc_memory_is_flat_at_verify_sizes(cubic, burn_in):
    # the lead chain steps its burn-in a block at a time, so a longer one costs no memory
    mc_density(cubic, 4096, seed=0, K=409_600, burn_in=1_000)  # warm numpy's caches
    tracemalloc.start()
    try:
        mc_density(cubic, 4096, seed=0, burn_in=burn_in)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MC_PEAK, peak


@pytest.mark.parametrize("start", [0.3, 0.9, None])
@pytest.mark.parametrize("length", [1, 2, 63, 64, 65, 66, 129, 1_000])
def test_generate_bits_matches_reference_loop(cubic, branch_part, length, start):
    # chunked noise and states against one uniform(size=length) draw, the
    # reference loop and the L-sized bit table; the length - 1 noise values
    # sit on and around multiples of the patched chunk
    L = 4096
    with mock.patch.object(density, "NOISE_BLOCK", 64):
        bits = generate_bits(cubic, branch_part, length, seed=3, L=L, start=start)
    rng = np.random.Generator(np.random.PCG64(3))
    j0 = round(start * L) if start is not None else int(rng.integers(1, L + 1))
    noise = rng.uniform(-1.0, 1.0, size=length)
    states = np.concatenate(([j0], reference_chain(scaled_map_table(cubic, L), noise[:-1], j0, L)))
    assert np.array_equal(bits, one_shot_bit_table(branch_part, L)[states])


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stream_lanes_match_serial_chains(data):
    # each column of the lane sampler is a chain_states run over its own noise
    # column from its lead-chain start; blocks of NOISE_BLOCK values end inside
    # and at the end of the lead chain's burn-in and split the rows anywhere
    m = _maps.BUILTIN_MAPS[data.draw(st.sampled_from(sorted(_maps.BUILTIN_MAPS)))]()
    s = SymbolPartition.from_pairs([(0.0, data.draw(st.floats(0.2, 0.8)))])
    seed = data.draw(st.integers(0, 2**32))
    L = data.draw(st.sampled_from([64, 1000, 1 << 24, 1 << 53]))
    lanes, rows = data.draw(st.integers(2, 9)), data.draw(st.integers(1, 200))
    with mock.patch.object(density, "NOISE_BLOCK", data.draw(st.integers(1, 70 * lanes))):
        block = generate_bits(m, s, rows, seed=seed, L=L, lanes=lanes)
    assert block.shape == (rows, lanes) and block.dtype == np.uint8
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(2)[1]))
    starts = lead_chain_starts(m, L, lanes, bitstream._LANE_BURN_IN, rng)
    noise = rng.uniform(-1.0, 1.0, size=(rows, lanes))
    for b in range(lanes):
        states = chain_states(m, noise[:, b], int(starts[b]), L)
        assert block[:, b].tolist() == s.symbol_of(states / L).tolist(), b


def test_lanes_evaluate_the_top_state_below_one():
    # at state L the lanes evaluate the map at x = 1 - EPS, not at 1, as
    # chain_states does.  On a grid of 2^53 points L * |M(1) - M(1 - EPS)|
    # spans several cells on every built-in map; the lead chain is patched
    # so that every lane starts at L, and a cut halfway between the two
    # next states gives the first row's bits of the evaluation below one
    L, lanes, rows = 1 << 53, 5, 3

    def lead_at_top(m, j, L, n, rng):
        yield np.full(n, L, dtype=np.int64)

    for name, make in sorted(_maps.BUILTIN_MAPS.items()):
        m = make()
        at_one, below = (min(max(m.raw_eval(x), _maps.EPS), 1.0 - _maps.EPS) for x in (1.0, 1.0 - _maps.EPS))
        assert L * abs(at_one - below) > 4, name
        s = SymbolPartition.from_pairs([(0.0, (at_one + below) / 2)])
        with mock.patch.object(bitstream, "_chain_chunks", lead_at_top):
            block = generate_bits(m, s, rows, seed=6, L=L, lanes=lanes)
        assert block[0].tolist() == [s.symbol_of(below)] * lanes != [s.symbol_of(at_one)] * lanes, name


def test_stream_lanes_reject_what_they_do_not_model(cubic, branch_part):
    for kw in (dict(lanes=0), dict(lanes=4, dither=False), dict(lanes=4, start=0.3), dict(lanes=4, L=32)):
        with pytest.raises(ValueError):
            generate_bits(cubic, branch_part, 10, seed=0, **kw)


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


def test_solve_grid_follows_branch_linearity(cubic, tent, bernoulli, logistic):
    pl = _maps.piecewise_linear_map([0.0, 0.3, 1.0], [0.0, 1.0, 0.0])
    poly = _maps.polynomial_map([0.0, 4.0, -4.0], [0.5])
    grids = {m.name: solve_grid(m) for m in (cubic, tent, bernoulli, logistic, pl, poly)}
    assert grids == {"cubic_sample": "arcsine", "tent": "uniform", "bernoulli": "uniform",
                     "logistic": "arcsine", "piecewise_linear": "uniform", "polynomial": "arcsine"}
    # a map whose inverses are wrapped keeps its grid
    for m in (cubic, tent):
        wrapped = dataclasses.replace(
            m, branches=tuple(dataclasses.replace(b, inverse=lambda y, g=b.inverse: g(y)) for b in m.branches)
        )
        assert solve_grid(wrapped) == solve_grid(m)


@settings(max_examples=60, deadline=None)
@given(L=st.sampled_from([64, 1000, 4096]), x=st.floats(0.0, 1.0))
def test_fp_logistic_cumulative_is_arcsine_law(logistic, L, x):
    # the logistic density is uniform in theta = (2/pi) arcsin(sqrt(x)), which
    # the arcsine grid holds exactly: the first step is already the fixed point
    f = fp_fixed_point(logistic, L, tol=1e-11)
    assert f.grid == "arcsine" and f.meta["iterations"] == 1
    assert abs(float(f.cumulative(x)) - (2.0 / np.pi) * np.arcsin(np.sqrt(x))) < 1e-12


@pytest.fixture(scope="module")
def cubic_curves(cubic, branch_part):
    """L -> (operator density, h_1..h_14) of the cubic map at L = 1024 and 16384."""
    out = {}
    for L in (1024, 16384):
        f = fp_fixed_point(cubic, L, tol=1e-11)
        out[L] = f, run_analysis(cubic, branch_part, depth=14, density=f).report.h
    return out


def test_fp_cubic_entropies_independent_of_L(cubic_curves):
    # on uniform bins h_1 drifts from 0.98843 (L=1024) to 0.98597 (L=16384)
    (_, coarse), (_, fine) = cubic_curves[1024], cubic_curves[16384]
    assert np.abs(np.array(coarse) - np.array(fine)).max() < 1e-5


def test_fp_cubic_lyapunov_matches_entropy_rate(cubic_curves):
    # Rokhlin's formula: on a generating partition (the split at the critical
    # point) lim h_N = integral of ln|M'| d(mu) / ln 2.  Midpoint rule on 2^18
    # cells uniform in theta, their masses read off the cumulative.
    f, h = cubic_curves[16384]
    t = np.arange((1 << 18) + 1) / (1 << 18)
    edges = np.sin(0.5 * np.pi * t) ** 2
    mids = np.sin(0.25 * np.pi * (t[:-1] + t[1:])) ** 2
    slope = 1.5 * math.sqrt(3.0) * (1.0 - 3.0 * mids**2)
    lyapunov = np.dot(np.diff(f.cumulative(edges)), np.log(np.abs(slope))) / math.log(2.0)
    assert abs(lyapunov - h[-1]) < 1e-4


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


@pytest.mark.parametrize("method", ["montecarlo", "fp_operator"])
def test_density_for_grid_factor(tent, method):
    # only None takes the method's default grid factor; 0 is rejected, not read as unset
    kw = dict(K=6_400, burn_in=1_000)
    with pytest.raises(ValueError, match="grid_factor"):
        density_for(tent, method, 64, grid_factor=0, **kw)
    f = density_for(tent, method, 64, **kw)
    if method == "montecarlo":
        assert np.array_equal(f.weights, mc_density(tent, 64, seed=0, grid_factor=MC_GRID_FACTOR, **kw).weights)
    else:
        assert f.meta["grid_factor"] == 1


def test_routes_agree_on_cubic(cubic):
    fp = fp_fixed_point(cubic, 512, tol=1e-11, max_iter=20000, grid_factor=8)
    mc = mc_density(cubic, 512, seed=11, K=8_000_000, grid_factor=512)
    assert l1_distance(mc, fp) < 0.05
