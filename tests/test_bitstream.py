"""Bit generation, pattern counting, extraction, and stream files."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import chaosrng as cr
from chaosrng import bitstream
from chaosrng.bitstream import (
    InsufficientDataError,
    empirical_pattern_probs,
    generate_bits,
    monobit_frequency,
    read_stream,
    read_stream_ascii,
    total_variation,
    von_neumann_extract,
    write_stream,
    write_stream_ascii,
)
from chaosrng.density import scaled_map_table
from chaosrng.maps import EPS

bit_arrays = st.lists(st.integers(0, 1), min_size=1, max_size=200).map(
    lambda v: np.array(v, dtype=np.uint8)
)


def test_config_validation(cubic, branch_part):
    with pytest.raises(ValueError):
        generate_bits(cubic, branch_part, 0, seed=0)
    with pytest.raises(ValueError):
        generate_bits(cubic, branch_part, 10, seed=0, L=8)
    assert generate_bits(cubic, branch_part, 10, seed=0, L=2**53).size == 10
    with pytest.raises(ValueError, match="2\\^53"):
        generate_bits(cubic, branch_part, 10, seed=0, L=2**53 + 1)
    with pytest.raises(ValueError):
        generate_bits(cubic, branch_part, 10, seed=0, start=1.5)


def test_generation_deterministic(cubic, branch_part):
    a = generate_bits(cubic, branch_part, 5_000, seed=9)
    b = generate_bits(cubic, branch_part, 5_000, seed=9)
    assert np.array_equal(a, b)
    c = generate_bits(cubic, branch_part, 5_000, seed=10)
    assert not np.array_equal(a, c)
    assert set(np.unique(a)) <= {0, 1}


def test_fixed_start_reproducible(cubic, branch_part):
    a = generate_bits(cubic, branch_part, 1_000, seed=0, start=0.3)
    # a different seed changes the dither noise but not the start state
    b = generate_bits(cubic, branch_part, 1_000, seed=99, start=0.3)
    assert a[0] == b[0] == branch_part.symbol_of(0.3)
    # dither off: the whole trajectory is fixed by the start point
    c = generate_bits(cubic, branch_part, 200, seed=0, start=0.3, dither=False)
    d = generate_bits(cubic, branch_part, 200, seed=99, start=0.3, dither=False)
    assert np.array_equal(c, d)


def test_raw_float_iteration_is_degenerate(tent, sym_part):
    # finite precision drains one bit per tent step: the raw trajectory
    # collapses toward the fixed region and the stream goes heavily to zero
    bits = generate_bits(tent, sym_part, 10_000, seed=4, dither=False)
    assert monobit_frequency(bits) < 0.2
    dithered = generate_bits(tent, sym_part, 10_000, seed=4)
    assert abs(monobit_frequency(dithered) - 0.5) < 0.02


def test_raw_iteration_matches_step_loop(cubic):
    # the raw path classifies all states at once; step by step is the reference
    s = cr.SymbolPartition.from_pairs([(0.1, 0.3), (0.5, 0.77)])
    bits = generate_bits(cubic, s, 2_000, seed=0, dither=False, start=0.3)
    x, want = 0.3, []
    for _ in range(2_000):
        want.append(s.symbol_of(x))
        x = cr.eval_map(cubic, x)
    assert bits.tolist() == want


def test_empirical_pattern_probs_exact():
    bits = np.tile([0, 1, 0, 1, 0], 50)  # 250 bits, 3/5 zeros
    t = empirical_pattern_probs(bits, 1)
    assert t.probs["0"] == pytest.approx(0.6)
    with pytest.raises(InsufficientDataError):
        empirical_pattern_probs(bits, 2)
    long = np.tile([0, 1], 300)
    t2 = empirical_pattern_probs(long, 2)
    # sliding windows of ...010101...: only 01 and 10 appear
    assert t2.probs["00"] == 0.0
    assert t2.probs["11"] == 0.0
    assert t2.probs["01"] + t2.probs["10"] == pytest.approx(1.0)


def int64_pattern_counts(bits, N):
    """Window counts with the stream widened to int64: the reference route."""
    bits = np.asarray(bits, dtype=np.int64)
    n_windows = len(bits) - N + 1
    acc = np.zeros(n_windows, dtype=np.int64)
    for k in range(N):
        acc = (acc << 1) | bits[k : k + n_windows]
    return np.bincount(acc, minlength=2**N)


@pytest.mark.parametrize("N", range(1, 13))
def test_empirical_pattern_probs_match_int64_route(N):
    rng = np.random.default_rng(N)
    # a biased stream at exactly the 100 * 2^N floor, a longer one, and one
    # whose windows fill two or more whole slices of _COUNT_SLICE; from N = 10
    # on the first two also cross a slice boundary and end in a part slice
    whole = bitstream._COUNT_SLICE * (100 * 2**N // bitstream._COUNT_SLICE + 2) + N - 1
    for n_bits in (100 * 2**N, 100 * 2**N + 777, whole):
        bits = (rng.random(n_bits) < 0.3).astype(np.uint8)
        t = empirical_pattern_probs(bits, N)
        counts = int64_pattern_counts(bits, N)
        assert t.meta == {"n_bits": n_bits, "windows": n_bits - N + 1}
        # t.p is indexed by word code; t.probs would rebuild a 2^N dict per lookup
        assert t.p.tolist() == (counts / (n_bits - N + 1)).tolist()


@pytest.mark.parametrize("L", [2**20, 2**40])
def test_generate_bits_memory_independent_of_grid(cubic, sym_part, L):
    # no L-sized array: noise, states and bits go by chunk beside the output
    generate_bits(cubic, sym_part, 1_000, seed=0, L=64)  # warm imports
    tracemalloc.start()
    try:
        generate_bits(cubic, sym_part, 300_000, seed=0, L=L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 300_000 + 2 * 2**20


def map_table_entry(m, j, L):
    """L * M(j/L) by the array path, in the steps of scaled_map_table."""
    x = np.array([j]) / L if j < L else np.array([1.0 - EPS])
    return float(np.clip(m.raw_eval(x), EPS, 1.0 - EPS)[0] * L)


def test_stream_on_a_grid_too_fine_for_a_table(cubic, branch_part):
    # the 2^34 + 1 entries of the map table would take 137 GB
    L, length = 2**34, 10_000
    for small in (1000, 4096):  # the entries are the table's where it fits
        assert [map_table_entry(cubic, j, small) for j in range(small + 1)][1:] == scaled_map_table(cubic, small)[1:].tolist()
    bits = generate_bits(cubic, branch_part, length, seed=5, L=L)
    rng = np.random.Generator(np.random.PCG64(5))
    j = int(rng.integers(1, L + 1))
    want = [branch_part.symbol_of(j / L)]
    for u in rng.uniform(-1.0, 1.0, size=length)[:-1]:
        v = math.floor(map_table_entry(cubic, j, L) + u)
        j = 1 if v < 1 else (L if v > L else v)
        want.append(branch_part.symbol_of(j / L))
    assert bits.tolist() == want


def test_bernoulli_stream_is_fair(bernoulli, sym_part):
    bits = generate_bits(bernoulli, sym_part, 500_000, seed=21)
    assert abs(monobit_frequency(bits) - 0.5) < 0.002
    t = empirical_pattern_probs(bits, 3)
    for w, v in t.probs.items():
        assert v == pytest.approx(0.125, abs=0.005), w


def test_total_variation():
    a = empirical_pattern_probs(np.tile([0, 1], 300), 1)
    b = empirical_pattern_probs(np.tile([0, 0, 0, 1], 150), 1)
    assert total_variation(a, b) == pytest.approx(0.25, abs=1e-3)
    with pytest.raises(ValueError):
        total_variation(a, empirical_pattern_probs(np.tile([0, 1], 300), 2))


def test_von_neumann_known_pairs():
    bits = np.array([0, 1, 1, 0, 0, 0, 1, 1, 1, 0], dtype=np.uint8)
    out = von_neumann_extract(bits)
    assert out.tolist() == [0, 1, 1]


@given(bit_arrays)
def test_von_neumann_properties(bits):
    out = von_neumann_extract(bits)
    assert out.size <= bits.size // 2
    # recompute by hand
    expect = [int(a) for a, b in zip(bits[0::2], bits[1::2]) if a != b]
    assert out.tolist() == expect


def test_von_neumann_debiases(cubic, branch_part):
    bits = generate_bits(cubic, branch_part, 400_000, seed=3)
    assert abs(monobit_frequency(bits) - 0.43) < 0.01  # raw stream is biased
    out = von_neumann_extract(bits)
    assert abs(monobit_frequency(out) - 0.5) < 0.005


@given(bit_arrays)
def test_binary_roundtrip(tmp_path_factory, bits):
    path = tmp_path_factory.mktemp("s") / "x.bits"
    write_stream(path, bits)
    back = read_stream(path)
    assert np.array_equal(back, bits)
    assert path.read_bytes()[:4] == b"CRBS"


@given(bit_arrays)
def test_ascii_roundtrip(tmp_path_factory, bits):
    path = tmp_path_factory.mktemp("s") / "x.txt"
    write_stream_ascii(path, bits)
    assert np.array_equal(read_stream_ascii(path), bits)


def test_read_stream_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bits"
    p.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ValueError):
        read_stream(p)
