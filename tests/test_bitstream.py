"""Bit generation, pattern counting, extraction, and stream files."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import chaosrng as cr
from chaosrng import bitstream, density
from chaosrng.bitstream import (
    AsciiStreamWriter,
    InsufficientDataError,
    PatternCounter,
    StreamWriter,
    VonNeumannExtractor,
    bit_chunks,
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
from chaosrng.entropy import ProbabilityTable
from chaosrng.maps import EPS
from reference import scaled_map_table

bit_arrays = st.lists(st.integers(0, 1), min_size=1, max_size=200).map(
    lambda v: np.array(v, dtype=np.uint8)
)


@st.composite
def split_streams(draw, max_size=200):
    """A bit array and its pieces at random cut points; equal cuts give empty
    pieces, and most pieces are a few bits long."""
    bits = np.array(draw(st.lists(st.integers(0, 1), max_size=max_size)), dtype=np.uint8)
    cuts = sorted(draw(st.lists(st.integers(0, bits.size), max_size=20)))
    return bits, [bits[a:b] for a, b in zip([0, *cuts], [*cuts, bits.size])]


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
        x = cubic(x)
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
    n_windows = max(len(bits) - N + 1, 0)
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


@given(split_streams(max_size=600), st.integers(1, 8))
def test_pattern_counter_matches_int64_route_per_depth(stream, n_max):
    # every depth from one pass over the n_max windows, fed in arbitrary
    # chunks, equals that depth's own count over the whole array
    bits, chunks = stream
    counter = PatternCounter(n_max)
    for chunk in chunks:
        counter.update(chunk)
    assert counter.n_bits == bits.size
    for N in range(1, n_max + 1):
        counts = int64_pattern_counts(bits, N)
        assert counter.counts(N).tolist() == counts.tolist(), N
        if bits.size >= 100 * 2**N:
            assert counter.table(N).p.tolist() == (counts / (bits.size - N + 1)).tolist()
        else:
            with pytest.raises(InsufficientDataError):
                counter.table(N)


@st.composite
def split_blocks(draw):
    """A (rows, lanes) bit block and its pieces at random row cuts; equal
    cuts give empty pieces, and many pieces are a row or two long."""
    rows, lanes = draw(st.integers(0, 120)), draw(st.integers(1, 6))
    bits = np.array(draw(st.lists(st.integers(0, 1), min_size=rows * lanes, max_size=rows * lanes)), dtype=np.uint8)
    block = bits.reshape(rows, lanes)
    cuts = sorted(draw(st.lists(st.integers(0, rows), max_size=20)))
    return block, [block[a:b] for a, b in zip([0, *cuts], [*cuts, rows])]


@given(split_blocks(), st.integers(1, 6))
def test_pattern_counter_counts_down_each_lane(split, n_max):
    # windows run down each column and never across; the carried rows join
    # a lane's windows across pieces
    block, pieces = split
    counter = PatternCounter(n_max)
    for piece in pieces:
        counter.update(piece)
    assert counter.n_bits == block.size
    rows, lanes = block.shape
    for N in range(1, n_max + 1):
        counts = sum(int64_pattern_counts(block[:, b], N) for b in range(lanes))
        assert counter.counts(N).tolist() == counts.tolist(), N
        windows = lanes * (rows - N + 1)
        if block.size >= 100 * 2**N and windows >= 1:
            t = counter.table(N)
            assert t.meta == {"n_bits": block.size, "windows": windows}
            assert t.p.tolist() == (counts / windows).tolist()
        else:
            with pytest.raises(InsufficientDataError):
                counter.table(N)


@given(split_streams(max_size=600), st.integers(1, 8))
def test_one_column_blocks_count_as_the_stream(stream, n_max):
    bits, chunks = stream
    flat, column = PatternCounter(n_max), PatternCounter(n_max)
    for chunk in chunks:
        flat.update(chunk)
        column.update(chunk[:, None])
    for N in range(1, n_max + 1):
        assert column.counts(N).tolist() == flat.counts(N).tolist()


def test_pattern_counter_keeps_its_lane_count():
    counter = PatternCounter(2)
    counter.update(np.zeros((5, 3), dtype=np.uint8))
    for chunk in (np.zeros((5, 2), dtype=np.uint8), np.zeros(5, dtype=np.uint8), np.zeros((2, 2, 3), dtype=np.uint8)):
        with pytest.raises(ValueError):
            counter.update(chunk)


def test_pattern_counter_rejects_depths_it_did_not_count():
    counter = PatternCounter(3)
    for N in (0, 4):
        with pytest.raises(ValueError, match="outside 1..3"):
            counter.counts(N)
    with pytest.raises(ValueError):
        PatternCounter(0)


@given(split_streams())
def test_von_neumann_extractor_split_matches_whole(stream):
    bits, chunks = stream
    extractor = VonNeumannExtractor()
    pieces = [extractor.update(chunk) for chunk in chunks]
    assert all(p.dtype == np.uint8 for p in pieces)
    assert np.concatenate([np.zeros(0, np.uint8), *pieces]).tolist() == von_neumann_extract(bits).tolist()


@given(split_streams())
def test_stream_writers_split_match_whole(tmp_path_factory, stream):
    bits, chunks = stream
    d = tmp_path_factory.mktemp("s")
    write_stream(d / "whole.bits", bits)
    write_stream_ascii(d / "whole.txt", bits)
    with StreamWriter(d / "split.bits") as packed, AsciiStreamWriter(d / "split.txt", bits.size) as text:
        for chunk in chunks:
            packed.write(chunk)
            text.write(chunk)
    assert (d / "split.bits").read_bytes() == (d / "whole.bits").read_bytes()
    assert (d / "split.txt").read_bytes() == (d / "whole.txt").read_bytes()
    assert sorted(p.name for p in d.iterdir()) == ["split.bits", "split.txt", "whole.bits", "whole.txt"]


def test_stream_writers_leave_no_file_on_failure(tmp_path):
    with pytest.raises(RuntimeError):
        with StreamWriter(tmp_path / "x.bits") as w:
            w.write(np.ones(20, dtype=np.uint8))
            raise RuntimeError("interrupted")
    # an ASCII header states its bit count up front; a different count fails
    with pytest.raises(ValueError, match="header states 10 bits, 9 written"):
        with AsciiStreamWriter(tmp_path / "x.txt", 10) as w:
            w.write(np.ones(9, dtype=np.uint8))
    assert list(tmp_path.iterdir()) == []


def test_bit_chunks_are_the_stream_in_bounded_pieces(cubic, branch_part):
    length = 2 * density.NOISE_BLOCK + 5
    for dither in (True, False):
        chunks = list(bit_chunks(cubic, branch_part, length, seed=4, dither=dither))
        assert all(c.dtype == np.uint8 and 1 <= c.size <= density.NOISE_BLOCK for c in chunks)
        assert np.concatenate(chunks).tolist() == generate_bits(cubic, branch_part, length, seed=4, dither=dither).tolist()
    # arguments are checked on the call, before any chunk is drawn
    with pytest.raises(ValueError):
        bit_chunks(cubic, branch_part, 0, seed=0)


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


@given(D=st.integers(2, 5), data=st.data())
def test_total_variation_bounds_every_marginal(D, data):
    # verify compares the word laws at its deepest depth only: dropping the
    # last or the first bits of both laws never raises their TV
    weights = st.lists(st.floats(0.0, 1.0), min_size=2**D, max_size=2**D).filter(lambda w: sum(w) > 0)
    a, b = (ProbabilityTable(D, np.array(w) / sum(w)) for w in (data.draw(weights), data.draw(weights)))
    tv = total_variation(a, b)
    for n in range(1, D):
        last = total_variation(*(ProbabilityTable(n, t.p.reshape(2**n, -1).sum(axis=1)) for t in (a, b)))
        first = total_variation(*(ProbabilityTable(n, t.p.reshape(-1, 2**n).sum(axis=0)) for t in (a, b)))
        assert max(last, first) <= tv + 1e-12, (n, last, first, tv)


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


def test_read_stream_rejects_a_payload_that_disagrees_with_its_header(tmp_path):
    p = tmp_path / "x.bits"
    write_stream(p, np.ones(20, dtype=np.uint8))  # 16-byte header, 3 payload bytes
    raw = p.read_bytes()
    for bad in (raw[:-1], raw + b"\0", raw[:16], raw[:10]):
        p.write_bytes(bad)
        with pytest.raises(ValueError):
            read_stream(p)


def test_read_stream_ascii_rejects_a_body_that_disagrees_with_its_header(tmp_path):
    p = tmp_path / "x.txt"
    write_stream_ascii(p, np.array([0, 1, 1], dtype=np.uint8))
    text = p.read_text()
    assert read_stream_ascii(p).tolist() == [0, 1, 1]
    for bad in (
        text.replace("n=3", "n=4"),
        text.replace("011", "01"),
        text.replace("011", "012"),
        text + "1\n",
        "",
        text.partition("\n")[2],  # the body without its header line
    ):
        p.write_text(bad)
        with pytest.raises(ValueError):
            read_stream_ascii(p)
