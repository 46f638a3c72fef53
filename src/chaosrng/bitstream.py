"""Bit generation by map iteration, pattern counting, and Von Neumann extraction.

The generator is the empirical side of the analysis: it actually runs the
map and emits one bit per step from the partition membership of the state.
Sliding-window pattern frequencies over a long stream are the brute-force
oracle for the block probabilities computed from the density.

Dithered (grid) iteration is the default; raw floating-point iteration is
kept as a negative control because finite precision collapses it onto
periodic orbits.
"""
from __future__ import annotations

import math
import os
import re
import struct
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import density as _density
from .density import RNG_ALGORITHM
from .entropy import ProbabilityTable
from .maps import EPS, ArgumentError, MapModel
from .partition import SymbolPartition

DEFAULT_STREAM_L = 1 << 20
#: largest dither grid: beyond 2^53 the grid states are no longer exact
#: doubles and the +-1-cell dither falls below float resolution, so the
#: stream would degenerate like raw float iteration
MAX_STREAM_L = 1 << 53

#: steps of the lane sampler's lead chain (:func:`generate_bits` with
#: ``lanes`` > 1) before the first lane's start
_LANE_BURN_IN = 64

#: windows per slice in :meth:`PatternCounter.update`
_COUNT_SLICE = 1 << 16

STREAM_MAGIC = b"CRBS"
STREAM_VERSION = 1


class InsufficientDataError(ValueError):
    """Stream too short for the requested pattern depth."""


def chain_states(m: MapModel, noise, j0: int, L: int) -> np.ndarray:
    """Run the dithered grid chain j <- clip(floor(L * M(j/L) + u), 1, L).

    Starts at state j0 in 1..L and returns the visited states j_1..j_n (one
    per noise value, j0 excluded) as one int64 array.  Each step evaluates
    the map once, on a Python float (``MapModel.raw_eval``'s scalar path):
    x = j/L (1 - EPS at j = L), M(x) clamped into [EPS, 1 - EPS], then
    scaled by L.  So the chain equals one stepped through a table of those
    values, and holds no L-sized array.
    """
    if not 1 <= j0 <= L:
        raise ValueError(f"start state j0={j0} must lie in 1..{L}")
    f = m.raw_eval
    nz = memoryview(np.ascontiguousarray(noise, dtype=np.float64))
    floor = math.floor
    lo, hi = EPS, 1.0 - EPS
    # int / int and float * float are CPython's fast paths for j/L and L*y;
    # for L < 2^53 float(L) is exact, so the products are the table's
    Lf = float(L)
    j = int(j0)
    states = []
    append = states.append
    for u in nz:
        y = f(j / L if j < L else hi)
        v = floor(Lf * (lo if y < lo else hi if y > hi else y) + u)
        j = 1 if v < 1 else (L if v > L else v)
        append(j)
    return np.array(states, dtype=np.int64)


def _chain_chunks(m: MapModel, j: int, L: int, n: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The states j_1..j_n of the grid chain from state j, in chunks.

    Each chunk is one :func:`chain_states` run over a draw of at most
    ``density.NOISE_BLOCK`` noise values of `rng`, from the last state of
    the chunk before.  So the chunks, joined, are one run over one
    uniform(size=n) draw, and `rng` ends where that draw leaves it.
    """
    block = _density.NOISE_BLOCK
    for lo in range(0, n, block):
        # a buffer per chunk: none is held while the caller reads a chunk
        states = chain_states(m, _density.uniform_noise(rng, np.empty(min(block, n - lo))), j, L)
        yield states
        j = int(states[-1])


def bit_chunks(
    m: MapModel,
    s: SymbolPartition,
    length: int,
    *,
    seed: int,
    L: int = DEFAULT_STREAM_L,
    dither: bool = True,
    start: float | None = None,
) -> Iterator[np.ndarray]:
    """The stream of :func:`generate_bits`, in order, as uint8 chunks of 0/1.

    Chunks hold at most ``density.NOISE_BLOCK`` bits, the states of one
    chunk of :func:`_chain_chunks`, so a consumer of them holds O(chunk)
    memory at every length and grid L.  The arguments are checked on the
    call, before the first chunk is asked for.
    """
    check_stream(length, L, dither, start)
    rng = np.random.Generator(np.random.PCG64(seed))
    if dither:
        return _dithered_chunks(m, s, length, rng, L, start)
    return _raw_chunks(m, s, length, rng, start)


def check_stream(length, L, dither, start) -> None:
    if length < 1:
        raise ArgumentError("length", f"must be positive, got {length!r}")
    if dither and not 64 <= L <= MAX_STREAM_L:
        raise ArgumentError("stream_grid", f"need 64..2^53 for a dithered stream, got {L!r}")
    if start is not None and not 0.0 < start < 1.0:
        raise ArgumentError("start", f"must lie in (0, 1), got {start!r}")


def _dithered_chunks(m, s, length, rng, L, start):
    if start is not None:
        j = max(1, min(L, round(start * L)))
    else:
        j = int(rng.integers(1, L + 1))
    yield np.array([s.symbol_of(j / L)], dtype=np.uint8)
    # bit n is read from state j_n
    for states in _chain_chunks(m, j, L, length - 1, rng):
        yield s.symbol_of(states / L).astype(np.uint8)


def _raw_chunks(m, s, length, rng, start):
    # x stays in [EPS, 1 - EPS], so raw_eval's scalar path plus the clamp of
    # MapModel.__call__ is all a step needs
    f, lo, hi = m.raw_eval, EPS, 1.0 - EPS
    x = start if start is not None else float(rng.uniform(1e-6, 1.0 - 1e-6))
    chunk = _density.NOISE_BLOCK
    for n0 in range(0, length, chunk):
        xs = np.empty(min(chunk, length - n0))
        for n in range(xs.size):
            xs[n] = x
            y = f(x)
            x = lo if y < lo else hi if y > hi else y
        yield s.symbol_of(xs).astype(np.uint8)


def generate_bits(
    m: MapModel,
    s: SymbolPartition,
    length: int,
    *,
    seed: int,
    L: int = DEFAULT_STREAM_L,
    dither: bool = True,
    start: float | None = None,
    lanes: int = 1,
) -> np.ndarray:
    """Binary sequence of `length` bits from iterating the map; uint8 array of 0/1.

    Dither on: the digitized grid recurrence (state stays on j/L), stepped
    by :func:`chain_states` on the map itself.  Besides the output it holds
    O(``density.NOISE_BLOCK``) memory at every grid L: the noise is drawn
    and the states classified one chunk at a time (:func:`bit_chunks`).
    Dither off: raw float iteration - deterministic, and demonstrably
    degenerate over long runs.  `start` is an explicit x_0 in (0, 1); None
    draws it from the seeded generator.

    With ``lanes`` > 1 the result is a (length, lanes) block from as many
    dithered chains, one per column: samples of the generator's word law,
    not one physical stream.  See :func:`_lane_block`.
    """
    if lanes != 1:
        if lanes < 1 or not dither or start is not None:
            raise ValueError("the lane sampler needs lanes >= 1, dither on and no start")
        check_stream(length, L, dither, start)
        return _lane_block(m, s, length, seed, L, lanes)
    chunks = bit_chunks(m, s, length, seed=seed, L=L, dither=dither, start=start)
    out = np.empty(length, dtype=np.uint8)
    n = 0
    for chunk in chunks:
        out[n : n + chunk.size] = chunk
        n += chunk.size
    return out


def _lane_block(m, s, rows, seed, L, lanes):
    """`rows` bits down each of `lanes` dithered grid chains, as a uint8 block.

    The chains start at the states ``_LANE_BURN_IN`` .. ``_LANE_BURN_IN`` +
    lanes - 1 of one lead chain (:func:`_chain_chunks`) from a uniform grid
    state, so the lanes are independent given those starts, not from the
    start.  Bit r of a lane is read from its state r + 1 steps after its
    start.

    The generator draws the lead chain's start, then its noise, then the
    lanes' noise one block of ``density.NOISE_BLOCK`` values (whole rows, at
    least one) at a time.  Each block is stepped in place, row by row, into
    the states it leads to, and classified.  A step evaluates ``m.raw_eval``
    once on the array of all lanes with the float64 operations of
    :func:`chain_states`, so each chain equals a :func:`chain_states` run
    over its own column of the noise.
    """
    # spawn(2)[1]: apart from the draws of mc_density, which takes spawn(1)[0]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(2)[1]))
    lead = _chain_chunks(m, int(rng.integers(1, L + 1)), L, _LANE_BURN_IN + lanes - 1, rng)
    j = np.concatenate(list(lead))[_LANE_BURN_IN - 1 :]
    lo, hi = EPS, 1.0 - EPS
    block = max(_density.NOISE_BLOCK // lanes, 1)
    out = np.empty((rows, lanes), dtype=np.uint8)
    buf = np.empty((min(block, rows), lanes))
    x, y = np.empty(lanes), np.empty(lanes)
    for r0 in range(0, rows, block):
        states = _density.uniform_noise(rng, buf[: rows - r0])
        for u in states:
            # the map at j/L, and 1 - EPS at j = L (j <= L after the clamp),
            # clamped and scaled by L
            np.divide(j, L, out=x)
            np.copyto(x, hi, where=j >= L)
            np.maximum(m.raw_eval(x), lo, out=y)
            np.minimum(y, hi, out=y)
            y *= L
            u += y
            np.floor(u, out=u)
            np.maximum(u, 1, out=u)
            np.minimum(u, L, out=u)
            j = u
        # the last row starts the next block, whose noise overwrites `buf`
        j = states[-1].copy()
        states /= L
        out[r0 : r0 + len(states)] = s.symbol_of(states)
    return out


def _window_codes(bits: np.ndarray, N: int) -> np.ndarray:
    """Codes of the N-bit windows down each column of a (rows, lanes) block, a
    row per start, first bit most significant, in the narrowest unsigned type."""
    n = max(bits.shape[0] - N + 1, 0)
    acc = bits[:n].astype(np.min_scalar_type(2**N - 1))
    for k in range(1, N):
        acc <<= 1
        acc |= bits[k : n + k]
    return acc


class PatternCounter:
    """Sliding-window counts of the words of every depth 1..n_max over a
    stream fed in chunks; the brute-force P_N oracle.

    A chunk is a 1-D piece of one stream, or a (rows, lanes) block of as many
    streams side by side; windows run down each column, never across columns,
    and a 1-D stream is the one-lane case.  Only the n_max-bit windows are
    counted, and the last n_max - 1 rows carry over to the next chunk.  A
    shorter depth N reads the first N bits of every n_max-window, which
    misses only each lane's last n_max - N windows of depth N: they lie in
    the carried rows and are counted from them.
    """

    def __init__(self, n_max: int):
        if n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {n_max}")
        self.n_max = n_max
        self.n_bits = 0
        self._counts = np.zeros(2**n_max, dtype=np.int64)
        self._tail = None  # the carried rows; its width fixes the lane count

    def update(self, chunk) -> None:
        """Count the n_max-windows that end in `chunk`, about ``_COUNT_SLICE``
        at a time, so that bincount's int64 copy of their codes stays small."""
        chunk = np.asarray(chunk, dtype=np.uint8)
        block = chunk[:, None] if chunk.ndim == 1 else chunk
        if block.ndim != 2 or (self._tail is not None and block.shape[1] != self._tail.shape[1]):
            raise ValueError(f"need 1-D chunks, or 2-D blocks of one lane count; got shape {chunk.shape}")
        if self._tail is None:
            self._tail = np.zeros((0, block.shape[1]), dtype=np.uint8)
        bits = np.concatenate((self._tail, block)) if self._tail.size else block
        N = self.n_max
        n_windows = bits.shape[0] - N + 1  # per lane
        step = max(_COUNT_SLICE // bits.shape[1], 1)
        for lo in range(0, n_windows, step):
            # windows lo..hi-1 read rows lo..hi+N-2: slices overlap by N - 1 rows
            hi = min(lo + step, n_windows)
            self._counts += np.bincount(_window_codes(bits[lo : hi + N - 1], N).ravel(), minlength=2**N)
        # a copy, so that a whole stream passed as one chunk is not kept alive
        self._tail = bits[max(bits.shape[0] - (N - 1), 0) :].copy()
        self.n_bits += chunk.size

    def counts(self, N: int) -> np.ndarray:
        """Window counts at depth N, indexed by word code."""
        if not 1 <= N <= self.n_max:
            raise ValueError(f"depth {N} outside 1..{self.n_max}")
        c = self._counts.reshape(2**N, -1).sum(axis=1)
        if self._tail is not None:
            c += np.bincount(_window_codes(self._tail, N).ravel(), minlength=2**N)
        return c

    def table(self, N: int) -> ProbabilityTable:
        lanes = 1 if self._tail is None else self._tail.shape[1]
        n_windows = lanes * (self.n_bits // lanes - N + 1)
        if self.n_bits < 100 * 2**N or n_windows < 1:
            raise InsufficientDataError(
                f"need at least {100 * 2 ** N} bits, and {N} in each lane, for depth {N}; got {self.n_bits}"
            )
        table = ProbabilityTable(
            depth=N, p=self.counts(N) / n_windows, meta={"n_bits": self.n_bits, "windows": n_windows}
        )
        table.validate()
        return table


def empirical_pattern_probs(bits: np.ndarray, N: int) -> ProbabilityTable:
    """Sliding-window N-bit word frequencies of a whole stream, or of a
    (rows, lanes) block counted down each lane."""
    counter = PatternCounter(N)
    counter.update(bits)
    return counter.table(N)


def total_variation(a: ProbabilityTable, b: ProbabilityTable) -> float:
    if a.depth != b.depth:
        raise ValueError("tables have different depths")
    return 0.5 * float(np.abs(a.p - b.p).sum())


def monobit_frequency(bits: np.ndarray) -> float:
    """Fraction of ones."""
    return float(np.mean(bits))


class VonNeumannExtractor:
    """:func:`von_neumann_extract` over a stream fed in chunks: an odd last
    bit waits for its partner in the next chunk."""

    def __init__(self):
        self._odd = np.zeros(0, dtype=np.uint8)

    def update(self, chunk) -> np.ndarray:
        """The extracted bits of the pairs that `chunk` completes."""
        chunk = np.asarray(chunk, dtype=np.uint8)
        bits = np.concatenate((self._odd, chunk)) if self._odd.size else chunk
        n = bits.size - bits.size % 2
        self._odd = bits[n:].copy()
        return von_neumann_extract(bits[:n])


def von_neumann_extract(bits: np.ndarray) -> np.ndarray:
    """Pairwise debiasing: 01 -> 0, 10 -> 1, 00/11 discarded; an odd last bit is dropped.

    The pairs are read through two strided views, so the selection builds no
    index array.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.size - bits.size % 2
    first, second = bits[0:n:2], bits[1:n:2]
    return first[first != second]


# ---------------------------------------------------------------------------
# Stream files: 16-byte binary header (magic, version, bit count) or ASCII.
# The writers take the stream in chunks.  They write to `<name>.part` and
# rename it to `<name>` on a clean close, so a file under its own name always
# holds every bit its header counts.


def _binary_header(n_bits: int) -> bytes:
    return STREAM_MAGIC + struct.pack("<HHQ", STREAM_VERSION, 0, n_bits)


class _ChunkFile:
    """A stream file written through `<name>.part`: renamed on a clean close,
    deleted on an error."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._part = self.path.with_name(self.path.name + ".part")
        self._fh = open(self._part, "wb")
        self.n_bits = 0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._discard()

    def _discard(self) -> None:
        self._fh.close()
        self._part.unlink(missing_ok=True)

    def close(self) -> None:
        try:
            self._finish()
        except BaseException:
            self._discard()
            raise
        self._fh.close()
        os.replace(self._part, self.path)


class StreamWriter(_ChunkFile):
    """Binary stream file: bits packed 8 per byte, little bit order.

    The bits after the last whole byte carry over to the next chunk; the
    header's bit count is written on close.
    """

    def __init__(self, path: str | Path):
        super().__init__(path)
        self._fh.write(_binary_header(0))
        self._rest = np.zeros(0, dtype=np.uint8)

    def write(self, chunk) -> None:
        chunk = np.asarray(chunk, dtype=np.uint8)
        bits = np.concatenate((self._rest, chunk)) if self._rest.size else chunk
        whole = bits.size - bits.size % 8
        self._fh.write(np.packbits(bits[:whole], bitorder="little"))
        self._rest = bits[whole:].copy()
        self.n_bits += chunk.size

    def _finish(self) -> None:
        self._fh.write(np.packbits(self._rest, bitorder="little"))
        self._fh.seek(0)
        self._fh.write(_binary_header(self.n_bits))


class AsciiStreamWriter(_ChunkFile):
    """ASCII stream file: a header line that states the bit count `n_bits`,
    then one line of '0'/'1'.  Closing after any other number of bits raises
    ValueError and leaves no file."""

    def __init__(self, path: str | Path, n_bits: int):
        super().__init__(path)
        self.declared = n_bits
        self._fh.write(f"# bitstream v{STREAM_VERSION} n={n_bits} rng={RNG_ALGORITHM}\n".encode())

    def write(self, chunk) -> None:
        chunk = np.asarray(chunk, dtype=np.uint8)
        self._fh.write(chunk + ord("0"))
        self.n_bits += chunk.size

    def _finish(self) -> None:
        if self.n_bits != self.declared:
            raise ValueError(f"{self.path}: header states {self.declared} bits, {self.n_bits} written")
        self._fh.write(b"\n")


def write_stream(path: str | Path, bits: np.ndarray) -> None:
    with StreamWriter(path) as w:
        w.write(bits)


def read_stream(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != STREAM_MAGIC or len(raw) < 16:
        raise ValueError("not a bit-stream file (bad magic or short header)")
    version, _, n_bits = struct.unpack("<HHQ", raw[4:16])
    if version != STREAM_VERSION:
        raise ValueError(f"unsupported stream version {version}")
    if len(raw) - 16 != -(-n_bits // 8):
        raise ValueError(f"header states {n_bits} bits, but the payload holds {len(raw) - 16} bytes")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8, offset=16), count=n_bits, bitorder="little")


def write_stream_ascii(path: str | Path, bits: np.ndarray) -> None:
    bits = np.asarray(bits, dtype=np.uint8)
    with AsciiStreamWriter(path, bits.size) as w:
        w.write(bits)


def read_stream_ascii(path: str | Path) -> np.ndarray:
    """Bits of an ASCII stream file: its header line, then one line of '0'/'1'."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("no header line stating the bit count")
    header = lines.pop(0)
    if len(lines) != 1:
        raise ValueError(f"need one line of bits after the header, got {len(lines)}")
    body = np.frombuffer(lines[0].encode(), dtype=np.uint8) - ord("0")
    if np.any(body > 1):
        raise ValueError("the body holds characters other than '0' and '1'")
    declared = re.search(r"\sn=(\d+)(\s|$)", header)
    if declared is None or int(declared.group(1)) != body.size:
        raise ValueError(f"header {header!r} does not state the body's {body.size} bits")
    return body
