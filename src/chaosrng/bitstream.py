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

import struct
from pathlib import Path

import numpy as np

from .density import RNG_ALGORITHM, chain_states
from .entropy import ProbabilityTable
from .maps import EPS, MapModel
from .partition import SymbolPartition

DEFAULT_STREAM_L = 1 << 20
#: largest dither grid: beyond 2^53 the grid states are no longer exact
#: doubles and the +-1-cell dither falls below float resolution, so the
#: stream would degenerate like raw float iteration
MAX_STREAM_L = 1 << 53

#: noise values per draw in :func:`generate_bits`, and so the states per
#: :func:`density.chain_states` call: a stream's working set besides its
#: output bits, at any grid L.  A chunk's Python list and ints cost about 40
#: bytes a state, so 2^14 keeps it near 1 MB; chunks of 2^12 to 2^16 stepped
#: a 2e6-state chain equally fast, within noise
_CHAIN_CHUNK = 1 << 14

#: windows per slice in :func:`empirical_pattern_probs`
_COUNT_SLICE = 1 << 16

STREAM_MAGIC = b"CRBS"
STREAM_VERSION = 1


class InsufficientDataError(ValueError):
    """Stream too short for the requested pattern depth."""


def generate_bits(
    m: MapModel,
    s: SymbolPartition,
    length: int,
    *,
    seed: int,
    L: int = DEFAULT_STREAM_L,
    dither: bool = True,
    start: float | None = None,
) -> np.ndarray:
    """Binary sequence of `length` bits from iterating the map; uint8 array of 0/1.

    Dither on: the digitized grid recurrence (state stays on j/L), stepped
    by :func:`density.chain_states` on the map itself.  Besides the output it
    holds O(``_CHAIN_CHUNK``) memory at every grid L: the noise is drawn and
    the states classified one chunk at a time.
    Dither off: raw float iteration - deterministic, and demonstrably
    degenerate over long runs.  `start` is an explicit x_0 in (0, 1); None
    draws it from the seeded generator.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if dither and not 64 <= L <= MAX_STREAM_L:
        raise ValueError(f"dither grid L={L} out of range; need 64..2^53")
    if start is not None and not 0.0 < start < 1.0:
        raise ValueError(f"start must lie in (0,1), got {start}")
    rng = np.random.Generator(np.random.PCG64(seed))
    out = np.empty(length, dtype=np.uint8)
    if dither:
        if start is not None:
            j = max(1, min(L, round(start * L)))
        else:
            j = int(rng.integers(1, L + 1))
        out[0] = s.symbol_of(j / L)
        # the same doubles as one uniform(size=length - 1) draw; bit n is read
        # from state j_n
        for lo in range(0, length - 1, _CHAIN_CHUNK):
            noise = rng.uniform(-1.0, 1.0, size=min(_CHAIN_CHUNK, length - 1 - lo))
            states = chain_states(m, noise, j, L)
            out[lo + 1 : lo + 1 + len(states)] = s.symbol_of(states / L)
            j = int(states[-1])
        return out
    # x stays in [EPS, 1 - EPS], so raw_eval's scalar path plus the clamp of
    # eval_map is all a step needs
    f, lo, hi = m.raw_eval, EPS, 1.0 - EPS
    x = start if start is not None else float(rng.uniform(1e-6, 1.0 - 1e-6))
    xs = np.empty(length)
    for n in range(length):
        xs[n] = x
        y = f(x)
        x = lo if y < lo else hi if y > hi else y
    out[:] = s.symbol_of(xs)
    return out


def empirical_pattern_probs(bits: np.ndarray, N: int) -> ProbabilityTable:
    """Sliding-window N-bit word frequencies; the brute-force P_N oracle.

    Window codes are built in the narrowest unsigned type that holds N bits
    (uint8 up to N = 8, uint16 up to 16) and counted ``_COUNT_SLICE`` windows
    at a time, so that bincount's int64 copy of the codes stays small.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) < 100 * 2**N:
        raise InsufficientDataError(
            f"need at least {100 * 2 ** N} bits for depth {N}, got {len(bits)}"
        )
    n_windows = len(bits) - N + 1
    code_type = np.min_scalar_type(2**N - 1)
    counts = np.zeros(2**N, dtype=np.int64)
    for lo in range(0, n_windows, _COUNT_SLICE):
        # windows lo..hi-1 read bits lo..hi+N-2: slices overlap by N - 1 bits
        hi = min(lo + _COUNT_SLICE, n_windows)
        acc = bits[lo:hi].astype(code_type)
        for k in range(1, N):
            acc <<= 1
            acc |= bits[lo + k : hi + k]
        counts += np.bincount(acc, minlength=2**N)
    table = ProbabilityTable(depth=N, p=counts / n_windows, meta={"n_bits": len(bits), "windows": n_windows})
    table.validate()
    return table


def total_variation(a: ProbabilityTable, b: ProbabilityTable) -> float:
    if a.depth != b.depth:
        raise ValueError("tables have different depths")
    return 0.5 * float(np.abs(a.p - b.p).sum())


def monobit_frequency(bits: np.ndarray) -> float:
    """Fraction of ones."""
    return float(np.mean(bits))


def von_neumann_extract(bits: np.ndarray) -> np.ndarray:
    """Pairwise debiasing: 01 -> 0, 10 -> 1, 00/11 discarded."""
    bits = np.asarray(bits, dtype=np.uint8)
    pairs = bits[: 2 * (len(bits) // 2)].reshape(-1, 2)
    keep = pairs[:, 0] != pairs[:, 1]
    return pairs[keep, 0].copy()


# ---------------------------------------------------------------------------
# Stream files: 16-byte binary header (magic, version, bit count) or ASCII.


def write_stream(path: str | Path, bits: np.ndarray) -> None:
    bits = np.asarray(bits, dtype=np.uint8)
    header = STREAM_MAGIC + struct.pack("<HHQ", STREAM_VERSION, 0, len(bits))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.packbits(bits, bitorder="little").tobytes())


def read_stream(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != STREAM_MAGIC:
        raise ValueError("not a bit-stream file (bad magic)")
    version, _, n_bits = struct.unpack("<HHQ", raw[4:16])
    if version != STREAM_VERSION:
        raise ValueError(f"unsupported stream version {version}")
    return np.unpackbits(np.frombuffer(raw[16:], dtype=np.uint8), bitorder="little")[:n_bits]


def write_stream_ascii(path: str | Path, bits: np.ndarray) -> None:
    body = (np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes().decode()
    Path(path).write_text(f"# bitstream v{STREAM_VERSION} n={len(body)} rng={RNG_ALGORITHM}\n{body}\n")


def read_stream_ascii(path: str | Path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    body = lines[1] if lines and lines[0].startswith("#") else lines[0]
    return np.frombuffer(body.encode(), dtype=np.uint8) - ord("0")
