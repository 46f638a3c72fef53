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

import bisect
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import density as _density
from .density import RNG_ALGORITHM, chain_states, scaled_map_table
from .entropy import ProbabilityTable
from .maps import MapModel, eval_map
from .partition import SymbolPartition

DEFAULT_STREAM_L = 1 << 20

STREAM_MAGIC = b"CRBS"
STREAM_VERSION = 1


class InsufficientDataError(ValueError):
    """Stream too short for the requested pattern depth."""


@dataclass(frozen=True)
class BitstreamConfig:
    """How to run the generator: seeding, length, dither grid, start point."""

    seed: int
    length: int
    dither: bool = True
    L: int = DEFAULT_STREAM_L
    start: float | None = None  # explicit x_0; None = seeded-random

    def validate(self) -> None:
        if self.length < 1:
            raise ValueError("length must be at least 1")
        if self.dither and self.L < 64:
            raise ValueError(f"dither grid L={self.L} too small; need at least 64")
        if self.start is not None and not 0.0 < self.start < 1.0:
            raise ValueError(f"start must lie in (0,1), got {self.start}")


def _grid_cuts(s: SymbolPartition, L: int) -> np.ndarray:
    """S(0) on the grid j/L as integer cuts: state j has bit 0 iff an odd
    number of cuts is <= j (left-cell ties: j/L on a cut b of (a, b] is in it).

    Each S(0) interval (a, b] is the run of states first_above(a) <= j <
    first_above(b).  Chain states are 1..L; state 0 never occurs.
    """

    def first_above(t: float) -> int:
        # j/L is monotone in j and rounds exactly like numpy's float64 division
        return bisect.bisect_right(range(L + 1), t, key=lambda j: j / L)

    return np.array([first_above(t) for pair in s.s0 for t in pair], dtype=np.int64)


def _grid_bits(cuts: np.ndarray, states):
    """Bits of grid states (True for 1) from their :func:`_grid_cuts`."""
    return (np.searchsorted(cuts, states, side="right") & 1) == 0


def generate_bits(m: MapModel, s: SymbolPartition, cfg: BitstreamConfig) -> np.ndarray:
    """Binary sequence from iterating the map; uint8 array of 0/1.

    Dither on: the digitized grid recurrence (state stays on j/L).  Besides
    the (L+1)-point map table and the output, it holds O(``_CHAIN_CHUNK``)
    memory: the noise is drawn and the states classified one chunk at a time.
    Dither off: raw float iteration - deterministic, and demonstrably
    degenerate over long runs.
    """
    cfg.validate()
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    out = np.empty(cfg.length, dtype=np.uint8)
    if cfg.dither:
        L = cfg.L
        table = scaled_map_table(m, L)
        cuts = _grid_cuts(s, L)
        if cfg.start is not None:
            j = max(1, min(L, round(cfg.start * L)))
        else:
            j = int(rng.integers(1, L + 1))
        out[0] = _grid_bits(cuts, j)
        n = 1
        # the same doubles as one uniform(size=length) draw; bit n is read from
        # state j_n, so the last value is drawn but unused
        for lo in range(0, cfg.length, _density._CHAIN_CHUNK):
            noise = rng.uniform(-1.0, 1.0, size=min(_density._CHAIN_CHUNK, cfg.length - lo))
            if lo + len(noise) == cfg.length:
                noise = noise[:-1]
            for states in chain_states(table, noise, j, L):
                out[n : n + len(states)] = _grid_bits(cuts, states)
                n += len(states)
                j = int(states[-1])
        return out
    x = cfg.start if cfg.start is not None else float(rng.uniform(1e-6, 1.0 - 1e-6))
    for n in range(cfg.length):
        out[n] = s.symbol_of(x)
        x = eval_map(m, x)
    return out


def empirical_pattern_probs(bits: np.ndarray, N: int) -> ProbabilityTable:
    """Sliding-window N-bit word frequencies; the brute-force P_N oracle.

    Window codes are built in the narrowest unsigned type that holds N bits
    (uint8 up to N = 8, uint16 up to 16).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) < 100 * 2**N:
        raise InsufficientDataError(
            f"need at least {100 * 2 ** N} bits for depth {N}, got {len(bits)}"
        )
    n_windows = len(bits) - N + 1
    acc = bits[:n_windows].astype(np.min_scalar_type(2**N - 1))
    for k in range(1, N):
        acc <<= 1
        acc |= bits[k : k + n_windows]
    counts = np.bincount(acc, minlength=2**N)
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
    body = "".join("1" if b else "0" for b in np.asarray(bits))
    Path(path).write_text(f"# bitstream v{STREAM_VERSION} n={len(body)} rng={RNG_ALGORITHM}\n{body}\n")


def read_stream_ascii(path: str | Path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    body = lines[1] if lines and lines[0].startswith("#") else lines[0]
    return np.frombuffer(body.encode(), dtype=np.uint8) - ord("0")
