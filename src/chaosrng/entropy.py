"""Block probabilities, bias, entropy sequences, and the rate budget.

Given a refined partition and an invariant density, each N-bit word gets
the probability mass of its cell.  From the word distributions come the
block entropies H_N, the per-bit (conditional) entropies h_N = H_N - H_{N-1},
their limit estimate h, and the post-processing rate budget R_d = h * R.
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .density import DensityHistogram
from .partition import RefinedPartition


MONOTONE_SLACK = 1e-6  # largest h_N increase EntropyReport.validate accepts silently


class TableError(ValueError):
    """Probability table malformed or at the wrong depth."""


class AccuracyError(RuntimeError):
    """A numerical guarantee (renormalization, resolution) was missed."""


@dataclass
class ProbabilityTable:
    """Probability of each N-bit word, indexed by word code (first bit most significant)."""

    depth: int
    p: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, dtype=np.float64)

    @property
    def probs(self) -> dict[str, float]:
        """Read-only view {word string: probability}, e.g. {'00': 0.25, ...}."""
        return {format(c, f"0{self.depth}b"): v for c, v in enumerate(self.p.tolist())}

    def validate(self) -> None:
        if self.p.shape != (2**self.depth,):
            raise TableError("table must cover the full 2^N index space")
        if np.any(self.p < 0):
            raise TableError("negative probability")
        if abs(self.p.sum() - 1.0) > 1e-8:
            raise TableError(f"probabilities sum to {self.p.sum()!r}, not 1")

    def marginalize(self) -> "ProbabilityTable":
        """Drop the last bit: P(w) = P(w0) + P(w1)."""
        if self.depth < 2:
            raise TableError("cannot marginalize a depth-1 table")
        return ProbabilityTable(depth=self.depth - 1, p=self.p[0::2] + self.p[1::2])


def block_probabilities(p: RefinedPartition, f: DensityHistogram) -> ProbabilityTable:
    """Integrate the density over every cell (the intervals with its code).

    The sum over all words must already be 1 to within 1e-6 (the cells tile
    the interval); the table is renormalized and the factor recorded.

    Warns when `f` is a Monte Carlo histogram and a cell is narrower than
    one of its L uniform bins: such a cell takes its mass from part of one
    noisy visit count.  An operator density does not warn; its word
    probabilities do not depend on L at that scale (the cubic's h_1..h_14
    agree at L = 1024 and 16384 to 1e-5).
    """
    if f.method == "montecarlo":
        narrow = p.min_cell_width()
        if narrow < 1.0 / f.L:
            warnings.warn(
                f"narrowest cell component ({narrow:.2e}) is below one density bin (1/{f.L}); "
                "word probabilities at this depth are resolution-limited",
                RuntimeWarning,
                stacklevel=2,
            )
    raw = np.bincount(p.codes, weights=np.diff(f.cumulative(p.cuts)), minlength=2**p.depth)
    total = float(raw.sum())
    if abs(total - 1.0) > 1e-6:
        raise AccuracyError(f"cell masses sum to {total!r}; renormalization factor out of tolerance")
    table = ProbabilityTable(
        depth=p.depth,
        p=raw / total,
        meta={"renormalization": 1.0 / total, "density_method": f.method},
    )
    table.validate()
    return table


def bias(t: ProbabilityTable) -> float:
    """|P(0) - 1/2| of the single-bit marginal."""
    if t.depth != 1:
        raise TableError(f"bias needs a depth-1 table, got depth {t.depth}")
    return abs(float(t.p[0]) - 0.5)


def block_entropy(t: ProbabilityTable) -> float:
    """Shannon entropy (bits) of the word distribution; 0*log(0) := 0."""
    vals = t.p[t.p > 0]
    return float(-(vals * np.log2(vals)).sum())


def per_bit_entropies(H) -> list[float]:
    """h_1 = H_1; h_k = H_k - H_{k-1}.  The h's telescope back to H_N."""
    H = list(H)
    if not H:
        raise ValueError("need at least one block entropy")
    return [H[0]] + [b - a for a, b in zip(H, H[1:])]


@dataclass(frozen=True)
class EntropyRateEstimate:
    value: float
    spread: float
    window: int


def entropy_rate_estimate(h, window: int = 4) -> EntropyRateEstimate:
    """Last h_N as the rate estimate, with a tail-spread convergence check.

    Monotone decrease makes the estimate an upper bound on the true rate.
    Warns (does not fail) when the tail has not settled to 1e-3.
    """
    h = list(h)
    if window < 2 or len(h) < window:
        raise ValueError(f"need at least window={window} entries, got {len(h)}")
    tail = h[-window:]
    spread = max(tail) - min(tail)
    if spread > 1e-3:
        warnings.warn(
            f"entropy rate tail spread {spread:.2e} over the last {window} depths exceeds 1e-3; "
            "increase the depth for a tighter estimate",
            RuntimeWarning,
            stacklevel=2,
        )
    return EntropyRateEstimate(value=float(h[-1]), spread=float(spread), window=window)


@dataclass(frozen=True)
class RateBudget:
    input_rate: float
    output_rate: float
    overhead: float  # 1/h, the extraction cost factor
    no_extractable_entropy: bool = False


def rate_budget(R: float, h: float) -> RateBudget:
    """Maximum truly-random output rate R_d = h * R for input rate R."""
    if R <= 0:
        raise ValueError("input rate must be positive")
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"entropy per bit must lie in [0, 1], got {h}")
    if h == 0.0:
        return RateBudget(input_rate=R, output_rate=0.0, overhead=float("inf"), no_extractable_entropy=True)
    return RateBudget(input_rate=R, output_rate=h * R, overhead=1.0 / h)


@dataclass
class EntropyReport:
    """Full analysis result: entropy curves plus provenance for reruns."""

    H: list[float]
    h: list[float]
    h_estimate: float
    spread: float
    bias: float
    tables: list[ProbabilityTable] = field(default_factory=list, repr=False)
    input_rate: float | None = None
    recommended_rate: float | None = None
    overhead: float | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.H)

    def validate(self) -> None:
        """Bounds and monotonicity checks.

        Monotone decrease of the per-bit entropies holds for the exact
        invariant measure; a numerically estimated density (Monte Carlo in
        particular) violates it at its own noise scale.  An increase beyond
        `MONOTONE_SLACK` warns rather than fails here; strict enforcement
        belongs to the caller that controls the density accuracy.
        """
        for n, Hn in enumerate(self.H, start=1):
            if not -1e-9 <= Hn <= n + 1e-9:
                raise TableError(f"H_{n} = {Hn} outside [0, {n}]")
        worst = self.monotone_defect()
        if worst > MONOTONE_SLACK:
            warnings.warn(
                f"per-bit entropy increased by {worst:.2e} along the curve; the density is "
                "not stationary enough at this depth (raise L or K)",
                RuntimeWarning,
                stacklevel=2,
            )
        if not 0.0 <= self.bias <= 0.5 + 1e-12:
            raise TableError(f"bias {self.bias} outside [0, 1/2]")

    def monotone_defect(self) -> float:
        """Largest increase along the per-bit entropy curve (0 when monotone)."""
        return max(0.0, max((b - a for a, b in zip(self.h, self.h[1:])), default=0.0))

    def to_dict(self) -> dict:
        return {
            "H": self.H,
            "h": self.h,
            "h_estimate": self.h_estimate,
            "spread": self.spread,
            "bias": self.bias,
            "input_rate": self.input_rate,
            "recommended_rate": self.recommended_rate,
            "overhead": self.overhead,
            "provenance": self.provenance,
        }

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["N", "H_N", "h_N"])
            for n, (Hn, hn) in enumerate(zip(self.H, self.h), start=1):
                w.writerow([n, f"{Hn:.12g}", f"{hn:.12g}"])
