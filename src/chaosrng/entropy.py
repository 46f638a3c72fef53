"""Block probabilities, bias, entropy sequences, and the rate budget.

Given a refined partition and an invariant density, each N-bit word gets
the probability mass of its cell.  From the word distributions come the
block entropies H_N, the per-bit (conditional) entropies h_N = H_N - H_{N-1},
their limit estimate h, and the post-processing rate budget R_d = h * R.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .density import DensityHistogram
from .partition import SymbolPartition


MONOTONE_SLACK = 1e-6  # largest h_N increase EntropyReport.validate accepts silently
#: on a Monte Carlo density of K visits the slack is MC_MONOTONE_SLACK / sqrt(K)
#: instead, about twice the sampling sd of one h_N: on the cubic map at L 4096
#: and depth 8 that sd read 0.33 / sqrt(K) at K = 4e6 and 0.19 / sqrt(K) at
#: 1.6e7, over 8 seeds.  At K = 4e6 (2.5e-4) it clears the largest defect of
#: seeds 0-11 on the four built-in maps, 9.3e-5 on the cubic, 2.7-fold.  That
#: rise is mostly a bias of the noisy density, not sampling error: it read
#: 6.0e-5 to 8.1e-5 at K = 1.6e7 (seeds 0-5), so the cubic at L 4096 warns
#: again from K of about 4e7
MC_MONOTONE_SLACK = 0.5


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


def block_probabilities(p: SymbolPartition, f: DensityHistogram) -> ProbabilityTable:
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


def entropy_rate_estimate(h, window: int = 4) -> float:
    """Tail spread max - min of the last `window` per-bit entropies: the
    convergence check of the rate estimate h[-1].

    Monotone decrease makes h[-1] an upper bound on the true rate.
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
    return float(spread)


def rate_budget(R: float, h: float) -> tuple[float, float]:
    """Maximum truly-random output rate R_d = h * R for input rate R, and the
    extraction overhead 1/h (inf when h = 0: no extractable entropy)."""
    if R <= 0:
        raise ValueError("input rate must be positive")
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"entropy per bit must lie in [0, 1], got {h}")
    if h == 0.0:
        return 0.0, float("inf")
    return h * R, 1.0 / h


@dataclass
class EntropyReport:
    """Full analysis result: entropy curves plus provenance for reruns."""

    H: list[float]
    h: list[float]
    h_estimate: float
    spread: float
    bias: float
    input_rate: float | None = None
    recommended_rate: float | None = None
    overhead: float | None = None
    provenance: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Bounds and monotonicity checks.

        Monotone decrease of the per-bit entropies holds for the exact
        invariant measure; a numerically estimated density (Monte Carlo in
        particular) violates it at its own noise scale.  An increase beyond
        `MONOTONE_SLACK`, or beyond MC_MONOTONE_SLACK / sqrt(K) on a Monte
        Carlo density whose provenance states its K visits, warns rather
        than fails here; strict enforcement belongs to the caller that
        controls the density accuracy.  The warning names the setting that
        shrinks the rise: L or tol for the operator, L (with K >= 100 L) for
        Monte Carlo.
        """
        for n, Hn in enumerate(self.H, start=1):
            if not -1e-9 <= Hn <= n + 1e-9:
                raise TableError(f"H_{n} = {Hn} outside [0, {n}]")
        worst, slack, K = self.monotone_defect(), MONOTONE_SLACK, self.provenance.get("K")
        # the operator's rise shrinks with its bin width and its tolerance; a
        # Monte Carlo rise is mostly a resolution bias, which more visits at
        # the same L do not remove
        lever = "raise L or lower tol"
        if self.provenance.get("density_method") == "montecarlo":
            lever = "raise L, keeping K >= 100 L"
            if K:
                slack = MC_MONOTONE_SLACK / math.sqrt(K)
        if worst > slack:
            warnings.warn(
                f"per-bit entropy increased by {worst:.2e} along the curve; the density is "
                f"not stationary enough at this depth ({lever})",
                RuntimeWarning,
                stacklevel=2,
            )
        if not 0.0 <= self.bias <= 0.5 + 1e-12:
            raise TableError(f"bias {self.bias} outside [0, 1/2]")

    def monotone_defect(self) -> float:
        """Largest increase along the per-bit entropy curve (0 when monotone)."""
        return max(0.0, max((b - a for a, b in zip(self.h, self.h[1:])), default=0.0))

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["N", "H_N", "h_N"])
            for n, (Hn, hn) in enumerate(zip(self.H, self.h), start=1):
                w.writerow([n, f"{Hn:.12g}", f"{hn:.12g}"])
