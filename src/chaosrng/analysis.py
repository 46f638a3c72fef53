"""End-to-end analysis: density -> refinement -> probabilities -> entropies.

`run_analysis` is the one-call pipeline behind the CLI's `analyze` and
`verify` commands; it takes the density ready-made.  Every run passes
through `check_invariants`, an always-on assertion suite over the
structural guarantees (partition prefix consistency, M carrying
each refined interval into the parent cell of its word's last N-1 bits,
marginal consistency, the telescoping entropy identity, entropy bounds).
Refined cells are disjoint and tile [0, 1] by construction, as runs of one
cut array.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import entropy as _entropy
from .density import DensityHistogram
from .entropy import EntropyReport, ProbabilityTable
from .maps import MapModel
from .partition import SymbolPartition, refinement_ladder

DEFAULT_DEPTH = 14
_RATE_WINDOW = 4  # tail length of the entropy-rate estimate


class InvariantViolation(AssertionError):
    """A structural guarantee failed on an analysis run."""


def check_invariants(
    m: MapModel,
    ladder: list[SymbolPartition],
    tables: list[ProbabilityTable],
    report: EntropyReport,
) -> None:
    """Structural assertions run on every analysis, not only in tests."""
    for i, p in enumerate(ladder):
        try:
            p.validate(m, parent=ladder[i - 1] if i > 0 else None)
        except AssertionError as exc:
            raise InvariantViolation(f"partition invariant failed at depth {p.depth}: {exc}") from exc
    for shallow, deep in zip(tables, tables[1:]):
        worst = np.abs(deep.marginalize().p - shallow.p).max()
        if worst > 1e-6:
            raise InvariantViolation(
                f"marginal inconsistency {worst:.3e} between depths {deep.depth} and {shallow.depth}"
            )
    for n, (Hn, hs) in enumerate(zip(report.H, accumulate(report.h)), start=1):
        if abs(Hn - hs) > 1e-12:
            raise InvariantViolation(f"telescoping identity broken at depth {n}: {Hn} vs {hs}")
    try:
        report.validate()
    except Exception as exc:
        raise InvariantViolation(str(exc)) from exc


@dataclass
class AnalysisResult:
    density: DensityHistogram
    ladder: list[SymbolPartition]
    tables: list[ProbabilityTable]
    report: EntropyReport


def run_analysis(
    m: MapModel,
    s: SymbolPartition,
    depth: int = DEFAULT_DEPTH,
    *,
    density: DensityHistogram,
    input_rate: float | None = None,
) -> AnalysisResult:
    """Full pipeline for one map + partition on a precomputed `density`
    (build it with `density.density_for`, `fp_fixed_point` or `mc_density`)."""
    _entropy.check_rate(input_rate)
    ladder = refinement_ladder(m, s, depth)
    tables = [_entropy.block_probabilities(p, density) for p in ladder]
    H = [_entropy.block_entropy(t) for t in tables]
    h = _entropy.per_bit_entropies(H)
    # the rate estimate is h[-1]; the call measures (and warns about) the tail spread
    spread = _entropy.entropy_rate_estimate(h, window=min(_RATE_WINDOW, len(h))) if len(h) >= 2 else 0.0
    b = _entropy.bias(tables[0])

    recommended_rate = overhead = None
    if input_rate is not None:
        # exact-entropy cases can land a few ulp above 1; clamp into range
        recommended_rate, overhead = _entropy.rate_budget(input_rate, min(max(h[-1], 0.0), 1.0))

    report = EntropyReport(
        H=H,
        h=h,
        h_estimate=h[-1],
        spread=spread,
        bias=b,
        input_rate=input_rate,
        recommended_rate=recommended_rate,
        overhead=overhead,
        provenance={
            "map": m.name,
            "density_method": density.method,
            "L": density.L,
            "K": density.meta.get("K"),
            "seed": density.meta.get("seed"),
            "rng": density.meta.get("rng"),
            "burn_in": density.meta.get("burn_in"),
            "density_grid": density.grid,
            "density_iterations": density.meta.get("iterations"),
            "density_l1_change": density.meta.get("l1_change"),
            "depth": depth,
        },
    )
    check_invariants(m, ladder, tables, report)
    return AnalysisResult(density=density, ladder=ladder, tables=tables, report=report)
