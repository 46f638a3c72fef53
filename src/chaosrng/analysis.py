"""End-to-end analysis: density -> refinement -> probabilities -> entropies.

`run_analysis` is the one-call pipeline behind the CLI's `analyze` command.
Every run passes through `check_invariants`, an always-on assertion suite
over the structural guarantees (partition prefix consistency, M carrying
each refined interval into the parent cell of its word's last N-1 bits,
marginal consistency, the telescoping entropy identity, entropy bounds).
Refined cells are disjoint and tile [0, 1] by construction, as runs of one
cut array.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import entropy as _entropy
from .density import DEFAULT_BURN_IN, DEFAULT_K, DEFAULT_L, DensityHistogram, density_for
from .entropy import EntropyReport, ProbabilityTable
from .maps import MapModel
from .partition import RefinedPartition, SymbolPartition, refinement_ladder

DEFAULT_DEPTH = 14


class InvariantViolation(AssertionError):
    """A structural guarantee failed on an analysis run."""


def check_invariants(
    m: MapModel,
    ladder: list[RefinedPartition],
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
    for n, (Hn, hs) in enumerate(zip(report.H, _cumsums(report.h)), start=1):
        if abs(Hn - hs) > 1e-12:
            raise InvariantViolation(f"telescoping identity broken at depth {n}: {Hn} vs {hs}")
        if not -1e-9 <= Hn <= n + 1e-9:
            raise InvariantViolation(f"H_{n} = {Hn} outside [0, {n}]")
    try:
        report.validate()
    except Exception as exc:
        raise InvariantViolation(str(exc)) from exc


def _cumsums(xs):
    total = 0.0
    for x in xs:
        total += x
        yield total


@dataclass
class AnalysisResult:
    density: DensityHistogram
    ladder: list[RefinedPartition]
    tables: list[ProbabilityTable]
    report: EntropyReport


def run_analysis(
    m: MapModel,
    s: SymbolPartition,
    depth: int = DEFAULT_DEPTH,
    *,
    density: DensityHistogram | None = None,
    method: str = "fp_operator",
    L: int = DEFAULT_L,
    seed: int = 0,
    K: int = DEFAULT_K,
    burn_in: int = DEFAULT_BURN_IN,
    tol: float = 1e-9,
    input_rate: float | None = None,
    rate_window: int = 4,
    shards: int = 1,
    grid_factor: int | None = None,
) -> AnalysisResult:
    """Full pipeline for one map + partition.

    A precomputed `density` short-circuits the density stage (useful for
    comparing methods on identical refinements).
    """
    if density is None:
        density = density_for(
            m, method, L, seed=seed, K=K, burn_in=burn_in, tol=tol,
            shards=shards, grid_factor=grid_factor,
        )
    ladder = refinement_ladder(m, s, depth)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        tables = [_entropy.block_probabilities(p, density) for p in ladder]
    H = [_entropy.block_entropy(t) for t in tables]
    h = _entropy.per_bit_entropies(H)
    est = _entropy.entropy_rate_estimate(h, window=min(rate_window, len(h))) if len(h) >= 2 else None
    b = _entropy.bias(tables[0])

    budget = None
    if input_rate is not None:
        # exact-entropy cases can land a few ulp above 1; clamp into range
        h_for_budget = min(max(est.value if est else h[0], 0.0), 1.0)
        budget = _entropy.rate_budget(input_rate, h_for_budget)

    report = EntropyReport(
        H=H,
        h=h,
        h_estimate=est.value if est else h[-1],
        spread=est.spread if est else 0.0,
        bias=b,
        tables=tables,
        input_rate=input_rate,
        recommended_rate=budget.output_rate if budget else None,
        overhead=budget.overhead if budget else None,
        provenance={
            "map": m.name,
            "density_method": density.method,
            "L": density.L,
            "K": density.meta.get("K"),
            "seed": density.meta.get("seed"),
            "rng": density.meta.get("rng"),
            "burn_in": density.meta.get("burn_in"),
            "depth": depth,
        },
    )
    check_invariants(m, ladder, tables, report)
    return AnalysisResult(density=density, ladder=ladder, tables=tables, report=report)
