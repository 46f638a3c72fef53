"""Analyzer for chaos-based truly-random-number generators.

Computes, for a 1-D chaotic map and a bit-generation partition: the
invariant density (Monte Carlo and transfer-operator routes), refined
symbol partitions, block probabilities, bias, block and per-bit entropies,
the asymptotic entropy-rate metric, and the post-processing rate budget.
"""

from .analysis import AnalysisResult, InvariantViolation, run_analysis
from .bitstream import (
    PatternCounter,
    VonNeumannExtractor,
    bit_chunks,
    empirical_pattern_probs,
    generate_bits,
    monobit_frequency,
    total_variation,
    von_neumann_extract,
)
from .density import (
    DensityHistogram,
    NonConvergenceError,
    ResolutionError,
    fp_fixed_point,
    l1_distance,
    mc_density,
)
from .entropy import (
    EntropyReport,
    ProbabilityTable,
    bias,
    block_entropy,
    block_probabilities,
    entropy_rate_estimate,
    per_bit_entropies,
    rate_budget,
)
from .maps import (
    Branch,
    MapModel,
    bernoulli_map,
    cubic_sample_map,
    logistic_map,
    map_from_config,
    piecewise_linear_map,
    polynomial_map,
    preimages,
    tent_map,
)
from .partition import (
    SymbolPartition,
    refinement_ladder,
    symmetric_partition,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "Branch",
    "DensityHistogram",
    "EntropyReport",
    "InvariantViolation",
    "MapModel",
    "NonConvergenceError",
    "PatternCounter",
    "ProbabilityTable",
    "ResolutionError",
    "SymbolPartition",
    "VonNeumannExtractor",
    "bernoulli_map",
    "bias",
    "bit_chunks",
    "block_entropy",
    "block_probabilities",
    "cubic_sample_map",
    "empirical_pattern_probs",
    "entropy_rate_estimate",
    "fp_fixed_point",
    "generate_bits",
    "l1_distance",
    "logistic_map",
    "map_from_config",
    "mc_density",
    "monobit_frequency",
    "per_bit_entropies",
    "piecewise_linear_map",
    "polynomial_map",
    "preimages",
    "rate_budget",
    "refinement_ladder",
    "run_analysis",
    "symmetric_partition",
    "tent_map",
    "total_variation",
    "von_neumann_extract",
]
