"""Tunable variable-length fitness landscapes and the tooling to study them.

The Epistatic Road family composes Royal-Road-style block detection on
variable-length genotypes with NK epistasis on the resulting block vector,
giving independent control of neutrality (block size b) and ruggedness
(epistasis k). The package provides the landscapes themselves, walk-based
analysis metrics (autocorrelation, correlation length, adaptive walks,
neutrality proportions), a steady-state variable-length EA, and a CLI for
seeded, reproducible experiment sweeps.
"""

__version__ = "0.1.0"

from .analysis import (
    AdaptiveWalkCampaign,
    RandomWalkCampaign,
    WalkStats,
    adaptive_walk,
    autocorrelation,
    correlation_length,
    local_optima_stats,
    neutrality_scan,
    random_walk,
    run_adaptive_walk_campaign,
    run_random_walk_campaign,
)
from .ea import EaConfig, RunResult, run, run_instance
from .genotype import (
    BlockParams,
    Genotype,
    block_count,
    block_vector,
    edit_distance,
    enumerate_neighbors,
    from_text,
    has_block,
    random_genotype,
    to_text,
)
from .landscapes import (
    BlockLandscape,
    er_build,
    is_success,
    load_landscape,
    royal_road,
    save_landscape,
)
from .nk import (
    NkInstance,
    all_fitness_values,
    count_local_optima,
    exhaustive_optimum,
    expected_optima_count,
    generate,
    fitness,
    normalize_to_one,
    theoretical_optima_stats,
    theoretical_rho,
    theoretical_tau,
)

__all__ = [
    "AdaptiveWalkCampaign", "BlockLandscape", "BlockParams", "EaConfig", "Genotype",
    "NkInstance", "RandomWalkCampaign", "RunResult", "WalkStats",
    "adaptive_walk", "all_fitness_values", "autocorrelation", "block_count",
    "block_vector", "correlation_length", "count_local_optima", "edit_distance",
    "enumerate_neighbors", "er_build", "exhaustive_optimum",
    "expected_optima_count", "fitness", "from_text", "generate", "has_block",
    "is_success", "load_landscape", "local_optima_stats", "neutrality_scan",
    "normalize_to_one", "random_genotype", "random_walk", "royal_road", "run",
    "run_adaptive_walk_campaign", "run_instance", "run_random_walk_campaign",
    "save_landscape", "theoretical_optima_stats", "theoretical_rho", "theoretical_tau",
    "to_text",
]
