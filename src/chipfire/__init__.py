"""Chip-firing divisor theory on finite multigraphs.

Core objects: Multigraph and Divisor; complete linear systems via
Baker-Norine greedy reduction to one effective representative plus a
breadth-first walk over effective subset firings (O(|D| * 2^n * n) time,
memory per step bounded by a fixed element budget); Baker-Norine rank with
failing-removal witnesses; toric rank over a generic graph curve decided
by finite-field node-constraint matrices; and seeded experiment drivers
with reproducible reports.
"""

from .graphs import (
    Divisor,
    InvalidGraphError,
    Multigraph,
    PlacementError,
    PointPlacement,
    canonical_divisor,
    complete_graph,
    cycle_graph,
    degree,
    genus,
    is_connected,
    laplacian,
    max_vertex_degree,
    path_graph,
    specialize,
)
from .linsys import (
    FiringVector,
    LinearSystem,
    apply_firing,
    is_effective_equivalent,
    linear_system,
)
from .rank import (
    RankResult,
    effective_divisors_of_degree,
    non_effective_divisors_of_degree,
    rank,
    verify_rr_graph,
)
from .toric import (
    DEFAULT_PRIME,
    NodeConstraintMatrix,
    NonEffectiveDivisorError,
    ToricConfig,
    ToricMemo,
    ToricOutcome,
    build_constraint_matrix,
    constraint_matrix_from_pattern,
    derive_seed,
    is_prime,
    kernel_basis,
    matrix_rank,
    next_prime,
    toric_effective_test,
    toric_rank,
    verify_rr_toric,
)
from .experiments import (
    CaseRecord,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    encode_adjacency,
    enumerate_treeless_graphs,
    random_connected_graph,
    random_effective_divisor,
    run_exhaustive,
    run_random_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graphs
    "Divisor",
    "InvalidGraphError",
    "Multigraph",
    "PlacementError",
    "PointPlacement",
    "canonical_divisor",
    "complete_graph",
    "cycle_graph",
    "degree",
    "genus",
    "is_connected",
    "laplacian",
    "max_vertex_degree",
    "path_graph",
    "specialize",
    # linear systems
    "FiringVector",
    "LinearSystem",
    "apply_firing",
    "is_effective_equivalent",
    "linear_system",
    # rank
    "RankResult",
    "effective_divisors_of_degree",
    "non_effective_divisors_of_degree",
    "rank",
    "verify_rr_graph",
    # toric
    "DEFAULT_PRIME",
    "NodeConstraintMatrix",
    "NonEffectiveDivisorError",
    "ToricConfig",
    "ToricMemo",
    "ToricOutcome",
    "build_constraint_matrix",
    "constraint_matrix_from_pattern",
    "derive_seed",
    "is_prime",
    "kernel_basis",
    "matrix_rank",
    "next_prime",
    "toric_effective_test",
    "toric_rank",
    "verify_rr_toric",
    # experiments
    "CaseRecord",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "encode_adjacency",
    "enumerate_treeless_graphs",
    "random_connected_graph",
    "random_effective_divisor",
    "run_exhaustive",
    "run_random_sweep",
]
