"""Cluster-graph belief propagation for graph-coloring problems."""

from clusterbp.coloring import (
    ColoringProblem,
    anchor_largest_clique,
    build_factors,
    label_preferences,
    maximal_cliques,
    parse_adjacency,
    purged_clusters,
    random_planar_map,
    split_cliques,
    sudoku_problem,
    verify_coloring,
)
from clusterbp.factors import (
    ContradictionError,
    SparseTable,
    Variable,
    kl_divergence,
    make_variables,
    uniform_factor,
)
from clusterbp.graphs import (
    Cluster,
    ClusterGraph,
    Sepset,
    bethe_graph,
    export_dot,
    ltrip,
    validate_rip,
)
from clusterbp.inference import InferenceOptions, InferenceState

__version__ = "0.1.0"

__all__ = [
    "Cluster",
    "ClusterGraph",
    "ColoringProblem",
    "ContradictionError",
    "InferenceOptions",
    "InferenceState",
    "Sepset",
    "SparseTable",
    "Variable",
    "anchor_largest_clique",
    "bethe_graph",
    "build_factors",
    "export_dot",
    "kl_divergence",
    "label_preferences",
    "ltrip",
    "make_variables",
    "maximal_cliques",
    "parse_adjacency",
    "purged_clusters",
    "random_planar_map",
    "split_cliques",
    "sudoku_problem",
    "uniform_factor",
    "validate_rip",
    "verify_coloring",
    "__version__",
]
