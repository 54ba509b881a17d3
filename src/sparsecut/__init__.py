"""Combinatorial max-cut approximation for sparse graphs.

Builds an ordered vertex decomposition (odd-cycle-inducing trees, cyclic
bipartite pieces, a tree tail), merges per-component optimal cuts, and
returns cuts together with machine-checkable certificates: edge-disjoint
odd cycles bounding the maximum cut from above and an exact rational lower
bound on the cut produced.
"""

from .cactus import PartialAssignment, constrained_cactus_cut
from .decompose import (
    KIND_CB_GRAPH,
    KIND_IOC_TREE,
    KIND_TREE,
    Component,
    Decomposition,
    ValidationReport,
    odd_cycle_certificates,
    tree_bipartite_decompose,
    validate_decomposition,
)
from .drivers import (
    TailState,
    auto_approx,
    merge_tail,
    thm2_approx,
    thm3_approx,
)
from .edgelist import ParseError, parse_edge_list, write_edge_list
from .generators import (
    generate,
    gnm_connected,
    instance_seed,
    random_cactus,
    random_max_deg,
    random_regular,
    random_subcubic,
)
from .graph import (
    SIDE_A,
    SIDE_B,
    Cut,
    DfsTree,
    DisconnectedError,
    EvenCycleWitness,
    Graph,
    GraphError,
    OddCycleWitness,
    build_graph,
    connected_components,
    cut_size,
    dfs_tree,
    induced_subgraph,
    is_even_cycle_free,
    two_color,
)
from .maxcut import (
    ApproxResult,
    greedy_merge,
    thm1_approx,
)
from .oracle import (
    ORACLE_MAX_VERTICES,
    OracleCapError,
    RatioReport,
    constrained_exact,
    exact_max_cut,
    verify_result,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxResult",
    "Component",
    "Cut",
    "Decomposition",
    "DfsTree",
    "DisconnectedError",
    "EvenCycleWitness",
    "Graph",
    "GraphError",
    "KIND_CB_GRAPH",
    "KIND_IOC_TREE",
    "KIND_TREE",
    "ORACLE_MAX_VERTICES",
    "OddCycleWitness",
    "OracleCapError",
    "ParseError",
    "PartialAssignment",
    "RatioReport",
    "SIDE_A",
    "SIDE_B",
    "TailState",
    "ValidationReport",
    "auto_approx",
    "build_graph",
    "connected_components",
    "constrained_cactus_cut",
    "constrained_exact",
    "cut_size",
    "dfs_tree",
    "exact_max_cut",
    "generate",
    "gnm_connected",
    "greedy_merge",
    "induced_subgraph",
    "instance_seed",
    "is_even_cycle_free",
    "merge_tail",
    "odd_cycle_certificates",
    "parse_edge_list",
    "random_cactus",
    "random_max_deg",
    "random_regular",
    "random_subcubic",
    "thm1_approx",
    "thm2_approx",
    "thm3_approx",
    "tree_bipartite_decompose",
    "two_color",
    "validate_decomposition",
    "verify_result",
    "write_edge_list",
]
