"""Information-centrality maximization by incident edge addition.

Public surface: graph loading/generation, the grounded-trace resistance
and centrality evaluators, the sketch resistance estimator, and the exact
and approximate greedy optimizers with baselines and a brute-force oracle.
The CLI lives in icmax.cli.
"""

from .graphs import (
    Graph,
    ParseError,
    component_labels,
    generate_ba,
    generate_ws,
    is_connected,
    largest_connected_component,
    load_edge_list,
    write_edge_list,
)
from .linalg import (
    DENSE_NODE_LIMIT,
    SolverConvergenceError,
    SolverSpec,
    approx_eff_res,
    build_laplacian,
    solver_tolerance,
)
from .centrality import (
    CentralityScore,
    NodeResistance,
    information_centrality,
    node_resistance_grounded,
    rank_all_by_centrality,
)
from .greedy import (
    BASELINE_STRATEGIES,
    CandidateEdge,
    GainEstimate,
    GreedyTrace,
    TraceStep,
    approxi_sm,
    baseline_select,
    brute_force_optimum,
    default_candidates,
    exact_sm,
    insertion_trace,
    vreff_comp,
)

__all__ = [
    "BASELINE_STRATEGIES",
    "CandidateEdge",
    "CentralityScore",
    "DENSE_NODE_LIMIT",
    "GainEstimate",
    "Graph",
    "GreedyTrace",
    "NodeResistance",
    "ParseError",
    "SolverConvergenceError",
    "SolverSpec",
    "TraceStep",
    "approx_eff_res",
    "approxi_sm",
    "baseline_select",
    "brute_force_optimum",
    "build_laplacian",
    "component_labels",
    "default_candidates",
    "exact_sm",
    "generate_ba",
    "generate_ws",
    "information_centrality",
    "insertion_trace",
    "is_connected",
    "largest_connected_component",
    "load_edge_list",
    "node_resistance_grounded",
    "rank_all_by_centrality",
    "solver_tolerance",
    "vreff_comp",
    "write_edge_list",
]
