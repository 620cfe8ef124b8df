"""Coined discrete-time quantum walk search on undirected graphs.

Simulates the search walk matrix-free over directed arcs, constructs and
verifies the stationary states that marked connected components can form,
and evaluates probability ceilings for how much mass the walk can ever
place on the marked set.
"""

from .bounds import (
    BoundReport,
    component_bound,
    default_step_budget,
    estimate_diameter,
    total_bound,
)
from .graphs import (
    Graph,
    MarkedComponent,
    build_graph,
    complete_graph,
    cycle_graph,
    generate,
    marked_components,
    random_regular_graph,
    read_edge_list,
    torus2d_graph,
    write_edge_list,
)
from .stationary import (
    InfeasibleComponentError,
    StationarityCheck,
    StationaryAssignment,
    assignments_from_coefficients,
    build_state,
    exists_stationary,
    make_assignment,
    merged_coefficients,
    normalization_scale,
    read_assignment_file,
    solve_min_norm,
    verify_stationary,
)
from .walk import (
    NormDriftError,
    WalkState,
    apply_coin,
    apply_query,
    apply_shift,
    evolve,
    initial_state,
    marked_probability,
    read_state_snapshot,
    step,
    write_state_snapshot,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "MarkedComponent",
    "build_graph",
    "generate",
    "cycle_graph",
    "torus2d_graph",
    "complete_graph",
    "random_regular_graph",
    "marked_components",
    "read_edge_list",
    "write_edge_list",
    "WalkState",
    "NormDriftError",
    "initial_state",
    "apply_query",
    "apply_coin",
    "apply_shift",
    "step",
    "marked_probability",
    "evolve",
    "write_state_snapshot",
    "read_state_snapshot",
    "StationaryAssignment",
    "StationarityCheck",
    "InfeasibleComponentError",
    "exists_stationary",
    "solve_min_norm",
    "make_assignment",
    "assignments_from_coefficients",
    "merged_coefficients",
    "normalization_scale",
    "build_state",
    "verify_stationary",
    "read_assignment_file",
    "BoundReport",
    "component_bound",
    "total_bound",
    "estimate_diameter",
    "default_step_budget",
    "__version__",
]
