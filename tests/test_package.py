import qwsearch
from qwsearch import bounds, graphs, stationary, walk

# The package's exports before it took them from the modules' __all__.
EARLIER_EXPORTS = {
    "Graph", "MarkedComponent", "build_graph", "generate", "cycle_graph", "torus2d_graph",
    "complete_graph", "random_regular_graph", "marked_components", "read_edge_list", "write_edge_list",
    "WalkState", "NormDriftError", "initial_state", "apply_query", "apply_coin", "apply_shift", "step",
    "marked_probability", "evolve", "write_state_snapshot", "read_state_snapshot",
    "StationaryAssignment", "StationarityCheck", "InfeasibleComponentError", "exists_stationary",
    "solve_min_norm", "make_assignment", "assignments_from_coefficients", "merged_coefficients",
    "normalization_scale", "build_state", "verify_stationary", "read_assignment_file",
    "BoundReport", "component_bound", "total_bound", "estimate_diameter", "default_step_budget",
    "__version__",
}


def test_exports_are_the_earlier_names_plus_four_module_names():
    assert len(EARLIER_EXPORTS) == 40
    added = {"CONSTRAINT_TOL", "NORM_DRIFT_LIMIT", "RESIDUAL_LIMIT", "format_assignment"}
    assert len(qwsearch.__all__) == len(set(qwsearch.__all__)) == 44
    assert set(qwsearch.__all__) == EARLIER_EXPORTS | added


def test_each_export_is_its_modules_object():
    for module in (graphs, walk, stationary, bounds):
        for name in module.__all__:
            assert getattr(qwsearch, name) is getattr(module, name), f"{module.__name__}.{name}"
    assert qwsearch.__version__ == "0.1.0"
