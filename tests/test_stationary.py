import itertools
import math
import re

import numpy as np
import pytest

from qwsearch import (
    InfeasibleComponentError,
    StationarityCheck,
    StationaryAssignment,
    WalkState,
    apply_coin,
    apply_query,
    assignments_from_coefficients,
    build_graph,
    build_state,
    complete_graph,
    cycle_graph,
    exists_stationary,
    initial_state,
    make_assignment,
    marked_components,
    marked_probability,
    merged_coefficients,
    normalization_scale,
    random_regular_graph,
    read_assignment_file,
    solve_min_norm,
    step,
    torus2d_graph,
    verify_stationary,
    write_state_snapshot,
)
from qwsearch import stationary
from qwsearch.stationary import CONSTRAINT_TOL, format_assignment

from helpers import (
    block_coefficients,
    grow_connected_marked_set,
    make_assignment_oracle,
    overlap,
    random_simple_graph,
)


def single_component(g, marked):
    comps = marked_components(g, marked)
    assert len(comps) == 1
    return comps[0]


class TestExistence:
    def test_cycle_pair(self, cycle5):
        assert exists_stationary(single_component(cycle5, {3, 4}))

    def test_single_marked_vertex_in_regular_graph(self, torus4):
        assert not exists_stationary(single_component(torus4, {5}))

    def test_marked_triangle(self):
        g = complete_graph(6)
        assert exists_stationary(single_component(g, {0, 1, 2}))

    def test_isolated_marked_vertex(self):
        g = build_graph([(0, 1)], 3)
        assert exists_stationary(single_component(g, {2}))

    def test_path_endpoint(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        assert not exists_stationary(single_component(g, {0}))

    def test_unbalanced_bipartite_pair(self):
        # 0-1 edge where deg(0)=1 and deg(1)=3: side sums 0 vs 2
        g = build_graph([(0, 1), (1, 2), (1, 3)], 4)
        assert not exists_stationary(single_component(g, {0, 1}))


class TestSolveMinNorm:
    def test_torus_block_all_minus_one(self, torus4):
        asg = solve_min_norm(single_component(torus4, [5, 6, 9, 10]))
        assert sorted(asg.coefficients) == [(5, 6), (5, 9), (6, 10), (9, 10)]
        for c in asg.coefficients.values():
            assert c == pytest.approx(-1.0, abs=1e-12)

    def test_adjacent_pair_regular_graph(self):
        g = complete_graph(5)  # 4-regular
        asg = solve_min_norm(single_component(g, {0, 1}))
        assert asg.coefficients[(0, 1)] == pytest.approx(-3.0, abs=1e-12)

    def test_cycle_pair(self, cycle5):
        asg = solve_min_norm(single_component(cycle5, {3, 4}))
        assert asg.coefficients[(3, 4)] == pytest.approx(-1.0, abs=1e-12)

    def test_infeasible_names_side_sums(self, torus4):
        with pytest.raises(InfeasibleComponentError, match="side sums 4 != 0"):
            solve_min_norm(single_component(torus4, {5}))

    def test_isolated_vertex_has_no_coefficients(self):
        asg = solve_min_norm(single_component(build_graph([(0, 1)], 3), {2}))
        assert asg.coefficients == {} and asg.sum_sq_directed == 0.0

    def test_vertex_constraints_hold(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_simple_graph(rng, int(rng.integers(8, 20)), 0.35)
            marked = grow_connected_marked_set(rng, g, int(rng.integers(2, 6)))
            comp = single_component(g, marked)
            if not exists_stationary(comp):
                continue
            asg = solve_min_norm(comp)
            for v in comp.vertices:
                total = sum(c for e, c in asg.coefficients.items() if v in e)
                assert total == pytest.approx(-comp.outgoing_degree[v], abs=1e-10)

    def test_minimality_against_null_space_perturbations(self, torus16):
        verts, vertical, horizontal = block_coefficients(16, 1, 1, 16, 16)
        comp = single_component(torus16, verts)
        asg = solve_min_norm(comp)
        edges = list(asg.coefficients)
        c = np.array([asg.coefficients[e] for e in edges])
        incidence = np.zeros((len(comp.vertices), len(edges)))
        row = {v: i for i, v in enumerate(comp.vertices)}
        for j, (u, w) in enumerate(edges):
            incidence[row[u], j] = 1.0
            incidence[row[w], j] = 1.0
        _, sv, vh = np.linalg.svd(incidence)
        null = vh[np.sum(sv > 1e-10) :]
        assert null.shape[0] >= 1
        rng = np.random.default_rng(6)
        base = float(c @ c)
        for _ in range(20):
            mix = rng.standard_normal(null.shape[0])
            delta = mix @ null
            delta *= 1e-3 / np.linalg.norm(delta)
            perturbed = c + delta
            assert float(perturbed @ perturbed) > base
            # perturbed assignment still satisfies the constraints
            assert np.allclose(incidence @ perturbed, incidence @ c, atol=1e-12)

    def test_directed_coefficient_sum_balances_outgoing_degree(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            g = random_simple_graph(rng, int(rng.integers(8, 18)), 0.4)
            marked = grow_connected_marked_set(rng, g, int(rng.integers(2, 6)))
            comp = single_component(g, marked)
            if not exists_stationary(comp):
                continue
            asg = solve_min_norm(comp)
            assert comp.total_outgoing + 2.0 * sum(asg.coefficients.values()) == pytest.approx(0.0, abs=1e-9)


class TestSolverAgreesWithExistence:
    def test_exhaustive_small_components(self):
        hosts = [random_regular_graph(12, 3, seed=3), random_regular_graph(10, 4, seed=4)]
        checked = 0
        for g in hosts:
            for size in range(1, 7):
                for subset in itertools.combinations(range(g.n), size):
                    comps = marked_components(g, subset)
                    if len(comps) != 1:
                        continue
                    comp = comps[0]
                    feasible = exists_stationary(comp)
                    try:
                        solve_min_norm(comp)
                        solved = True
                    except InfeasibleComponentError:
                        solved = False
                    assert solved == feasible, f"disagreement on {subset} of {g}"
                    checked += 1
        assert checked > 500


class TestBuildState:
    def test_min_norm_block_scale(self, torus16):
        verts, _, _ = block_coefficients(16, 1, 1, 16, 16)
        comp = single_component(torus16, verts)
        asg = solve_min_norm(comp)
        n = torus16.n
        assert normalization_scale(torus16, [asg]) == pytest.approx(1.0 / math.sqrt(4 * n), rel=1e-12)
        state = build_state(torus16, [asg])
        assert marked_probability(state, verts) == pytest.approx(4.0 / n, rel=1e-12)

    def test_injected_block_scale(self, torus16):
        verts, vertical, horizontal = block_coefficients(16, 1, 1, 16, 16)
        comp = single_component(torus16, verts)
        coeffs = {e: -3.0 for e in vertical} | {e: 1.0 for e in horizontal}
        asg = make_assignment(comp, coeffs)
        n = torus16.n
        assert normalization_scale(torus16, [asg]) == pytest.approx(1.0 / math.sqrt(4 * (n + 8)), rel=1e-12)
        state = build_state(torus16, [asg])
        assert marked_probability(state, verts) == pytest.approx(12.0 / (n + 8), rel=1e-12)

    def test_empty_assignment_is_uniform(self, torus4):
        state = build_state(torus4, [])
        assert np.array_equal(state.amplitudes, initial_state(torus4).amplitudes)

    def test_unit_norm(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_simple_graph(rng, int(rng.integers(8, 16)), 0.4)
            marked = grow_connected_marked_set(rng, g, 3)
            comp = single_component(g, marked)
            if not exists_stationary(comp):
                continue
            state = build_state(g, [solve_min_norm(comp)])
            assert abs(state.norm() - 1.0) <= 1e-12

    def test_overlapping_components_rejected(self, torus4):
        comp = single_component(torus4, [5, 6, 9, 10])
        asg = solve_min_norm(comp)
        with pytest.raises(ValueError, match="overlap"):
            build_state(torus4, [asg, asg])

    def test_foreign_graph_rejected(self, torus4):
        other = torus2d_graph(4, 4)
        asg = solve_min_norm(single_component(other, [5, 6, 9, 10]))
        with pytest.raises(ValueError, match="different graph"):
            build_state(torus4, [asg])

    @pytest.mark.parametrize("build", [build_state, normalization_scale])
    def test_arcless_graph_rejected(self, build):
        with pytest.raises(ValueError, match="^graph has no arcs$"):
            build(build_graph([], 3), [])

    @pytest.mark.parametrize("build", [build_state, normalization_scale])
    def test_sum_of_squares_overflow_rejected(self, torus4, build):
        # Every vertex marked and a +-1e200 circulation around the square
        # 0-1-5-4: every vertex sum is 0, but the squares overflow.
        comp = single_component(torus4, range(torus4.n))
        circulation = {(0, 1): 1e200, (1, 5): -1e200, (4, 5): 1e200, (0, 4): -1e200}
        asg = make_assignment(comp, {e: circulation.get(e, 0.0) for e in comp.internal_edges})
        with pytest.raises(ValueError, match="^the assignment's sum of squared amplitudes overflows a float64$") as err:
            build(torus4, [asg])
        assert type(err.value) is ValueError  # an input error, not an infeasible request

    @pytest.mark.parametrize("c", [1e-8, 1e-7, 1e-3])
    def test_scale_of_a_state_with_every_arc_internal(self, torus4, c):
        # Every vertex marked and a +-c circulation around the square 0-1-5-4:
        # 2m - 2E is 0, so the scale is 1/sqrt(S) with S = 8c^2.  Summed in
        # floats, 2m - 2E + S cancelled to 0 at c = 1e-8 and to a scale
        # 1.17% off at c = 1e-7.
        comp = single_component(torus4, range(torus4.n))
        circulation = {(0, 1): c, (1, 5): -c, (4, 5): c, (0, 4): -c}
        asg = make_assignment(comp, {e: circulation.get(e, 0.0) for e in comp.internal_edges})
        assert normalization_scale(torus4, [asg]) == 1.0 / math.sqrt(asg.sum_sq_directed)
        assert normalization_scale(torus4, [asg]) == pytest.approx(1.0 / math.sqrt(8 * c * c), rel=1e-15)

    def test_squares_that_overflow_only_in_their_total_are_rejected(self):
        # Two 4-cycles, every vertex marked, each with a +-c circulation:
        # each sum of squares, 8c^2 = 9.8e307, is finite, but their total
        # overflows, which math.fsum reports by raising OverflowError.
        g = build_graph([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)], 8)
        c = 3.5e153
        assignments = [
            make_assignment(comp, {(i, j): c if (i + j) % 4 == 1 else -c for i, j in comp.internal_edges})
            for comp in marked_components(g, range(8))
        ]
        assert len(assignments) == 2 and all(math.isfinite(asg.sum_sq_directed) for asg in assignments)
        for build in (build_state, normalization_scale):
            with pytest.raises(ValueError, match="^the assignment's sum of squared amplitudes overflows a float64$"):
                build(g, assignments)

    def test_two_components_share_one_scale(self, torus16):
        pairs = [(17, 18), (100, 101)]
        comps = marked_components(torus16, [v for p in pairs for v in p])
        assert len(comps) == 2
        assignments = [solve_min_norm(c) for c in comps]
        scale = normalization_scale(torus16, assignments)
        state = build_state(torus16, assignments)
        # unmarked arcs all carry the joint scale
        assert state.amplitudes[torus16.arc_between(0, 1)] == pytest.approx(scale, rel=1e-12)
        assert abs(state.norm() - 1.0) <= 1e-12

    def test_matches_arc_by_arc_assembly(self, torus16):
        block, _, _ = block_coefficients(16, 2, 3, 16, 16)
        block += [v + 4 for v in block] + [v + 64 for v in block]
        assignments = [solve_min_norm(c) for c in marked_components(torus16, block + [200, 201])]
        assert len(assignments) == 4
        unscaled = np.ones(torus16.arc_count)
        for asg in assignments:
            for (i, j), c in asg.coefficients.items():
                unscaled[torus16.arc_between(i, j)] = c
                unscaled[torus16.arc_between(j, i)] = c
        want = unscaled / math.sqrt(float(np.dot(unscaled, unscaled)))
        assert np.array_equal(build_state(torus16, assignments).amplitudes, want)

    @pytest.mark.parametrize("edge, message", [
        ((0, 2), "no edge between 0 and 2"),
        ((0, 9), "vertex pair (0, 9) out of range for n=5"),
    ])
    def test_coefficient_off_the_graph_is_named(self, cycle5, edge, message):
        comp = single_component(cycle5, {3, 4})
        with pytest.raises(ValueError) as err:
            build_state(cycle5, [StationaryAssignment(comp, {(3, 4): -1.0, edge: 1.0})])
        assert str(err.value) == message


class TestMakeAssignment:
    def test_wrong_edges_rejected(self, cycle5):
        comp = single_component(cycle5, {3, 4})
        with pytest.raises(ValueError, match="internal edges"):
            make_assignment(comp, {(2, 3): -1.0})

    def test_constraint_violation_rejected(self, cycle5):
        comp = single_component(cycle5, {3, 4})
        with pytest.raises(InfeasibleComponentError, match="vertex 3"):
            make_assignment(comp, {(3, 4): 2.0})

    @pytest.mark.parametrize("coefficients", [{(0, 1): -1.0, (1, 0): 5.0}, {(1, 0): -1.0, (0, 1): -1.0}])
    def test_an_edge_named_twice_is_an_input_error(self, coefficients):
        # Keying both orientations by the sorted edge kept the last value.
        comp = single_component(cycle_graph(6), {0, 1})
        for call in (lambda: make_assignment(comp, coefficients),
                     lambda: assignments_from_coefficients([comp], coefficients),
                     lambda: make_assignment_oracle(comp, coefficients, CONSTRAINT_TOL)):
            with pytest.raises(ValueError) as err:
                call()
            assert type(err.value) is ValueError
            assert str(err.value) == "coefficients name edge (0, 1) twice"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_coefficient_fails_the_vertex_check(self, cycle5, value):
        # A NaN sum compared False against the tolerance and passed.
        comp = single_component(cycle5, {3, 4})
        with pytest.raises(InfeasibleComponentError, match="vertex 3"):
            make_assignment(comp, {(3, 4): value})

    def test_matches_solver_when_given_solver_output(self, cycle5):
        comp = single_component(cycle5, {3, 4})
        solved = solve_min_norm(comp)
        injected = make_assignment(comp, solved.coefficients)
        assert injected.coefficients == solved.coefficients
        assert normalization_scale(cycle5, [injected]) == normalization_scale(cycle5, [solved])

    def test_matches_per_vertex_scan(self):
        # Solved coefficients must pass with bit-equal values; perturbing one
        # edge must fail at the same vertex with the same printed sum.
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(12):
            g = random_simple_graph(rng, int(rng.integers(8, 14)), 0.4)
            comp = single_component(g, grow_connected_marked_set(rng, g, int(rng.integers(3, 8))))
            if not comp.internal_edges or not exists_stationary(comp):
                continue
            solved = dict(solve_min_norm(comp).coefficients)
            want = make_assignment_oracle(comp, solved, CONSTRAINT_TOL)
            assert make_assignment(comp, solved).coefficients == want
            for e in comp.internal_edges:
                bad = solved | {e: solved[e] + float(rng.uniform(-1.0, 1.0))}
                with pytest.raises(InfeasibleComponentError) as err:
                    make_assignment_oracle(comp, bad, CONSTRAINT_TOL)
                with pytest.raises(InfeasibleComponentError) as got:
                    make_assignment(comp, bad)
                assert str(got.value) == str(err.value)
                checked += 1
        assert checked > 20


class TestFixedPointDynamics:
    def test_cycle_pair_state_is_fixed_point(self, cycle5):
        state = build_state(cycle5, [solve_min_norm(single_component(cycle5, {3, 4}))])
        out = step(state, {3, 4})
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) <= 1e-14

    def test_query_flips_marked_then_coin_undoes_it(self, cycle5):
        marked = {3, 4}
        state = build_state(cycle5, [solve_min_norm(single_component(cycle5, marked))])
        flipped = state.amplitudes.copy()
        for v in marked:
            lo, hi = int(cycle5.offsets[v]), int(cycle5.offsets[v + 1])
            flipped[lo:hi] = -flipped[lo:hi]
        after_query = apply_query(state, marked)
        assert after_query.amplitudes == pytest.approx(flipped, abs=1e-14)
        # the marked amplitudes sum to zero, so the coin negates them back
        assert apply_coin(after_query).amplitudes == pytest.approx(state.amplitudes, abs=1e-14)

    def test_probability_constant_under_evolution(self, torus16):
        from qwsearch import evolve

        verts, _, _ = block_coefficients(16, 1, 1, 16, 16)
        state = build_state(torus16, [solve_min_norm(single_component(torus16, verts))])
        ps = []
        evolve(state, verts, 120, observer=lambda t, p: ps.append(p))
        assert max(ps) - min(ps) <= 1e-10


class TestVerifyStationary:
    def test_built_states_pass(self, torus16):
        verts, vertical, horizontal = block_coefficients(16, 1, 1, 16, 16)
        comp = single_component(torus16, verts)
        for asg in (
            solve_min_norm(comp),
            make_assignment(comp, {e: -3.0 for e in vertical} | {e: 1.0 for e in horizontal}),
        ):
            check = verify_stationary(torus16, verts, build_state(torus16, [asg]))
            assert check.residual <= 1e-14
            assert check.failed_conditions == ()
            assert check.is_stationary

    def test_initial_state_with_unbalanced_marked_fails(self, torus4):
        check = verify_stationary(torus4, {5}, initial_state(torus4))
        assert check.residual > 1e-3
        assert "marked vertex amplitudes do not sum to zero" in check.failed_conditions

    def test_condition_diagnostics(self, cycle5):
        state = build_state(cycle5, [solve_min_norm(single_component(cycle5, {3, 4}))])
        amps = state.amplitudes.copy()
        amps[cycle5.arc_between(0, 1)] += 1e-3  # break reverse symmetry + unmarked equality
        from qwsearch import WalkState

        check = verify_stationary(cycle5, {3, 4}, WalkState(amps, cycle5))
        assert "reverse-arc amplitudes differ" in check.failed_conditions
        assert "unmarked amplitudes not all equal" in check.failed_conditions

    @pytest.mark.parametrize("run", [1, 3, 4096])
    def test_reverse_mismatch_is_measured_over_every_run(self, cycle5, monkeypatch, run):
        monkeypatch.setattr(stationary, "_GATHER_RUN", run)
        state = build_state(cycle5, [solve_min_norm(single_component(cycle5, {3, 4}))])
        amps = state.amplitudes.copy()
        amps[-1] += 1e-3  # the last arc, in the last run
        check = verify_stationary(cycle5, {3, 4}, WalkState(amps, cycle5))
        assert check.max_reverse_mismatch == np.abs(amps - amps[cycle5.reverse]).max() > 0

    def test_nan_marked_vertex_sum_is_kept(self, cycle5):
        state = build_state(cycle5, [solve_min_norm(single_component(cycle5, {3, 4}))])
        amps = state.amplitudes.copy()
        amps[cycle5.arc_between(3, 2)] = np.nan
        check = verify_stationary(cycle5, {3, 4}, WalkState(amps, cycle5))
        assert math.isnan(check.max_marked_vertex_sum)
        assert "marked vertex amplitudes do not sum to zero" in check.failed_conditions

    def test_state_of_another_graph_rejected(self, torus4):
        with pytest.raises(ValueError, match="^state lives on a different graph$"):
            verify_stationary(torus4, {5}, initial_state(torus2d_graph(4, 4)))

    def test_nan_measures_fail(self):
        nan = float("nan")
        check = StationarityCheck(nan, nan, nan, nan)
        assert len(check.failed_conditions) == 3
        assert not check.is_stationary


class TestOverlap:
    def test_self_overlap(self, torus4):
        s = initial_state(torus4)
        assert overlap(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_uniform_vs_min_norm_block(self, torus16):
        verts, _, _ = block_coefficients(16, 1, 1, 16, 16)
        state = build_state(torus16, [solve_min_norm(single_component(torus16, verts))])
        n = torus16.n
        assert overlap(initial_state(torus16), state) == pytest.approx((n - 4) / n, rel=1e-12)

    def test_orthogonal_basis_arcs(self, cycle5):
        from qwsearch import WalkState

        a = np.zeros(10)
        b = np.zeros(10)
        a[0] = 1.0
        b[1] = 1.0
        assert overlap(WalkState(a, cycle5), WalkState(b, cycle5)) == 0.0

    def test_dimension_mismatch(self, cycle5, torus4):
        with pytest.raises(ValueError, match="dimension mismatch"):
            overlap(initial_state(cycle5), initial_state(torus4))


class TestAssignmentFileIO:
    def test_round_trip_states_bit_exact(self, tmp_path, torus16):
        verts, _, _ = block_coefficients(16, 1, 1, 16, 16)
        comps = marked_components(torus16, verts)
        assignments = [solve_min_norm(c) for c in comps]
        path = tmp_path / "asg.txt"
        path.write_text(format_assignment(merged_coefficients(assignments),
                                          normalization_scale(torus16, assignments)))
        coeffs, scale = read_assignment_file(path)
        rebuilt = assignments_from_coefficients(comps, coeffs)
        direct = build_state(torus16, assignments)
        via_file = build_state(torus16, rebuilt)
        s1, s2 = tmp_path / "direct.txt", tmp_path / "file.txt"
        write_state_snapshot(direct, s1)
        write_state_snapshot(via_file, s2)
        assert s1.read_bytes() == s2.read_bytes()
        assert scale == normalization_scale(torus16, rebuilt)

    def test_missing_scale_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 4 -1.0\n")
        with pytest.raises(ValueError, match="missing trailing 'a"):
            read_assignment_file(path)

    @pytest.mark.parametrize("text, message", [
        ("3 4 nan\na 0.5\n", ":1: coefficient 'nan' is not finite"),
        ("3 4 -inf\na 0.5\n", ":1: coefficient '-inf' is not finite"),
        ("3 4 -1.0\na inf\n", ":2: scale 'inf' is not finite"),
        ("a NaN\n3 4 -1.0\n", ":1: scale 'NaN' is not finite"),
        ("3 4 -1.0\n\n \t\na inf\n", ":4: scale 'inf' is not finite"),
    ], ids=["coefficient_nan", "coefficient_minus_inf", "scale_inf", "scale_nan", "after_blank_lines"])
    def test_non_finite_value_rejected_at_its_line(self, tmp_path, text, message):
        path = tmp_path / "asg.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"{re.escape(str(path) + message)}$"):
            read_assignment_file(path)

    def test_duplicate_edge(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("3 4 -1.0\n4 3 -1.0\na 0.5\n")
        with pytest.raises(ValueError, match="duplicate edge"):
            read_assignment_file(path)

    def test_split_rejects_extra_edges(self, cycle5):
        comps = marked_components(cycle5, {3, 4})
        with pytest.raises(ValueError, match="outside the marked components"):
            assignments_from_coefficients(comps, {(3, 4): -1.0, (0, 1): 2.0})

    def test_split_rejects_missing_edges(self, cycle5):
        comps = marked_components(cycle5, {3, 4})
        with pytest.raises(ValueError, match="missing internal edge"):
            assignments_from_coefficients(comps, {})
