
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qwsearch import (
    BoundReport,
    build_graph,
    complete_graph,
    component_bound,
    cycle_graph,
    default_step_budget,
    estimate_diameter,
    make_assignment,
    marked_components,
    random_regular_graph,
    solve_min_norm,
    torus2d_graph,
    total_bound,
)
from qwsearch import bounds
from qwsearch.experiments import select_disjoint_pairs

from helpers import (
    block_coefficients,
    farthest_point_brute_force,
    farthest_point_on_sphere,
    grow_connected_marked_set,
    max_marked_probability_oracle,
    random_simple_graph,
    squared_distance,
)


def solved(g, marked):
    (comp,) = marked_components(g, marked)
    return comp, solve_min_norm(comp)


class TestComponentBound:
    def test_block_on_torus256(self, torus16):
        verts, _, _ = block_coefficients(16, 1, 1, 16, 16)
        _, asg = solved(torus16, verts)
        # 4a0^2 * (8 + 16 + 8) with a0^2 = 1/1024
        assert component_bound(asg) == pytest.approx(0.125, rel=1e-12)
        assert component_bound(asg) == pytest.approx(32 / torus16.n, rel=1e-12)

    def test_adjacent_pair_simplifies_to_4d2_over_m(self):
        for d, n in ((3, 20), (4, 30), (5, 42)):
            g = random_regular_graph(n, d, seed=d)
            u, v = g.edge_list()[0]
            _, asg = solved(g, {u, v})
            assert component_bound(asg) == pytest.approx(4 * d * d / g.edge_count, rel=1e-10)

    def test_injected_block_is_looser(self, torus16):
        verts, vertical, horizontal = block_coefficients(16, 1, 1, 16, 16)
        (comp,) = marked_components(torus16, verts)
        injected = make_assignment(comp, {e: -3.0 for e in vertical} | {e: 1.0 for e in horizontal})
        # directed sum of squares 2*(9+9+1+1) = 40 -> 4a0^2 * (40 + 16 + 8)
        assert component_bound(injected) == pytest.approx(0.25, rel=1e-12)
        assert component_bound(solve_min_norm(comp)) < component_bound(injected)

    def test_min_norm_is_tightest_in_family(self):
        rng = np.random.default_rng(31)
        compared = 0
        for _ in range(20):
            g = random_simple_graph(rng, int(rng.integers(8, 16)), 0.45)
            marked = grow_connected_marked_set(rng, g, int(rng.integers(2, 6)))
            comps = marked_components(g, marked)
            if len(comps) != 1:
                continue
            comp = comps[0]
            try:
                base = solve_min_norm(comp)
            except Exception:
                continue
            edges = list(base.coefficients)
            if len(edges) <= len(comp.vertices) - 1:
                continue  # no slack to perturb
            incidence = np.zeros((len(comp.vertices), len(edges)))
            row = {v: i for i, v in enumerate(comp.vertices)}
            for j, (u, w) in enumerate(edges):
                incidence[row[u], j] = 1.0
                incidence[row[w], j] = 1.0
            _, sv, vh = np.linalg.svd(incidence)
            null = vh[np.sum(sv > 1e-10) :]
            if null.shape[0] == 0:
                continue
            delta = null[0] * 0.37
            alt_coeffs = {
                e: base.coefficients[e] + float(delta[j]) for j, e in enumerate(edges)
            }
            alt = make_assignment(comp, alt_coeffs)
            assert component_bound(base) <= component_bound(alt) + 1e-12
            compared += 1
        assert compared >= 3

    def test_positive_for_components_with_arcs(self):
        rng = np.random.default_rng(19)
        for _ in range(15):
            g = random_simple_graph(rng, int(rng.integers(8, 16)), 0.4)
            marked = grow_connected_marked_set(rng, g, int(rng.integers(2, 5)))
            (comp,) = marked_components(g, marked)
            try:
                asg = solve_min_norm(comp)
            except Exception:
                continue
            assert component_bound(asg) > 0.0

    def test_isolated_vertex_of_an_edgeless_graph_rejected(self):
        (comp,) = marked_components(build_graph([], 3), {1})
        with pytest.raises(ValueError, match="^edge count must be positive, got 0$"):
            component_bound(solve_min_norm(comp))

    def test_bracket_opening_identity(self):
        # directed sum of (c - 1)^2 equals directed sum of c^2 + 2D + 2E
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(60):
            g = random_simple_graph(rng, int(rng.integers(8, 18)), 0.4)
            marked = grow_connected_marked_set(rng, g, int(rng.integers(2, 6)))
            comps = marked_components(g, marked)
            if len(comps) != 1:
                continue
            comp = comps[0]
            try:
                asg = solve_min_norm(comp)
            except Exception:
                continue
            lhs = 2.0 * sum((c - 1.0) ** 2 for c in asg.coefficients.values())
            rhs = asg.sum_sq_directed + 2.0 * comp.total_outgoing + 2.0 * len(comp.internal_edges)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
            checked += 1
        assert checked >= 10


class TestTotalBound:
    def test_additivity_over_pairs(self, torus16):
        marked = select_disjoint_pairs(torus16, 3, seed=11)
        comps = marked_components(torus16, marked)
        assert len(comps) == 3
        assignments = [solve_min_norm(c) for c in comps]
        report = total_bound(assignments)
        assert report.total_bound == pytest.approx(
            sum(component_bound(a) for a in assignments), rel=1e-14
        )
        assert report.total_bound == pytest.approx(3 * 0.125, rel=1e-12)

    def test_single_component_equals_component_bound(self, torus16):
        verts, _, _ = block_coefficients(16, 1, 1, 16, 16)
        _, asg = solved(torus16, verts)
        assert total_bound([asg]).total_bound == component_bound(asg)

    def test_empty(self):
        report = total_bound([])
        assert report.total_bound == 0.0
        assert report.per_component == ()

    def test_overlap_rejected(self, torus16):
        verts, _, _ = block_coefficients(16, 1, 1, 16, 16)
        _, asg = solved(torus16, verts)
        with pytest.raises(ValueError, match="overlap"):
            total_bound([asg, asg])


class TestFarthestPoint:
    def test_axis_case(self):
        x = farthest_point_on_sphere([1.0, 0.0], 2.0)
        assert x == pytest.approx([-2.0, 0.0], abs=1e-15)
        assert squared_distance(x, [1.0, 0.0]) == pytest.approx(9.0, abs=1e-12)

    def test_three_four_five(self):
        a = np.array([3.0, 4.0])
        x = farthest_point_on_sphere(a, 5.0)
        assert x == pytest.approx([-3.0, -4.0], abs=1e-12)
        assert squared_distance(x, a) == pytest.approx(100.0, abs=1e-10)

    def test_radius_zero(self):
        a = np.array([1.0, 2.0, 2.0])
        x = farthest_point_on_sphere(a, 0.0)
        assert np.array_equal(x, np.zeros(3))
        assert squared_distance(x, a) == pytest.approx(9.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="a = 0"):
            farthest_point_on_sphere([0.0, 0.0], 1.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            farthest_point_on_sphere([1.0], -1.0)

    def test_norm_and_value(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal(n)
            r = float(rng.uniform(0.0, 3.0))
            x = farthest_point_on_sphere(a, r)
            assert np.linalg.norm(x) == pytest.approx(r, abs=1e-12)
            assert squared_distance(x, a) == pytest.approx(
                (r + np.linalg.norm(a)) ** 2, abs=1e-10
            )


class TestFarthestPointBruteForce:
    def test_dimension_one_exact(self):
        x, f = farthest_point_brute_force(np.array([2.0]), 1.0, samples=64, seed=0)
        assert x == pytest.approx([-1.0], abs=1e-15)
        assert f == 9.0

    def test_never_beats_closed_form(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal(n)
            r = float(rng.uniform(0.2, 2.5))
            _, f = farthest_point_brute_force(a, r, samples=4000, seed=int(rng.integers(1 << 31)))
            assert f <= (r + np.linalg.norm(a)) ** 2 + 1e-6

    def test_reaches_closed_form(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal(n)
            a *= max(1.0, 0.3 / np.linalg.norm(a))
            r = float(rng.uniform(0.2, 2.5))
            _, f = farthest_point_brute_force(a, r, samples=20000, seed=int(rng.integers(1 << 31)))
            assert f == pytest.approx((r + np.linalg.norm(a)) ** 2, abs=1e-3)

    def test_deterministic(self):
        a = np.array([0.3, -1.2, 0.7])
        x1, f1 = farthest_point_brute_force(a, 1.5, samples=5000, seed=42)
        x2, f2 = farthest_point_brute_force(a, 1.5, samples=5000, seed=42)
        assert np.array_equal(x1, x2) and f1 == f2

    def test_radius_zero(self):
        x, f = farthest_point_brute_force(np.array([1.0, 1.0]), 0.0, samples=10, seed=1)
        assert np.array_equal(x, np.zeros(2))
        assert f == pytest.approx(2.0)

    def test_dimension_limit(self):
        with pytest.raises(ValueError, match="between 1 and 8"):
            farthest_point_brute_force(np.ones(9), 1.0, samples=10, seed=0)


class TestOracle:
    def test_empty_marked_stays_zero(self, torus4):
        assert max_marked_probability_oracle(torus4, set(), 50) == 0.0

    def test_cycle_pair_stays_near_initial(self, cycle5):
        mx = max_marked_probability_oracle(cycle5, {3, 4}, 500)
        assert mx == pytest.approx(0.4, abs=1e-10)
        assert mx <= (2 / 5) * (2 + 4 + 2)

    def test_block_dominated(self):
        g = torus2d_graph(8, 8)
        verts, _, _ = block_coefficients(8, 1, 1, 8, 8)
        (comp,) = marked_components(g, verts)
        bound = component_bound(solve_min_norm(comp))
        assert max_marked_probability_oracle(g, verts, 400) <= bound + 1e-9

    def test_t_max_validation(self, torus4):
        with pytest.raises(ValueError, match="at least 1"):
            max_marked_probability_oracle(torus4, {0}, 0)


class TestDiameterAndBudget:
    def test_cycle_diameter(self):
        assert estimate_diameter(cycle_graph(10)) == 5
        assert estimate_diameter(cycle_graph(11)) == 5

    def test_torus_diameter(self, torus4):
        assert estimate_diameter(torus4) == 4  # 2 + 2 wraparound steps

    def test_complete_diameter(self):
        assert estimate_diameter(complete_graph(7)) == 1

    def test_budget_cap(self):
        assert default_step_budget(cycle_graph(10)) == 250
        assert default_step_budget(cycle_graph(500)) == 10_000

    @pytest.mark.parametrize("build", [
        lambda: cycle_graph(62),  # diameter 31: 9610 steps, below the cap
        lambda: cycle_graph(64),  # diameter 32, the least that reaches the cap
        lambda: cycle_graph(66),
        lambda: torus2d_graph(3, 3),
        lambda: torus2d_graph(40, 22),
        lambda: torus2d_graph(64, 64),
        lambda: random_regular_graph(60, 3, 1),
        lambda: random_regular_graph(2000, 3, 5),
        lambda: build_graph([(v, v + 1) for v in range(1, 70)] + [(80, 81)], 90),
        lambda: build_graph([(v, v + 1) for v in range(2, 40)], 45),
    ], ids=["cycle62", "cycle64", "cycle66", "torus3", "torus40x22", "torus64", "rr60", "rr2000",
            "path70_isolated", "path38_isolated"])
    def test_budget_is_the_capped_square_of_the_estimate(self, build):
        g = build()
        assert default_step_budget(g) == max(1, min(10 * estimate_diameter(g) ** 2, 10_000))

    @pytest.mark.parametrize("n", [0, 3])
    def test_edgeless_graph_has_diameter_0_and_a_budget_of_1(self, n):
        g = build_graph([], n)
        assert estimate_diameter(g) == 0
        assert default_step_budget(g) == 1

    def test_budget_stops_its_sweeps_at_the_cap(self, monkeypatch):
        g = torus2d_graph(512, 512)  # diameter 512
        calls = []
        arcs_of = bounds._arcs_of
        monkeypatch.setattr(bounds, "_arcs_of", lambda g, v: calls.append(v.size) or arcs_of(g, v))
        assert default_step_budget(g) == 10_000
        assert len(calls) <= 32

    @pytest.mark.parametrize("build", [
        lambda: torus2d_graph(6, 9),
        lambda: random_regular_graph(300, 3, 2),
        lambda: complete_graph(12),
        lambda: build_graph([(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)], 6),  # a triangle with tails, and an isolated vertex
    ], ids=["torus6x9", "rr300", "k12", "tailed_triangle"])
    def test_eccentricity_matches_a_breadth_first_search(self, build):
        g = build()
        for source in range(0, g.n, max(1, g.n // 7)):
            levels, seen = [[source]], {source}
            while True:
                fresh = sorted({w for v in levels[-1] for w in g.neighbors(v)} - seen)
                if not fresh:
                    break
                seen.update(fresh)
                levels.append(fresh)
            for limit in (1, 2, len(levels) - 1, g.n):
                level = min(limit, len(levels) - 1)
                assert bounds._eccentricity(g, source, limit) == (level, levels[level][0])

    def test_budget_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on numpy 2.4, 15-28 ms of every default-budget run.
        script = ("import sys; from qwsearch import torus2d_graph, default_step_budget;"
                  " default_step_budget(torus2d_graph(64, 64)); print('numpy.ma' in sys.modules)")
        src = str(Path(bounds.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_an_isolated_vertex_0_does_not_cut_the_budget(self):
        # A 9-vertex path on vertices 1..9, then the same path on 0..8.
        isolated_first = build_graph([(v, v + 1) for v in range(1, 9)], 10)
        isolated_last = build_graph([(v, v + 1) for v in range(8)], 10)
        assert estimate_diameter(isolated_first) == estimate_diameter(isolated_last) == 8
        assert default_step_budget(isolated_first) == default_step_budget(isolated_last) == 640
