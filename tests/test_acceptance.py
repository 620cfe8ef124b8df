"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its elapsed time (run with `pytest -s tests/test_acceptance.py` to see
them all).  Tolerances and runtime budgets are asserted, not just logged.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from qwsearch import (
    InfeasibleComponentError,
    apply_query,
    build_state,
    component_bound,
    cycle_graph,
    evolve,
    exists_stationary,
    initial_state,
    make_assignment,
    marked_components,
    marked_probability,
    normalization_scale,
    random_regular_graph,
    solve_min_norm,
    step,
    torus2d_graph,
    total_bound,
    verify_stationary,
)
from qwsearch.walk import WalkState

from helpers import (
    block_coefficients,
    dense_step_matrix,
    farthest_point_brute_force,
    farthest_point_on_sphere,
    grow_connected_marked_set,
    max_marked_probability_oracle,
    random_simple_graph,
    random_unit_state_vector,
    sphere_ceiling,
    squared_distance,
)


@contextlib.contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num} PASS {name} ({elapsed:.2f}s, budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_cycle_pair_reproduction():
    with criterion(1, "cycle(5) marked pair: fixed point and flat probability", 1.0):
        g = cycle_graph(5)
        (comp,) = marked_components(g, {3, 4})
        asg = solve_min_norm(comp)
        assert asg.coefficients[(3, 4)] == pytest.approx(-1.0, abs=1e-12)
        state = build_state(g, [asg])
        advanced = step(state, {3, 4})
        assert np.max(np.abs(advanced.amplitudes - state.amplitudes)) <= 1e-12
        ps = []
        evolve(initial_state(g), {3, 4}, 500, observer=lambda t, p: ps.append(p))
        assert len(ps) == 501
        assert max(abs(p - 0.4) for p in ps) <= 1e-10


def test_criterion_2_lattice_block_states():
    with criterion(2, "torus 2x2 block: both stationary states, scales and probabilities", 1.0):
        for size in (4, 16):
            g = torus2d_graph(size, size)
            n = size * size
            verts, vertical, horizontal = block_coefficients(size, 1, 1, size, size)
            (comp,) = marked_components(g, verts)

            min_norm = solve_min_norm(comp)
            assert all(
                c == pytest.approx(-1.0, abs=1e-12) for c in min_norm.coefficients.values()
            )
            assert normalization_scale(g, [min_norm]) == pytest.approx(1.0 / math.sqrt(4 * n), rel=1e-10)
            s_min = build_state(g, [min_norm])
            assert marked_probability(s_min, verts) == pytest.approx(4.0 / n, rel=1e-10)
            assert verify_stationary(g, verts, s_min).residual <= 1e-12

            injected = make_assignment(
                comp, {e: -3.0 for e in vertical} | {e: 1.0 for e in horizontal}
            )
            assert normalization_scale(g, [injected]) == pytest.approx(1.0 / math.sqrt(4 * (n + 8)), rel=1e-10)
            s_inj = build_state(g, [injected])
            assert marked_probability(s_inj, verts) == pytest.approx(12.0 / (n + 8), rel=1e-10)
            assert verify_stationary(g, verts, s_inj).residual <= 1e-12


def _find_triangle(g):
    for u in range(g.n):
        for v in g.neighbors(u).tolist():
            if v <= u:
                continue
            common = np.intersect1d(g.neighbors(u), g.neighbors(v))
            common = common[common > v]
            if common.size:
                return [u, v, int(common[0])]
    return None


def _find_four_cycle(g):
    for u in range(g.n):
        for v in g.neighbors(u).tolist():
            for w in g.neighbors(v).tolist():
                if w == u:
                    continue
                common = np.intersect1d(g.neighbors(w), g.neighbors(u))
                common = common[(common != v) & (common != u) & (common != w)]
                if common.size:
                    return sorted({u, v, w, int(common[0])})
    return None


def test_criterion_3_bound_dominance():
    with criterion(3, "probability ceiling dominates simulation", 300.0):
        # Long run on the lattice block.
        g = torus2d_graph(16, 16)
        n = g.n
        verts, _, _ = block_coefficients(16, 1, 1, 16, 16)
        (comp,) = marked_components(g, verts)
        assignment = solve_min_norm(comp)
        bound = component_bound(assignment)
        assert bound == pytest.approx(32.0 / n, rel=1e-12)
        observed = max_marked_probability_oracle(g, verts, 5000)
        assert observed <= bound + 1e-9
        assert observed <= 0.0625  # ample empirical margin on this configuration
        sphere = sphere_ceiling([assignment])
        assert observed <= sphere + 1e-9
        assert sphere <= bound * (1 + 1e-12)
        print(f"  torus 16x16 block: observed {observed:.6f} <= sphere {sphere:.6f}"
              f" <= bound {bound:.6f} (margin {bound - observed:.6f})")

        # Randomized configurations: marked pairs, triangles, and 4-cycles
        # in random regular graphs.
        checked = 0
        seed = 0
        while checked < 50:
            seed += 1
            rng = np.random.default_rng(seed)
            d = int(rng.choice([3, 4, 5]))
            n = int(rng.integers(24, 201))
            if (n * d) % 2:
                n += 1
            host = random_regular_graph(n, d, seed=seed)
            kind = checked % 3
            if kind == 0:
                marked = list(host.edge_list()[int(rng.integers(host.edge_count))])
            elif kind == 1:
                marked = _find_triangle(host)
            else:
                marked = _find_four_cycle(host)
            if marked is None:
                continue
            comps = marked_components(host, marked)
            assert len(comps) == 1
            assignments = [solve_min_norm(c) for c in comps]
            report = total_bound(assignments)
            observed = max_marked_probability_oracle(host, marked, 2000)
            assert observed <= report.total_bound + 1e-9, (
                f"dominance violated: seed={seed} marked={marked} "
                f"observed={observed} bound={report.total_bound}"
            )
            sphere = sphere_ceiling(assignments)
            assert observed <= sphere + 1e-9, (
                f"sphere ceiling violated: seed={seed} marked={marked} observed={observed} sphere={sphere}"
            )
            assert sphere <= report.total_bound * (1 + 1e-12)
            checked += 1
        print(f"  {checked} randomized configurations dominated")


def test_criterion_4_pair_count_scaling():
    from qwsearch.experiments import select_disjoint_pairs

    with criterion(4, "disjoint marked pairs: ceilings add as k * 4d^2/m", 60.0):
        g = torus2d_graph(16, 16)
        m = g.edge_count
        for k in (1, 2, 3):
            marked = select_disjoint_pairs(g, k, seed=11)
            comps = marked_components(g, marked)
            assert len(comps) == k
            report = total_bound([solve_min_norm(c) for c in comps])
            expected = k * 4 * 4 * 4 / m
            assert expected == k * 0.125
            assert report.total_bound == pytest.approx(expected, rel=1e-12)
            observed = max_marked_probability_oracle(g, marked, 2000)
            assert observed <= report.total_bound
            print(f"  k={k}: bound {report.total_bound:.6f}, observed {observed:.6f}")


def test_criterion_5_existence_classifier_vs_least_squares():
    with criterion(5, "bipartite-balance classifier agrees with least-squares feasibility", 60.0):
        cases = 0
        bipartite_unequal = bipartite_equal = non_bipartite = 0
        for seed in range(60):
            rng = np.random.default_rng(1000 + seed)
            d = int(rng.choice([3, 4, 5]))
            n = int(rng.integers(10, 31))
            if (n * d) % 2:
                n += 1
            if d >= n:
                continue
            host = random_regular_graph(n, d, seed=seed)
            for _ in range(10):
                size = int(rng.integers(1, 6))
                marked = grow_connected_marked_set(rng, host, size)
                comps = marked_components(host, marked)
                if len(comps) != 1:
                    continue
                comp = comps[0]
                predicted = exists_stationary(comp)
                try:
                    asg = solve_min_norm(comp)
                    solved = True
                except InfeasibleComponentError:
                    solved = False
                assert solved == predicted, f"disagreement at seed={seed}, marked={marked}"
                if comp.bipartition is not None:
                    a, b = comp.bipartite_outgoing_sums()
                    if a != b:
                        assert not solved
                        bipartite_unequal += 1
                    else:
                        assert solved
                        bipartite_equal += 1
                else:
                    assert solved
                    non_bipartite += 1
                if solved:
                    state = build_state(host, [asg])
                    assert verify_stationary(host, marked, state).residual <= 1e-10
                cases += 1
        assert cases >= 500
        assert bipartite_unequal > 0 and bipartite_equal > 0 and non_bipartite > 0
        print(f"  {cases} cases: {bipartite_unequal} bipartite-unequal, "
              f"{bipartite_equal} bipartite-equal, {non_bipartite} non-bipartite")


def test_criterion_6_sphere_argmax_oracle_equivalence():
    with criterion(6, "closed-form farthest point matches brute-force search", 30.0):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            dim = int(rng.integers(2, 7))
            a = rng.standard_normal(dim)
            norm_a = float(np.linalg.norm(a))
            if norm_a < 0.2:
                a *= 0.2 / norm_a
                norm_a = float(np.linalg.norm(a))
            r = float(rng.uniform(0.1, 2.5))
            best = (r + norm_a) ** 2
            x = farthest_point_on_sphere(a, r)
            assert squared_distance(x, a) == pytest.approx(best, abs=1e-10)
            assert np.linalg.norm(x) == pytest.approx(r, abs=1e-12)
            _, f = farthest_point_brute_force(a, r, samples=20_000, seed=trial)
            assert f <= best + 1e-6
            assert f >= best - 1e-3


def test_criterion_7_operator_correctness():
    with criterion(7, "matrix-free step equals dense operator product; drift stays tiny", 60.0):
        rng = np.random.default_rng(77)
        for _ in range(20):
            g = random_simple_graph(rng, int(rng.integers(5, 14)), 0.45)
            assert g.arc_count <= 200
            k = int(rng.integers(1, max(2, g.n // 2)))
            marked = {int(v) for v in rng.choice(g.n, size=k, replace=False)}
            s = WalkState(random_unit_state_vector(rng, g.arc_count), g)
            dense = dense_step_matrix(g, marked) @ s.amplitudes
            assert np.max(np.abs(step(s, marked).amplitudes - dense)) <= 1e-12
        g32 = torus2d_graph(32, 32)
        final = evolve(initial_state(g32), {33, 34, 65, 66}, 10_000)
        drift = abs(final.norm() - 1.0)
        assert drift <= 1e-9
        print(f"  drift over 10^4 steps on torus 32x32: {drift:.2e}")


def test_criterion_8_performance():
    with criterion(8, "single step and 1000 steps on torus 512x512", 120.0):
        g = torus2d_graph(512, 512)
        marked = {0, 1}
        state = initial_state(g)
        state = step(state, marked)  # warm-up
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            state = step(state, marked)
            times.append(time.perf_counter() - t0)
        median_step = sorted(times)[len(times) // 2]
        print(f"  median step: {median_step * 1e3:.1f} ms over {g.arc_count} amplitudes")
        assert median_step <= 0.050
        t0 = time.perf_counter()
        evolve(initial_state(g), marked, 1000)
        thousand = time.perf_counter() - t0
        print(f"  1000 steps: {thousand:.1f} s")
        assert thousand <= 60.0


def test_criterion_9_searchable_configuration_grows():
    with criterion(9, "single marked vertex is searchable (probability grows 10x)", 120.0):
        g = torus2d_graph(100, 100)
        p0 = marked_probability(initial_state(g), {0})
        assert p0 == pytest.approx(4 / g.arc_count, rel=1e-12)
        observed = max_marked_probability_oracle(g, {0}, 2000)
        assert observed >= 10 * p0
        print(f"  p(0) = {p0:.2e}, max p = {observed:.3e} ({observed / p0:.0f}x)")


def test_criterion_10_no_speed_up_across_sizes():
    """The abstract's "no speed-up": on L x L tori, N times the ceiling of a
    marked 2x2 block and of an adjacent marked pair stays constant, so their
    marked probability stays O(1/N) at every step however long the walk
    runs, while a single marked vertex (AKR's search) climbs far above it."""
    with criterion(10, "block and pair ceilings scale as 1/N; a single vertex beats the pair 10x", 20.0):
        scaled = {"block": [], "pair": []}
        for side in (16, 32, 64):
            g = torus2d_graph(side, side)
            t_max = min(10 * side * side, 10**4)
            observed = {}
            for name, marked in (("block", block_coefficients(side, 1, 1, side, side)[0]), ("pair", [0, 1])):
                ceiling = total_bound([solve_min_norm(c) for c in marked_components(g, marked)]).total_bound
                observed[name] = max_marked_probability_oracle(g, marked, t_max)
                assert observed[name] < ceiling
                scaled[name].append(g.n * ceiling)
                print(f"  {side}x{side} {name}: N*ceiling {g.n * ceiling:.12f}, N*max p {g.n * observed[name]:.3f}")
            single = max_marked_probability_oracle(g, {0}, t_max)
            print(f"  {side}x{side} single vertex: max p {single:.4f}, {single / observed['pair']:.1f}x the pair")
            if side >= 32:
                assert single >= 10 * observed["pair"]
        for values in scaled.values():
            assert max(values) - min(values) <= 1e-12
