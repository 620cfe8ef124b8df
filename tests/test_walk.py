import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qwsearch import (
    NormDriftError,
    WalkState,
    apply_coin,
    apply_query,
    apply_shift,
    build_graph,
    cycle_graph,
    evolve,
    initial_state,
    marked_probability,
    read_state_snapshot,
    step,
    torus2d_graph,
    write_state_snapshot,
)

from helpers import (
    dense_coin,
    dense_query,
    dense_shift,
    dense_step_matrix,
    random_simple_graph,
    random_unit_state_vector,
)


def unit_state(g, seed):
    rng = np.random.default_rng(seed)
    return WalkState(random_unit_state_vector(rng, g.arc_count), g)


class TestInitialState:
    def test_cycle5_amplitudes(self, cycle5):
        s = initial_state(cycle5)
        assert s.amplitudes == pytest.approx(np.full(10, 0.316228), abs=1e-6)
        assert s.norm() == pytest.approx(1.0, abs=1e-15)

    def test_torus(self, torus4):
        s = initial_state(torus4)
        assert np.all(s.amplitudes == 1.0 / math.sqrt(torus4.arc_count))
        assert torus4.arc_count == 64

    def test_single_edge(self):
        s = initial_state(build_graph([(0, 1)], 2))
        assert np.all(s.amplitudes == 1.0 / math.sqrt(2))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="no arcs"):
            initial_state(build_graph([], 3))


class TestQuery:
    def test_flips_marked_arcs(self, cycle5):
        s = apply_query(initial_state(cycle5), {3, 4})
        a = 1.0 / math.sqrt(10)
        for arc in range(10):
            v = int(cycle5.arc_source[arc])
            expected = -a if v in (3, 4) else a
            assert s.amplitudes[arc] == expected

    def test_empty_marked_is_identity(self, cycle5):
        s = initial_state(cycle5)
        assert np.array_equal(apply_query(s, set()).amplitudes, s.amplitudes)

    def test_involution(self, torus4):
        s = unit_state(torus4, 3)
        twice = apply_query(apply_query(s, {1, 2, 5}), {1, 2, 5})
        assert np.array_equal(twice.amplitudes, s.amplitudes)

    def test_marked_out_of_range(self, cycle5):
        with pytest.raises(ValueError, match="out of range"):
            apply_query(initial_state(cycle5), {9})


class TestCoin:
    def test_degree2_is_swap(self, cycle5):
        amps = np.zeros(10)
        amps[cycle5.arc_index(0, 0)] = 0.8
        amps[cycle5.arc_index(0, 1)] = -0.6
        out = apply_coin(WalkState(amps, cycle5))
        assert out.amplitudes[cycle5.arc_index(0, 0)] == -0.6
        assert out.amplitudes[cycle5.arc_index(0, 1)] == 0.8

    def test_degree4_basis_vector(self, torus4):
        amps = np.zeros(torus4.arc_count)
        amps[torus4.arc_index(5, 0)] = 1.0
        out = apply_coin(WalkState(amps, torus4))
        got = out.amplitudes[torus4.offsets[5] : torus4.offsets[6]]
        assert got == pytest.approx([-0.5, 0.5, 0.5, 0.5], abs=1e-15)

    def test_zero_sum_vertex_negated(self, torus4):
        amps = np.zeros(torus4.arc_count)
        lo = int(torus4.offsets[7])
        amps[lo : lo + 4] = [0.5, -0.5, 0.5, -0.5]
        out = apply_coin(WalkState(amps, torus4))
        assert np.array_equal(out.amplitudes[lo : lo + 4], [-0.5, 0.5, -0.5, 0.5])

    def test_preserves_uniform_vector(self, torus4):
        s = initial_state(torus4)
        out = apply_coin(s)
        assert out.amplitudes == pytest.approx(s.amplitudes, abs=1e-15)

    def test_matches_dense(self, torus4):
        s = unit_state(torus4, 12)
        dense = dense_coin(torus4) @ s.amplitudes
        assert apply_coin(s).amplitudes == pytest.approx(dense, abs=1e-13)

    def test_isolated_vertex_is_skipped(self):
        g = build_graph([(0, 1)], 3)  # vertex 2 isolated
        s = unit_state(g, 4)
        out = apply_coin(s)
        assert out.amplitudes.size == 2
        assert out.norm() == pytest.approx(1.0, abs=1e-14)


class TestShift:
    def test_moves_to_reverse_arc(self, cycle5):
        amps = np.zeros(10)
        src = cycle5.arc_between(1, 2)
        amps[src] = 1.0
        out = apply_shift(WalkState(amps, cycle5))
        assert out.amplitudes[cycle5.arc_between(2, 1)] == 1.0
        assert out.amplitudes.sum() == 1.0

    def test_symmetric_state_unchanged(self, torus4):
        rng = np.random.default_rng(8)
        amps = rng.standard_normal(torus4.arc_count)
        sym = amps + amps[torus4.reverse]
        sym /= np.linalg.norm(sym)
        out = apply_shift(WalkState(sym, torus4))
        assert np.array_equal(out.amplitudes, sym)

    def test_involution(self, torus4):
        s = unit_state(torus4, 5)
        assert np.array_equal(apply_shift(apply_shift(s)).amplitudes, s.amplitudes)


class TestStep:
    def test_is_shift_coin_query_composition(self, torus4):
        s = unit_state(torus4, 21)
        marked = {0, 5, 6}
        composed = apply_shift(apply_coin(apply_query(s, marked)))
        assert np.array_equal(step(s, marked).amplitudes, composed.amplitudes)

    def test_empty_marked_fixes_initial_state(self, torus4):
        s = initial_state(torus4)
        out = step(s, set())
        assert out.amplitudes == pytest.approx(s.amplitudes, abs=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(17)
        for seed in range(5):
            g = random_simple_graph(rng, 10, 0.4)
            s = unit_state(g, seed)
            out = step(s, {0, 1})
            assert abs(out.norm() - 1.0) <= 1e-12

    def test_unitary_inner_products(self, torus16):
        u = unit_state(torus16, 1)
        v = unit_state(torus16, 2)
        marked = {17, 18, 33, 34}
        before = float(np.dot(u.amplitudes, v.amplitudes))
        after = float(np.dot(step(u, marked).amplitudes, step(v, marked).amplitudes))
        assert abs(after - before) <= 1e-10

    def test_matches_dense_on_random_graphs(self):
        rng = np.random.default_rng(99)
        for _ in range(6):
            g = random_simple_graph(rng, int(rng.integers(5, 11)), 0.45)
            marked = {int(v) for v in rng.choice(g.n, size=2, replace=False)}
            s = WalkState(random_unit_state_vector(rng, g.arc_count), g)
            dense = dense_step_matrix(g, marked) @ s.amplitudes
            assert step(s, marked).amplitudes == pytest.approx(dense, abs=1e-13)

    def test_individual_operators_match_dense(self):
        rng = np.random.default_rng(41)
        g = random_simple_graph(rng, 8, 0.5)
        s = WalkState(random_unit_state_vector(rng, g.arc_count), g)
        marked = {0, 3}
        assert apply_query(s, marked).amplitudes == pytest.approx(
            dense_query(g, marked) @ s.amplitudes, abs=1e-14
        )
        assert apply_coin(s).amplitudes == pytest.approx(
            dense_coin(g) @ s.amplitudes, abs=1e-13
        )
        assert apply_shift(s).amplitudes == pytest.approx(
            dense_shift(g) @ s.amplitudes, abs=1e-14
        )


class TestMarkedProbability:
    def test_uniform_cycle(self, cycle5):
        assert marked_probability(initial_state(cycle5), {3, 4}) == pytest.approx(0.4, abs=1e-15)

    def test_empty_marked(self, cycle5):
        assert marked_probability(initial_state(cycle5), set()) == 0.0

    def test_full_marked_set_is_one(self, torus4):
        s = unit_state(torus4, 33)
        assert marked_probability(s, range(torus4.n)) == pytest.approx(1.0, abs=1e-12)


class TestEvolve:
    def test_zero_steps(self, cycle5):
        seen = []
        s = initial_state(cycle5)
        out = evolve(s, {3, 4}, 0, observer=lambda t, p: seen.append((t, p)))
        assert np.array_equal(out.amplitudes, s.amplitudes)
        assert seen == [(0, pytest.approx(0.4, abs=1e-15))]

    def test_observer_sees_every_step(self, cycle5):
        seen = []
        evolve(initial_state(cycle5), {3, 4}, 7, observer=lambda t, p: seen.append(t))
        assert seen == list(range(8))

    def test_matches_repeated_step(self, torus4):
        marked = {5, 6}
        s = initial_state(torus4)
        by_evolve = evolve(s, marked, 9)
        by_step = s
        for _ in range(9):
            by_step = step(by_step, marked)
        assert np.array_equal(by_evolve.amplitudes, by_step.amplitudes)

    def test_input_state_not_mutated(self, torus4):
        s = initial_state(torus4)
        before = s.amplitudes.copy()
        evolve(s, {1}, 5)
        assert np.array_equal(s.amplitudes, before)

    def test_norm_guard_halts(self, cycle5):
        bad = WalkState(np.full(10, 1.0), cycle5)  # norm sqrt(10), not 1
        with pytest.raises(NormDriftError, match="step 1"):
            evolve(bad, {0}, 10)

    def test_norm_guard_halts_on_nan(self, cycle5):
        with pytest.raises(NormDriftError, match="step 1"):
            evolve(WalkState(np.full(10, np.nan), cycle5), {0}, 10)

    def test_negative_t_max(self, cycle5):
        with pytest.raises(ValueError, match="nonnegative"):
            evolve(initial_state(cycle5), set(), -1)

    def test_drift_stays_tiny_over_thousand_steps(self):
        g = torus2d_graph(8, 8)
        final = evolve(initial_state(g), {9, 10}, 1000)
        assert abs(final.norm() - 1.0) <= 1e-10


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_shift_then_shift_is_identity_on_random_states(seed):
    g = torus2d_graph(4, 4)
    s = WalkState(random_unit_state_vector(np.random.default_rng(seed), g.arc_count), g)
    assert np.array_equal(apply_shift(apply_shift(s)).amplitudes, s.amplitudes)


class TestSnapshotIO:
    def test_round_trip_bit_exact(self, tmp_path, torus4):
        s = unit_state(torus4, 77)
        path = tmp_path / "state.txt"
        write_state_snapshot(s, path)
        again = read_state_snapshot(torus4, path)
        assert np.array_equal(again.amplitudes, s.amplitudes)

    def test_snapshot_deterministic(self, tmp_path, cycle5):
        s = initial_state(cycle5)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_state_snapshot(s, p1)
        write_state_snapshot(s, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_arc_rejected(self, tmp_path, cycle5):
        path = tmp_path / "short.txt"
        write_state_snapshot(initial_state(cycle5), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="has 9 arcs"):
            read_state_snapshot(cycle5, path)

    def test_duplicate_arc_rejected(self, tmp_path, cycle5):
        path = tmp_path / "dup.txt"
        write_state_snapshot(initial_state(cycle5), path)
        lines = path.read_text().splitlines()
        lines[1] = lines[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="duplicate arc"):
            read_state_snapshot(cycle5, path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_amplitude_rejected(self, tmp_path, cycle5, value):
        path = tmp_path / "nan.txt"
        write_state_snapshot(initial_state(cycle5), path)
        lines = path.read_text().splitlines()
        lines[2] = " ".join(lines[2].split()[:2] + [value])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f":3: amplitude '{value}' is not finite"):
            read_state_snapshot(cycle5, path)
