import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qwsearch.walk as walk
from qwsearch import (
    Graph,
    NormDriftError,
    WalkState,
    apply_coin,
    apply_query,
    apply_shift,
    build_graph,
    complete_graph,
    cycle_graph,
    evolve,
    initial_state,
    marked_components,
    marked_probability,
    random_regular_graph,
    read_edge_list,
    read_state_snapshot,
    step,
    torus2d_graph,
    write_edge_list,
    write_state_snapshot,
)
from qwsearch.graphs import _arcs_of
from qwsearch.walk import _CoinPlan, _Kernel, _coin_plan, _port_sums

from helpers import (
    SHIFT_GRAPHS,
    layout_blocks,
    port_major_shift,
    dense_coin,
    dense_query,
    dense_shift,
    dense_step_matrix,
    random_simple_graph,
    random_unit_state_vector,
    reference_coin_of,
    reference_evolve,
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

    def test_amplitude_count_must_match_the_arcs(self, cycle5):
        with pytest.raises(ValueError, match="^amplitude vector of length 3 does not match arc count 10$"):
            WalkState(np.zeros(3), cycle5)


class TestQuery:
    def test_flips_marked_arcs(self, cycle5):
        s = apply_query(initial_state(cycle5), {3, 4})
        a = 1.0 / math.sqrt(10)
        sources = cycle5.arc_source
        for arc in range(10):
            v = int(sources[arc])
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

    @pytest.mark.parametrize("n", [3, 0])
    def test_arcless_state_stays_empty(self, n):
        out = apply_coin(WalkState(np.zeros(0), build_graph([], n)))
        assert out.amplitudes.dtype == np.float64 and out.amplitudes.size == 0


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

    @pytest.mark.parametrize("size", [0, 1, 100, walk._DOT_RUN])
    def test_sum_of_squares_is_one_dot_up_to_a_run(self, size):
        x = np.random.default_rng(size).standard_normal(size)
        assert walk._sum_sq(x).hex() == float(np.dot(x, x)).hex()

    @pytest.mark.parametrize("size", [3 * walk._DOT_RUN + 5, walk._DOT_RUN + 1, 31 * walk._DOT_RUN + 17, 1 << 20])
    def test_sum_of_squares_adds_the_dots_of_runs_in_order(self, size):
        # A longer dot is split in an order set by the BLAS thread count.
        run = walk._DOT_RUN
        x = np.random.default_rng(3).standard_normal(size)
        total = 0.0
        for a in range(0, x.size, run):
            total += float(np.dot(x[a : a + run], x[a : a + run]))
        assert walk._sum_sq(x).hex() == total.hex()

    @pytest.mark.parametrize("width", [0, 5, 2 * walk._DOT_RUN, 2 * walk._DOT_RUN + 3])
    def test_sum_of_squares_of_rows_adds_every_whole_run_then_every_tail(self, width):
        run = walk._DOT_RUN
        rows = np.random.default_rng(width).standard_normal((4, 3 * run))[:, 7 : 7 + width]  # strided rows
        cut = width - width % run
        total = 0.0
        for row in rows:
            for a in range(0, cut, run):
                total += float(np.dot(row[a : a + run], row[a : a + run]))
        for row in rows if cut < width else ():
            total += float(np.dot(row[cut:], row[cut:]))
        assert walk._sum_sq(rows).hex() == total.hex()


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

    @pytest.mark.parametrize("n", [3, 0])
    def test_arcless_state_fails_the_norm_guard_at_step_1(self, n):
        # The empty state has norm 0, so it halts like any other zero state.
        seen = []
        with pytest.raises(NormDriftError, match=r"^norm drifted to 0\.0 at step 1; aborting evolution$"):
            evolve(WalkState(np.zeros(0), build_graph([], n)), [], 5, observer=lambda t, p: seen.append((t, p)))
        assert seen == [(0, 0.0)]
        out = evolve(WalkState(np.zeros(0), build_graph([], n)), [], 0, observer=lambda t, p: seen.append((t, p)))
        assert out.amplitudes.size == 0 and seen == [(0, 0.0), (0, 0.0)]

    def test_negative_t_max(self, cycle5):
        with pytest.raises(ValueError, match="nonnegative"):
            evolve(initial_state(cycle5), set(), -1)

    def test_drift_stays_tiny_over_thousand_steps(self):
        g = torus2d_graph(8, 8)
        final = evolve(initial_state(g), {9, 10}, 1000)
        assert abs(final.norm() - 1.0) <= 1e-10


def irregular_graph():
    """Degrees 2 and 3 plus three isolated vertices (9, 10, 11)."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 5), (2, 8), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
    return build_graph(edges, 12)


def mixed_graph():
    """Degrees 4 to 11, on both sides of 8, plus four isolated vertices
    (3, 10, 17 and 24) among them: blocks and the segment in one plan."""
    rng = np.random.default_rng(8)
    keep = [v for v in range(28) if v % 7 != 3]
    return build_graph([(u, v) for i, u in enumerate(keep) for v in keep[i + 1:] if rng.random() < 0.35], 28)


def sparse_irregular_graph():
    """4,000 vertices, 200 of them isolated, each other one drawing one to
    three random partners: degrees 1 to 12."""
    rng = np.random.default_rng(3)
    active = rng.permutation(4000)[200:]
    edges = {(min(u, w), max(u, w)) for u in active for w in rng.choice(active, rng.integers(1, 4)) if u != w}
    return build_graph(sorted(edges), 4000)


@pytest.mark.parametrize("build", [irregular_graph, mixed_graph, lambda: build_graph([], 3)],
                         ids=["irregular", "mixed", "no_edges"])
def test_arcs_of_matches_a_per_vertex_concatenation(build):
    g = build()
    isolated = np.flatnonzero(g.degrees == 0)
    shuffled = np.random.default_rng(g.n).permutation(g.n)
    for vertices in ([], isolated, np.arange(g.n), shuffled[: g.n // 2], [*isolated, g.n - 1, 0]):
        vertices = np.array(vertices, dtype=np.int64)
        got = _arcs_of(g, vertices)
        assert got.dtype == np.int64
        assert got.tolist() == [arc for v in vertices for arc in range(g.offsets[v], g.offsets[v + 1])]


# Graphs for the step kernel: one block at d = 1..8 (complete_graph(7) is
# 6-regular), one segment beyond d = 8, blocks on irregular graphs, and
# blocks with a segment on the mixed graph.
KERNEL_GRAPHS = {
    **{f"regular_d{d}": (lambda d=d: random_regular_graph(20, d, seed=d)) for d in range(1, 10)},
    "complete7": lambda: complete_graph(7),
    "complete12": lambda: complete_graph(12),
    "irregular": irregular_graph,
    "mixed": mixed_graph,
}

# A case's seed is its index here, so adding a graph moves the seeds of the
# cases sorted after it.
CASES = sorted(KERNEL_GRAPHS) + sorted(SHIFT_GRAPHS)


def mixed_unit_amplitudes(g, seed):
    """A unit state on ``g`` with mixed magnitudes and signed zeros."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(g.arc_count) * 10.0 ** rng.integers(-6, 7, size=g.arc_count)
    amps[rng.choice(g.arc_count, size=4, replace=False)] = [0.0, -0.0, -0.0, 0.0]
    return amps / np.linalg.norm(amps)


def kernel_case(name):
    """A graph, a unit state with mixed magnitudes and signed zeros, and two
    marked vertices of positive degree."""
    g = {**KERNEL_GRAPHS, **SHIFT_GRAPHS}[name]()
    return g, mixed_unit_amplitudes(g, CASES.index(name)), [0, g.n // 2]


def assert_runs_tile_the_layout(g, plan):
    """The runs follow on from each other in position order, the blocks'
    rows and then the segment, each ascending, and hold every arc once."""
    runs = sorted(walk._runs(g, plan), key=lambda run: run[0])
    ends = [start + arcs.size for start, arcs in runs]
    assert [start for start, _ in runs] == [0] + ends[:-1] and ends[-1] == g.arc_count
    assert all(np.all(np.diff(arcs) > 0) for _, arcs in runs)
    sources = g.arc_source
    for start, arcs in runs:  # a block's positions hold its degree's arcs, the segment the rest
        d = next((d for d, first, width in plan.blocks if first <= start < first + d * width), None)
        degrees = g.degrees[sources[arcs]]
        assert np.all(degrees == d) if d else np.all(degrees > walk._PORT_MAJOR_MAX_DEGREE)
    assert np.array_equal(np.sort(np.concatenate([arcs for _, arcs in runs])), np.arange(g.arc_count))
    segment_arcs = g.degrees[g.degrees > walk._PORT_MAJOR_MAX_DEGREE].sum()
    assert plan.segment == g.arc_count - segment_arcs


@pytest.mark.parametrize("name", ["irregular", "mixed", "complete12", "regular_d4"])
def test_runs_of_a_few_vertices_match_the_reference(name, monkeypatch):
    """Runs cover at most _BLOCK_VERTICES vertices; lowered to 5, the mixed
    graph's blocks and segment each take several runs."""
    monkeypatch.setattr(walk, "_BLOCK_VERTICES", 5)
    g, amps, marked = kernel_case(name)
    assert_runs_tile_the_layout(g, _coin_plan(g))
    seen = []
    out = evolve(WalkState(amps, g), marked, 30, observer=lambda t, p: seen.append(p))
    ref_seen, ref_amps = reference_evolve(g, amps, marked, 30)
    assert np.array(seen).tobytes() == np.array(ref_seen).tobytes()
    assert out.amplitudes.tobytes() == ref_amps.tobytes()
    assert step(WalkState(amps, g), marked).amplitudes.tobytes() == reference_evolve(g, amps, marked, 1)[1].tobytes()
    assert apply_coin(WalkState(amps, g)).amplitudes.tobytes() == reference_coin_of(g)(amps).tobytes()


@pytest.mark.parametrize("name", CASES)
class TestStepKernel:
    """The kernel against the plain reduceat loop, bit for bit."""

    def test_evolve_matches_reference(self, name):
        g, amps, marked = kernel_case(name)
        seen = []
        out = evolve(WalkState(amps, g), marked, 30, observer=lambda t, p: seen.append(p))
        ref_seen, ref_amps = reference_evolve(g, amps, marked, 30)
        assert np.array(seen).tobytes() == np.array(ref_seen).tobytes()
        assert out.amplitudes.tobytes() == ref_amps.tobytes()

    def test_step_matches_reference(self, name):
        g, amps, marked = kernel_case(name)
        _, ref_amps = reference_evolve(g, amps, marked, 1)
        assert step(WalkState(amps, g), marked).amplitudes.tobytes() == ref_amps.tobytes()

    def test_apply_coin_matches_reference(self, name):
        g, amps, _ = kernel_case(name)
        assert apply_coin(WalkState(amps, g)).amplitudes.tobytes() == reference_coin_of(g)(amps).tobytes()

    def test_int64_arc_indices_evolve_alike(self, name):
        # A graph past the int32 limit stores its arc indices as int64.
        g, amps, marked = kernel_case(name)
        wide = Graph(g.n, g.offsets, g.targets.astype(np.int64), g.reverse.astype(np.int64), g.degrees)
        assert g.targets.dtype == g.reverse.dtype == np.int32 and wide.arc_source.dtype == np.int64
        runs = []
        for h in (g, wide):
            seen = []
            out = evolve(WalkState(amps, h), marked, 30, observer=lambda t, p: seen.append(p))
            runs.append((np.array(seen).tobytes(), out.amplitudes.tobytes(),
                         step(WalkState(amps, h), marked).amplitudes.tobytes(),
                         apply_coin(WalkState(amps, h)).amplitudes.tobytes(),
                         apply_shift(WalkState(amps, h)).amplitudes.tobytes()))
        assert runs[0] == runs[1]

    def test_nan_is_caught_by_drift_guard(self, name):
        g, amps, marked = kernel_case(name)
        amps[g.arc_count // 2] = np.nan
        with pytest.raises(NormDriftError, match="nan at step 1"):
            evolve(WalkState(amps, g), marked, 5)


@pytest.mark.parametrize("name", sorted(SHIFT_GRAPHS))
def test_row_slices_match_reference_however_many_fix_ups(name, monkeypatch):
    """Every port-major graph sliced, fix-ups and all, against the plain loop."""
    monkeypatch.setattr(walk, "_SLICE_MAX_FIX_FRACTION", 1.0)
    g, amps, marked = kernel_case(name)
    assert _coin_plan(g).slices is not None
    seen = []
    out = evolve(WalkState(amps, g), marked, 30, observer=lambda t, p: seen.append(p))
    ref_seen, ref_amps = reference_evolve(g, amps, marked, 30)
    assert np.array(seen).tobytes() == np.array(ref_seen).tobytes()
    assert out.amplitudes.tobytes() == ref_amps.tobytes()
    _, ref_amps = reference_evolve(g, amps, marked, 1)
    assert step(WalkState(amps, g), marked).amplitudes.tobytes() == ref_amps.tobytes()


# Blocked-step cases: (graph, block vertices, marked vertices).
BLOCK_CASES = {
    # rows != cols and an odd vertex count; each marked pair of neighbours
    # straddles a block boundary (the 8 blocks start at 0, 7, 15, ..., 55).
    "torus7x9": (lambda: torus2d_graph(7, 9), 8, [14, 15, 30, 31, 46, 47]),
    # Blocks of 5 vertices with a halo of 13 (max|k| = cols): every block
    # reads sums past its neighbouring blocks on both sides.
    "torus6x13_halo_over_blocks": (lambda: torus2d_graph(6, 13), 5, [0, 38, 39]),
    "cycle101": (lambda: cycle_graph(101), 16, [33, 34, 67]),
}


def _at(view, base):
    """The index in ``base`` of ``view``'s first element."""
    return (view.ctypes.data - base.ctypes.data) // base.itemsize


def assert_block_views(g, kernel, widths):
    """The kernel's block views, read back from where they lie in its
    buffers, split the vertices into blocks of ``widths`` in both step
    directions.  Each block's rows and sums span the block and at most
    its halo, its slice subtracts write inside it and read inside its
    rows, and its fix-ups read its own vertices, into the next run of
    ``fix_sums``.  Across the blocks, the subtracts of row q write
    positions ``lo:hi`` of its slice, each once."""
    plan, n = kernel.plan, g.n
    [(d, _, _)] = plan.blocks
    halo = max(abs(k) for _, k, _, _ in plan.slices)
    bounds = np.cumsum([0] + widths)
    for src, dst, views in ((kernel.x, kernel.spare, kernel.block_views[0]),
                            (kernel.spare, kernel.x, kernel.block_views[1])):
        assert len(views) == len(widths)
        written, fix_run = np.zeros((d, n), dtype=int), 0
        for (rows, sums, _, fix_at, fix_sums, moves, _), a, b in zip(views, bounds, bounds[1:]):
            s = _at(rows, src)
            e = s + rows.shape[1]
            assert rows.shape == (d, e - s) and _at(sums, kernel.sums) == 0 and sums.size == e - s
            assert max(0, a - halo) <= s <= a and b <= e <= min(n, b + halo)
            assert np.all((a <= fix_at + s) & (fix_at + s < b))
            assert fix_sums.size == fix_at.size
            # numpy may point an empty view anywhere
            assert fix_sums.size == 0 or _at(fix_sums, kernel.fix_sums) == fix_run
            fix_run += fix_sums.size
            for sums_part, rows_part, out in moves:
                (q, j0), (p, r0) = divmod(_at(out, dst), n), divmod(_at(rows_part, src), n)
                assert a <= j0 < j0 + out.size <= b and s <= r0 and r0 + out.size <= e
                assert plan.slices[q][:2] == (p, r0 - j0) and rows_part.size == out.size
                assert _at(sums_part, kernel.sums) == r0 - s and sums_part.size == out.size
                written[q, j0 : j0 + out.size] += 1
        assert fix_run == plan.fix.size
        for q, (_, _, lo, hi) in enumerate(plan.slices):
            assert np.array_equal(written[q], (np.arange(n) >= lo) & (np.arange(n) < hi)), q


@pytest.fixture
def blocked(monkeypatch):
    """Slice every port-major plan and, once the one-block step has run,
    lower the block width so small graphs take several blocks."""
    monkeypatch.setattr(walk, "_SLICE_MAX_FIX_FRACTION", 1.0)

    def use(name):
        build, block, marked = BLOCK_CASES[name]
        g = build()
        assert _coin_plan(g).slices is not None
        rng = np.random.default_rng(len(name))
        amps = random_unit_state_vector(rng, g.arc_count)
        whole_seen = []
        whole = evolve(WalkState(amps, g), marked, 60, observer=lambda t, p: whole_seen.append(p))
        monkeypatch.setattr(walk, "_BLOCK_VERTICES", block)
        return g, amps, marked, whole_seen, whole.amplitudes

    return use


def nan_scale_at(monkeypatch, call):
    """Give the ``call``-th block that _run_block runs a NaN scale."""
    real, calls = walk._run_block, []

    def poisoned(views):
        calls.append(views)
        return real(views[:2] + (np.nan,) + views[3:] if len(calls) == call else views)

    monkeypatch.setattr(walk, "_run_block", poisoned)


class TestBlockedStep:
    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_matches_the_whole_row_step_bit_for_bit(self, blocked, name):
        g, amps, marked, whole_seen, whole = blocked(name)
        assert len(_Kernel(g, amps, np.empty(0, dtype=np.int64)).block_views[0]) > 1
        seen = []
        out = evolve(WalkState(amps, g), marked, 60, observer=lambda t, p: seen.append(p))
        assert np.array(seen).tobytes() == np.array(whole_seen).tobytes()
        assert out.amplitudes.tobytes() == whole.tobytes()
        ref_seen, ref_amps = reference_evolve(g, amps, marked, 60)
        assert out.amplitudes.tobytes() == ref_amps.tobytes()

    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_norm_matches_a_dot_of_the_state(self, blocked, monkeypatch, name):
        g, amps, marked, *_ = blocked(name)
        for width in (BLOCK_CASES[name][1], g.n):  # several blocks, then one block
            monkeypatch.setattr(walk, "_BLOCK_VERTICES", width)
            kernel = _Kernel(g, amps, walk._marked_arc_indices(g, marked))
            assert (len(kernel.block_views[0]) > 1) == (width < g.n)
            for _ in range(20):
                kernel.step()
                x = kernel.x
                if width == g.n:
                    assert kernel.norm() == math.sqrt(np.dot(x, x))
                else:  # the blocks' dots and the fix-up correction: within summation error
                    exact = math.fsum(x * x)
                    assert abs(kernel.norm() ** 2 - exact) <= g.arc_count * 2**-52 * exact

    def test_blocks_cover_the_vertices_and_read_within_their_halo(self, monkeypatch):
        monkeypatch.setattr(walk, "_SLICE_MAX_FIX_FRACTION", 1.0)
        monkeypatch.setattr(walk, "_BLOCK_VERTICES", 5)
        g = torus2d_graph(6, 13)
        kernel = _Kernel(g, initial_state(g).amplitudes, np.empty(0, dtype=np.int64))
        # ceil(78 / 5) = 16 blocks, widths 4 and 5: no runt
        assert_block_views(g, kernel, [4, 5, 5, 5, 5, 5, 5, 5, 4, 5, 5, 5, 5, 5, 5, 5])

    def test_one_block_up_to_the_block_width_and_the_norm_from_one_dot(self):
        g = torus2d_graph(16, 16)
        assert g.n <= walk._BLOCK_VERTICES
        amps = random_unit_state_vector(np.random.default_rng(5), g.arc_count)
        kernel = _Kernel(g, amps, walk._marked_arc_indices(g, [0, 1, 17]))
        for views in kernel.block_views:
            [(rows, sums, _, _, _, _, _)] = views  # exactly one block
            assert rows.shape == (4, g.n) and sums.size == g.n  # over vertices 0..n
            assert np.shares_memory(sums, kernel.sums)
        for _ in range(5):
            kernel.step()
            assert kernel.norm() == math.sqrt(np.dot(kernel.x, kernel.x))

    @pytest.mark.parametrize("build, widths", [
        (lambda: torus2d_graph(128, 128), [16384]),
        (lambda: torus2d_graph(256, 256), [16384] * 4),
        (lambda: cycle_graph(40000), [13333, 13333, 13334]),
        (lambda: torus2d_graph(182, 181), [10980, 10981, 10981]),  # 32,942 vertices: no runt block
    ], ids=["torus128", "torus256", "cycle40000", "torus182x181"])
    def test_block_widths_at_the_real_block_size(self, build, widths):
        g = build()
        assert _coin_plan(g).slices is not None
        assert_block_views(g, _Kernel(g, initial_state(g).amplitudes, np.empty(0, dtype=np.int64)), widths)

    def test_two_blocks_of_a_256x256_torus_match_the_reference(self):
        g = torus2d_graph(256, 256)
        amps = random_unit_state_vector(np.random.default_rng(9), g.arc_count)
        marked = [0, 1, 32640, 32896]  # 32640 and 32896 are neighbours across the block boundary
        seen = []
        out = evolve(WalkState(amps, g), marked, 5, observer=lambda t, p: seen.append(p))
        ref_seen, ref_amps = reference_evolve(g, amps, marked, 5)
        assert np.array(seen).tobytes() == np.array(ref_seen).tobytes()
        assert out.amplitudes.tobytes() == ref_amps.tobytes()

    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_step_and_apply_coin_match_the_reference(self, blocked, name):
        g, amps, marked, *_ = blocked(name)
        state = WalkState(amps, g)
        assert step(state, marked).amplitudes.tobytes() == reference_evolve(g, amps, marked, 1)[1].tobytes()
        assert apply_coin(state).amplitudes.tobytes() == reference_coin_of(g)(amps).tobytes()

    def test_nan_in_one_block_stops_at_its_step(self, blocked, monkeypatch):
        g, amps, marked, *_ = blocked("torus7x9")  # 8 blocks
        nan_scale_at(monkeypatch, 3 * 8)  # the last block of step 3
        seen = []
        with pytest.raises(NormDriftError, match="nan at step 3"):
            evolve(WalkState(amps, g), marked, 10, observer=lambda t, p: seen.append(t))
        assert seen == [0, 1, 2]


def test_nan_in_a_gather_block_stops_at_its_step(monkeypatch):
    # The gather plan's degree blocks run through the same _run_block as the sliced plan's.
    g = mixed_graph()
    plan = _coin_plan(g)
    assert plan.slices is None and [d for d, _, _ in plan.blocks] == [4, 6, 7, 8] and plan.segment < g.arc_count
    nan_scale_at(monkeypatch, 3 * 4)  # the last block of step 3
    seen = []
    with pytest.raises(NormDriftError, match="nan at step 3"):
        evolve(initial_state(g), [0, 1], 10, observer=lambda t, p: seen.append(t))
    assert seen == [0, 1, 2]


def guard_case(blocked, name):
    """A multi-block sliced walk: torus7x9 in 8 blocks, or the 256x256 torus
    in blocks of the real size."""
    if name == "torus7x9":
        g, amps, marked, *_ = blocked(name)
    else:
        g = torus2d_graph(256, 256)
        amps, marked = random_unit_state_vector(np.random.default_rng(11), g.arc_count), [0, 1, 32767, 32768]
    assert len(walk._block_bounds(g.n)) == (8 if name == "torus7x9" else 4)
    return g, amps, marked


def poison_step_3(monkeypatch, g, where):
    """Make step 3 write a NaN at one position of its output: one that only
    a slice writes, in an early block ("early"); the first of the last
    block ("last"); or a fix-up's, in an early block ("early_fix").  The
    first two are summed with their block, as soon as it is written; the
    third only by the one correction over all the fix-ups."""
    plan, bounds = _coin_plan(g), walk._block_bounds(g.n)
    cols, is_fix = np.arange(g.arc_count) % g.n, np.zeros(g.arc_count, dtype=bool)
    is_fix[plan.fix] = True
    early, last = cols < bounds[-1][0], cols >= bounds[-1][0]
    at = int(np.flatnonzero({"early": early & ~is_fix, "last": last, "early_fix": early & is_fix}[where])[0])
    if is_fix[at]:  # through its coin sum, once the last block has gathered them all
        block, buffer, at = len(bounds) - 1, "fix_sums", int(np.flatnonzero(plan.fix == at)[0])
    else:  # in the output, once its block has written it
        block, buffer = next(i for i, (a, b) in enumerate(bounds) if a <= cols[at] < b), "spare"
    kernels, calls = [], []
    real_step, real_block = _Kernel.step, walk._run_block

    def step(self):
        kernels.append(self)
        real_step(self)

    def run_block(views):
        real_block(views)
        calls.append(views)
        if len(calls) == 2 * len(bounds) + block + 1:
            getattr(kernels[-1], buffer)[at] = np.nan

    monkeypatch.setattr(_Kernel, "step", step)
    monkeypatch.setattr(walk, "_run_block", run_block)


class TestFoldedNormGuard:
    """The guard of a multi-block sliced step sums its squares block by
    block and corrects for the fix-ups; a NaN in any part stops the walk."""

    @pytest.mark.parametrize("where", ["early", "last", "early_fix"])
    @pytest.mark.parametrize("name", ["torus7x9", "torus256"])
    def test_nan_in_each_part_stops_at_its_step(self, blocked, monkeypatch, name, where):
        g, amps, marked = guard_case(blocked, name)
        poison_step_3(monkeypatch, g, where)
        seen = []
        with pytest.raises(NormDriftError, match="nan at step 3"):
            evolve(WalkState(amps, g), marked, 10, observer=lambda t, p: seen.append(t))
        assert seen == [0, 1, 2]

    @pytest.mark.parametrize("name", ["torus7x9", "torus256"])
    def test_buffers_are_written_before_the_guard_reads_them(self, blocked, monkeypatch, name):
        g, amps, marked = guard_case(blocked, name)
        real = walk._page_placed

        def nan_filled(size, quarter, alloc=np.empty):
            out = real(size, quarter, alloc)
            if alloc is np.empty:  # every buffer not asked for zeroed
                out.fill(np.nan)
            return out

        monkeypatch.setattr(walk, "_page_placed", nan_filled)
        seen = []
        out = evolve(WalkState(amps, g), marked, 20, observer=lambda t, p: seen.append(p))
        ref_seen, ref_amps = reference_evolve(g, amps, marked, 20)
        assert np.array(seen).tobytes() == np.array(ref_seen).tobytes()
        assert out.amplitudes.tobytes() == ref_amps.tobytes()


# Prints, for a multi-block sliced plan (the 256x256 torus in 4 blocks) and a
# gather plan (a random 3-regular graph on 40,000 vertices), WalkState.norm
# of a random state and the guard's sum of squares after each of 3 steps.
# The state is scaled through math.fsum, whose bits no BLAS thread moves.
GUARD_SUMS_SCRIPT = """
import math
import numpy as np
from qwsearch import WalkState, random_regular_graph, torus2d_graph
from qwsearch.walk import _Kernel, _marked_arc_indices
for g, marked in ((torus2d_graph(256, 256), [0, 1, 32640, 32896]), (random_regular_graph(40000, 3, seed=1), [0, 1, 2])):
    amps = np.random.default_rng(7).standard_normal(g.arc_count)
    amps /= math.sqrt(math.fsum(amps * amps))
    kernel = _Kernel(g, amps, _marked_arc_indices(g, marked))
    blocks = len(kernel.block_views[0]) if kernel.plan.slices is not None else 0
    sums = []
    for _ in range(3):
        kernel.step()
        sums.append(kernel.sum_sq.hex())
    print(blocks, WalkState(amps, g).norm().hex(), *sums)
"""


def test_guard_and_norm_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot of more than 10,000 elements across its threads,
    # in an order set by their count; every run _sum_sq dots is shorter.
    src = str(Path(walk.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", GUARD_SUMS_SCRIPT], capture_output=True, text=True, env=env,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(proc.stdout)
    assert [line.split()[0] for line in outputs[0].splitlines()] == ["4", "0"]
    assert outputs[0] == outputs[1]


def assert_store_starts_on_a_line(outs, base, start, stop):
    """``outs`` write positions ``start:stop`` of ``base`` in order, and each
    starts on a 64-byte line or is a head of fewer than 8 elements, at
    ``start``, that ends on a line or at ``stop``."""
    at = start
    for out in outs:
        assert _at(out, base) == at and out.size > 0
        if out.ctypes.data % 64:
            assert at == start and out.size < 8
            assert (out.ctypes.data + out.nbytes) % 64 == 0 or at + out.size == stop
        at += out.size
    assert at == stop


# Sliced layouts for the 64-byte line tests: (graph, block vertices).
LINE_SLICED = {
    "torus128": (lambda: torus2d_graph(128, 128), 1 << 14),  # the ±1 rows start 8 and 16 bytes past a line
    "torus256_four_blocks": (lambda: torus2d_graph(256, 256), 1 << 14),
    "torus7x9_blocks_of_8": (lambda: torus2d_graph(7, 9), 8),
    "torus6x13_blocks_of_5": (lambda: torus2d_graph(6, 13), 5),
    "cycle101_blocks_of_16": (lambda: cycle_graph(101), 16),
}

# Layouts whose row starts, together, fall at every residue mod 8 of a
# 64-byte line in both plans, and one whose segment starts mid-line:
# (graph, sliced).
LINE_LAYOUTS = {
    "torus5x5": (lambda: torus2d_graph(5, 5), True),  # rows at 0, 25, 50, 75: residues 0-3
    "torus7x9": (lambda: torus2d_graph(7, 9), True),  # 0, 63, 126, 189: 0, 7, 6, 5
    "cycle44": (lambda: cycle_graph(44), True),  # 0, 44: 0, 4
    "random_regular21_d4": (lambda: random_regular_graph(21, 4, seed=1), False),  # 0, 5, 2, 7
    "random_regular19_d6": (lambda: random_regular_graph(19, 6, seed=1), False),  # 0, 3, 6, 1, 4, 7
    "mixed": (mixed_graph, False),  # the segment starts at 73
}


# Gather layouts for them: those above, and eight blocks with a segment.
LINE_GATHER = {
    **{name: build for name, (build, sliced) in LINE_LAYOUTS.items() if not sliced},
    "sparse_irregular": sparse_irregular_graph,
}


class TestLineStarts:
    """Every row store of the coin's image starts on a 64-byte line, but
    for a head of at most 7 elements, in both plans."""

    @pytest.mark.parametrize("name", sorted(LINE_SLICED))
    def test_sliced_stores_in_both_directions(self, name, monkeypatch):
        build, block = LINE_SLICED[name]
        monkeypatch.setattr(walk, "_SLICE_MAX_FIX_FRACTION", 1.0)
        monkeypatch.setattr(walk, "_BLOCK_VERTICES", block)
        g = build()
        kernel = _Kernel(g, initial_state(g).amplitudes, np.empty(0, dtype=np.int64))
        plan, n = kernel.plan, g.n
        for dst, views in ((kernel.spare, kernel.block_views[0]), (kernel.x, kernel.block_views[1])):
            count = len(views)
            assert count == -(-n // block)
            for i, (*_, moves, _) in enumerate(views):
                a, b = n * i // count, n * (i + 1) // count
                for q, (_, _, lo, hi) in enumerate(plan.slices):
                    outs = [out for _, _, out in moves if _at(out, dst) // n == q]
                    j0, j1 = max(a, lo), min(b, hi)
                    assert_store_starts_on_a_line(outs, dst, q * n + j0, q * n + max(j0, j1))

    def test_a_sliced_store_off_a_line_takes_a_head(self):
        g = torus2d_graph(128, 128)
        kernel = _Kernel(g, initial_state(g).amplitudes, np.empty(0, dtype=np.int64))
        [(*_, moves, _)] = kernel.block_views[0]
        heads = sorted(out.size for _, _, out in moves if out.ctypes.data % 64)
        assert len(moves) == 6 and heads == [6, 7]  # rows 1 and 2 start 1 and 2 elements in

    @pytest.mark.parametrize("name", sorted(LINE_GATHER))
    def test_gather_row_pieces_and_segment(self, name):
        g = LINE_GATHER[name]()
        kernel = _Kernel(g, initial_state(g).amplitudes, np.empty(0, dtype=np.int64))
        plan = kernel.plan
        [views] = kernel.block_views
        assert plan.slices is None and len(views) == len(plan.blocks)  # one view per degree block
        heads = 0
        for (d, start, width), (rows, part, scale, fix_at, fix_sums, pieces, guard_rows) in zip(plan.blocks, views):
            assert _at(rows, kernel.x) == start and rows.shape == (d, width) and scale == 2.0 / d
            assert _at(part, kernel.sums) == 0 and part.size == width
            assert fix_at.size == fix_sums.size == 0 and guard_rows is None
            row_outs = [[] for _ in range(d)]
            for part_piece, row, out in pieces:  # the identity moves: row p to row p
                p, i = divmod(_at(out, kernel.spare) - start, width)
                assert _at(part_piece, kernel.sums) == i and _at(row, kernel.x) == start + p * width + i
                assert part_piece.size == row.size == out.size
                row_outs[p].append(out)
                heads += bool(out.ctypes.data % 64)
            for p, outs in enumerate(row_outs):
                assert_store_starts_on_a_line(outs, kernel.spare, start + p * width, start + (p + 1) * width)
        seg_outs = []
        for i, j, x_piece, out in kernel.segment_pieces:
            assert _at(x_piece, kernel.x) == _at(out, kernel.spare) == plan.segment + i
            assert x_piece.size == out.size == j - i
            seg_outs.append(out)
        assert_store_starts_on_a_line(seg_outs, kernel.spare, plan.segment, g.arc_count)
        assert heads  # some row starts mid-line


def test_line_layouts_cover_every_residue():
    residues = {True: set(), False: set()}
    for build, sliced in LINE_LAYOUTS.values():
        plan = _CoinPlan.build(build())
        residues[sliced] |= {(start + p * width) % 8 for d, start, width in plan.blocks for p in range(d)}
    assert residues == {True: set(range(8)), False: set(range(8))}
    assert _CoinPlan.build(mixed_graph()).segment % 8


@pytest.mark.parametrize("name", sorted(LINE_LAYOUTS))
def test_stores_at_every_line_offset_match_the_reference(name, monkeypatch):
    build, sliced = LINE_LAYOUTS[name]
    if sliced:
        monkeypatch.setattr(walk, "_SLICE_MAX_FIX_FRACTION", 1.0)
    g = build()
    assert (_coin_plan(g).slices is not None) == sliced
    amps, marked = mixed_unit_amplitudes(g, len(name)), [0, g.n // 2]
    seen = []
    out = evolve(WalkState(amps, g), marked, 30, observer=lambda t, p: seen.append(p))
    ref_seen, ref_amps = reference_evolve(g, amps, marked, 30)
    assert np.array(seen).tobytes() == np.array(ref_seen).tobytes()
    assert out.amplitudes.tobytes() == ref_amps.tobytes()
    assert step(WalkState(amps, g), marked).amplitudes.tobytes() == reference_evolve(g, amps, marked, 1)[1].tobytes()
    assert apply_coin(WalkState(amps, g)).amplitudes.tobytes() == reference_coin_of(g)(amps).tobytes()


@pytest.mark.parametrize("build, sliced", [
    (lambda: torus2d_graph(128, 128), True),
    (lambda: random_regular_graph(4000, 3, seed=1), False),  # one block
    (sparse_irregular_graph, False),  # blocks and a segment
], ids=["torus128", "random_regular4000", "sparse_irregular"])
def test_evolve_allocates_no_state_sized_buffer_per_step(build, sliced):
    # A gather plan's shift is writable: np.take copies a read-only index
    # on every call, 8 bytes per arc.
    g = build()
    assert (_coin_plan(g).slices is not None) == sliced
    marked = np.flatnonzero(g.degrees)[[0, 1, 128, 129]].tolist()
    state_bytes = g.arc_count * 8
    traced = {}

    def observer(t, _p):
        if t == 5:  # after warm-up
            tracemalloc.reset_peak()
            traced["start"] = tracemalloc.get_traced_memory()[0]
        elif t == 45:
            traced["peak"] = tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        evolve(initial_state(g), marked, 45, observer=observer)
    finally:
        tracemalloc.stop()
    assert traced["peak"] - traced["start"] < state_bytes // 8


@pytest.mark.parametrize("build", [lambda: torus2d_graph(16, 16), irregular_graph], ids=["port_major", "segment"])
def test_kernel_buffers_start_a_quarter_page_apart(build):
    # Their relative placement sets the step's speed, so it must not depend
    # on where malloc happens to put them.
    g = build()
    kernel = _Kernel(g, initial_state(g).amplitudes, np.empty(0, dtype=np.int64))
    assert kernel.x.ctypes.data % 4096 == 0
    assert kernel.spare.ctypes.data % 4096 == 1024
    assert kernel.sums.ctypes.data % 4096 == 2048
    assert kernel.x.size == kernel.spare.size == g.arc_count


class TestCoinPlan:
    @pytest.mark.parametrize("build, ports", [
        (lambda: cycle_graph(7), 2),
        (lambda: torus2d_graph(4, 5), 4),
        (lambda: random_regular_graph(12, 5, seed=1), 5),
        (lambda: complete_graph(9), 8),
        (lambda: complete_graph(10), 0),
        (irregular_graph, 0),
        (lambda: build_graph([], 3), 0),
    ])
    def test_plan_choice(self, build, ports):
        # ``ports`` is the degree of a plan that is one block, 0 otherwise.
        g = build()
        plan = _coin_plan(g)
        assert plan.blocks == layout_blocks(g)
        assert (plan.blocks == ((ports, 0, g.n),)) == (ports > 0)
        assert plan.segment == g.degrees[g.degrees <= walk._PORT_MAJOR_MAX_DEGREE].sum()

    @pytest.mark.parametrize("build, blocks, segment", [
        (irregular_graph, ((2, 0, 5), (3, 10, 4)), 22),
        (mixed_graph, ((4, 0, 2), (6, 8, 2), (7, 20, 3), (8, 41, 4)), 73),
        (lambda: complete_graph(10), (), 0),
    ], ids=["irregular", "mixed", "complete10"])
    def test_blocks_by_degree(self, build, blocks, segment):
        plan = _coin_plan(build())
        assert plan.blocks == blocks and plan.segment == segment

    @pytest.mark.parametrize("name", CASES)
    def test_layout_tiles_the_arcs_and_the_shift_swaps_their_positions(self, name, monkeypatch):
        monkeypatch.setattr(walk, "_slice_fields", lambda shift: {})  # keep every plan's shift
        g = {**KERNEL_GRAPHS, **SHIFT_GRAPHS}[name]()
        plan = _coin_plan(g)
        assert plan.blocks == layout_blocks(g)
        assert_runs_tile_the_layout(g, plan)
        where = np.full(g.arc_count, -1)  # each arc's position
        for start, arcs in walk._runs(g, plan):
            where[arcs] = np.arange(start, start + arcs.size)
        assert np.array_equal(plan.shift[where], where[g.reverse])
        assert np.array_equal(plan.shift[plan.shift], np.arange(g.arc_count))
        if len(plan.blocks) == 1 and plan.segment == g.arc_count:
            assert np.array_equal(plan.shift, port_major_shift(g))
        assert plan.shift.flags.writeable

    @pytest.mark.parametrize("d", range(1, 9))
    def test_port_sums_match_reduceat(self, d):
        rng = np.random.default_rng(d)
        n = 500
        rows = rng.standard_normal((d, n)) * 10.0 ** rng.integers(-8, 9, size=(d, n))
        rows[rng.random((d, n)) < 0.2] = 0.0
        rows[rng.random((d, n)) < 0.2] = -0.0
        rows[:, :3] = -0.0  # an all-negative-zero vertex sums to -0.0
        out = np.empty(n)
        _port_sums(rows, out)
        expected = np.add.reduceat(rows.T.ravel(), np.arange(0, n * d, d))
        assert out.tobytes() == expected.tobytes()
        assert np.signbit(out[:3]).all()

    @pytest.mark.parametrize("build", [lambda: cycle_graph(5), irregular_graph])
    def test_out_of_range_reverse_rejected(self, build):
        g = build()
        reverse = g.reverse.copy()
        reverse[0] = g.arc_count
        bad = Graph(g.n, g.offsets, g.targets, reverse, g.degrees)
        # The plan build checks the range before any kernel gathers with mode="wrap".
        with pytest.raises(ValueError, match="outside the arc range"):
            step(initial_state(bad), [0])

    def test_plan_is_built_once_on_the_first_walk(self, monkeypatch, tmp_path):
        built = []
        build = _CoinPlan.build.__func__
        monkeypatch.setattr(_CoinPlan, "build", classmethod(lambda cls, g: built.append(g) or build(cls, g)))
        g = torus2d_graph(16, 16)
        write_edge_list(g, tmp_path / "g.txt")
        read_edge_list(tmp_path / "g.txt")
        marked_components(g, [0, 1, 17])
        g.neighbors(3), g.arc_between(0, 1), g.arc_index(2, 3)
        assert built == []  # building or reading a graph builds no plan
        s = initial_state(g)
        evolve(step(s, [0]), [0], 3)
        apply_coin(s)
        assert built == [g]
        kernels = [_Kernel(g, s.amplitudes, np.empty(0, dtype=np.int64)) for _ in range(2)]
        assert kernels[0].plan is kernels[1].plan is _coin_plan(g)
        assert built == [g]


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

    def test_zero_state_rejected(self, tmp_path, cycle5):
        path = tmp_path / "zero.txt"
        write_state_snapshot(WalkState(np.zeros(cycle5.arc_count), cycle5), path)
        with pytest.raises(ValueError, match="every amplitude is zero"):
            read_state_snapshot(cycle5, path)
        # One nonzero amplitude is a state to check, however far from unit.
        amps = np.zeros(cycle5.arc_count)
        amps[3] = 1e-300
        write_state_snapshot(WalkState(amps, cycle5), path)
        assert np.array_equal(read_state_snapshot(cycle5, path).amplitudes, amps)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_amplitude_rejected(self, tmp_path, cycle5, value):
        path = tmp_path / "nan.txt"
        write_state_snapshot(initial_state(cycle5), path)
        lines = path.read_text().splitlines()
        lines[2] = " ".join(lines[2].split()[:2] + [value])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f":3: amplitude '{value}' is not finite"):
            read_state_snapshot(cycle5, path)
