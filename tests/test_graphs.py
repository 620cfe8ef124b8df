import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qwsearch.graphs as graphs
import qwsearch.walk as walk
from qwsearch import (
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
from qwsearch.experiments import select_disjoint_pairs
from qwsearch.walk import _coin_plan

from helpers import (
    SHIFT_GRAPHS,
    brute_force_bipartite,
    port_major_shift,
    random_regular_oracle,
    random_simple_graph,
    read_edge_list_oracle,
    reference_csr,
    reference_family_graph,
    select_disjoint_pairs_oracle,
)
from test_cli_fuzz import edge_lists


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True, min_size=1, max_size=len(all_pairs)))
    return build_graph(edges, n)


class TestBuildGraph:
    def test_cycle5(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 5)
        assert g.n == 5
        assert g.arc_count == 10
        assert g.degrees.tolist() == [2] * 5

    def test_empty(self):
        g = build_graph([], 1)
        assert g.arc_count == 0
        assert g.edge_count == 0

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            build_graph([(0, 1), (0, 1)], 2)

    def test_reversed_duplicate_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            build_graph([(0, 1), (1, 0)], 2)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph([(2, 2)], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            build_graph([(0, 5)], 3)

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (2, 2), (0, 9)], "self-loop at vertex 2: edge (2, 2)"),
        ([(0, 1), (0, 9), (2, 2)], "edge (0, 9) out of range for n=3"),
        ([(1, 2), (0, 1), (2, 1), (1, 0)], "duplicate edge (0, 1)"),
    ])
    def test_array_input_gives_the_same_error(self, edges, message):
        for given in (edges, np.array(edges, dtype=np.int64)):
            with pytest.raises(ValueError) as err:
                build_graph(given, 3)
            assert str(err.value) == message

    def test_endpoint_beyond_int64_is_out_of_range(self):
        with pytest.raises(ValueError) as err:
            build_graph([(0, 1), (0, 2**70)], 3)
        assert str(err.value) == f"edge (0, {2**70}) out of range for n=3"

    def test_array_input_builds_the_same_graph(self):
        edges = [(3, 0), (0, 1), (2, 1), (3, 2), (1, 3)]
        g, h = build_graph(edges, 5), build_graph(np.array(edges, dtype=np.int64), 5)
        for name in ("offsets", "targets", "reverse", "degrees", "arc_source"):
            assert np.array_equal(getattr(g, name), getattr(h, name)), name

    def test_ports_sorted_ascending(self):
        g = build_graph([(2, 0), (2, 3), (2, 1)], 4)
        assert g.neighbors(2).tolist() == [0, 1, 3]

    def test_arc_between_and_ports(self):
        g = cycle_graph(5)
        arc = g.arc_between(3, 4)
        assert (g.arc_source[arc], g.targets[arc]) == (3, 4)
        assert g.offsets[3] <= arc < g.offsets[4]
        assert g.arc_index(3, arc - g.offsets[3]) == arc
        with pytest.raises(ValueError, match="no edge"):
            g.arc_between(0, 2)

    @given(small_graphs())
    def test_reverse_is_involution(self, g):
        rev = g.reverse
        assert np.array_equal(rev[rev], np.arange(g.arc_count))
        # reverse arc traverses the same edge backwards
        assert np.array_equal(g.arc_source[rev], g.targets)
        assert np.array_equal(g.targets[rev], g.arc_source)

    @given(small_graphs())
    def test_adjacency_symmetric_and_degree_sum(self, g):
        for u, v in g.edge_list():
            assert g.targets[g.arc_between(u, v)] == v and g.targets[g.arc_between(v, u)] == u
        assert int(g.degrees.sum()) == g.arc_count


@st.composite
def shuffled_edge_lists(draw):
    """A simple graph's edges in a random order and orientation."""
    n = draw(st.integers(min_value=1, max_value=12))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))) if all_pairs else []
    edges = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]


# The dtype of each graph array: arc indices in 4 bytes, and the vertex
# arrays that index arithmetic starts from in 8.
GRAPH_DTYPES = {"offsets": np.int64, "targets": np.int32, "reverse": np.int32, "degrees": np.int64, "arc_source": np.int32}


def assert_matches_reference_csr(g, edges, n):
    want = reference_csr(edges, n)
    assert g.n == n
    for name, arr in want.items():
        got = getattr(g, name)
        assert got.dtype == GRAPH_DTYPES[name] and not got.flags.writeable, name
        assert np.array_equal(got, arr), name


class TestBuildGraphMatchesReferenceCsr:
    """build_graph's single sort against a plain-Python CSR builder."""

    @given(shuffled_edge_lists())
    def test_any_edge_order_and_orientation(self, case):
        n, edges = case
        assert_matches_reference_csr(build_graph(edges, n), edges, n)
        assert_matches_reference_csr(build_graph(np.array(edges, dtype=np.int64).reshape(-1, 2), n), edges, n)

    def test_irregular_graph_with_isolated_vertices(self):
        rng = np.random.default_rng(5)
        n = 400
        used = np.flatnonzero(np.arange(n) % 10 != 0)  # vertices 0, 10, 20, ... stay isolated
        pairs = used[rng.integers(0, used.size, size=(3000, 2))]
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        _, first = np.unique(np.sort(pairs, axis=1), axis=0, return_index=True)
        edges = pairs[np.sort(first)]
        g = build_graph(edges, n)
        assert g.degrees.min() == 0 and g.degrees.max() > 2 * g.degrees[g.degrees > 0].min()
        assert_matches_reference_csr(g, edges.tolist(), n)

    def test_reverse_map_gathered_over_several_runs(self, monkeypatch):
        monkeypatch.setattr(graphs, "_GATHER_RUN", 7)
        n = 30
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u * v + u + v) % 5 == 0]
        assert 2 * len(edges) > 10 * graphs._GATHER_RUN
        assert_matches_reference_csr(build_graph(edges, n), edges, n)

    # The two arcs of a repeated edge sort next to each other, in one run
    # or across the end of one.
    @pytest.mark.parametrize("run", [1, 2, 3])
    def test_duplicate_found_in_any_run(self, monkeypatch, run):
        monkeypatch.setattr(graphs, "_GATHER_RUN", run)
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        for u, v in edges:
            with pytest.raises(ValueError, match=rf"^duplicate edge \({u}, {v}\)$"):
                build_graph(edges + [(v, u)], 4)

    # A graph whose vertex count, or else arc count, is past the limit
    # stores int64 arc indices.
    @pytest.mark.parametrize("edges, n", [([(0, 1), (2, 3)], 10), ([(0, 1), (0, 2), (1, 2)], 3)], ids=["vertices", "arcs"])
    def test_int64_arc_indices_past_the_int32_limit(self, monkeypatch, edges, n):
        size = max(n, 2 * len(edges))
        for limit, index in [(size, np.int32), (size - 1, np.int64)]:
            monkeypatch.setattr(graphs, "_INT32_INDEX_LIMIT", limit)
            g = build_graph(edges, n)
            for name, want in reference_csr(edges, n).items():
                got = getattr(g, name)
                assert got.dtype == (index if GRAPH_DTYPES[name] == np.int32 else np.int64), name
                assert np.array_equal(got, want) and not got.flags.writeable, name


class TestGenerate:
    def test_cycle(self):
        assert generate("cycle", n=5).arc_count == 10

    def test_torus_is_4_regular(self):
        g = generate("torus2d", rows=4, cols=4)
        assert g.n == 16
        assert g.degrees.tolist() == [4] * 16
        assert g.edge_count == 2 * 4 * 4
        assert g.arc_count == 2 * g.edge_count == 64

    def test_complete(self):
        g = generate("complete", n=6)
        assert g.degrees.tolist() == [5] * 6

    def test_random_regular_deterministic(self):
        g1 = random_regular_graph(10, 3, seed=7)
        g2 = random_regular_graph(10, 3, seed=7)
        assert g1.edge_list() == g2.edge_list()
        assert g1.degrees.tolist() == [3] * 10

    def test_random_regular_seed_changes_graph(self):
        g1 = random_regular_graph(20, 3, seed=1)
        g2 = random_regular_graph(20, 3, seed=2)
        assert g1.edge_list() != g2.edge_list()

    # Sparse requests, dense ones at d = n - 1, n - 2 and n - 3, edgeless
    # ones, and ones whose first pairings dead-end: (7, 2, 1) and (13, 6, 0)
    # directly, (8, 4, 0) on its 3-regular complement.
    @pytest.mark.parametrize("n, d, seed", [
        (1, 0, 0), (6, 0, 1), (6, 1, 0), (10, 2, 5), (10, 3, 7), (20, 3, 1), (200, 4, 3), (2000, 3, 1),
        (1000, 10, 2), (9, 8, 0), (12, 10, 0), (14, 12, 1), (16, 13, 2), (20, 18, 3), (21, 18, 0), (26, 24, 1),
        (32, 31, 0), (32, 30, 1), (7, 2, 1), (13, 6, 0), (8, 4, 0),
    ])
    def test_random_regular_matches_the_stub_matching_oracle(self, n, d, seed):
        assert random_regular_graph(n, d, seed).edge_list() == random_regular_oracle(n, d, seed)

    # With no pairing allowed, or one whose matching dead-ends; the dense
    # request's message names the degree asked for, not its complement's.
    @pytest.mark.parametrize("n, d, seed, attempts", [(32, 30, 0, 0), (7, 2, 1, 1), (8, 4, 0, 1)])
    def test_random_regular_fails_where_the_oracle_fails(self, monkeypatch, n, d, seed, attempts):
        monkeypatch.setattr(graphs, "_PAIRING_ATTEMPTS", attempts)
        with pytest.raises(ValueError) as want:
            random_regular_oracle(n, d, seed, attempts)
        with pytest.raises(ValueError) as got:
            random_regular_graph(n, d, seed)
        assert str(got.value) == str(want.value) == f"failed to sample a simple {d}-regular graph on {n} vertices"

    # Each of these spent all 1000 pairings and failed when it was matched
    # directly.
    @pytest.mark.parametrize("n, d, seed", [(32, 30, 0), (40, 37, 0), (40, 37, 1), (40, 37, 2), (40, 38, 1), (60, 58, 0)])
    def test_dense_random_regular_is_the_complement_of_its_sparse_sample(self, n, d, seed):
        g = random_regular_graph(n, d, seed)
        assert g.degrees.tolist() == [d] * n
        sparse = set(random_regular_graph(n, n - 1 - d, seed).edge_list())
        assert g.edge_list() == [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in sparse]

    @pytest.mark.parametrize(
        "family,params,match",
        [
            ("cycle", {"n": 2}, "n >= 3"),
            ("torus2d", {"rows": 2, "cols": 5}, "rows, cols >= 3"),
            ("complete", {"n": 1}, "n >= 2"),
            ("random_regular", {"n": 5, "d": 3, "seed": 0}, "even"),
            ("random_regular", {"n": 4, "d": 4, "seed": 0}, "d < n"),
        ],
    )
    def test_infeasible_parameters(self, family, params, match):
        with pytest.raises(ValueError, match=match):
            generate(family, **params)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            generate("petersen", n=10)

    def test_bad_parameter_names(self):
        with pytest.raises(ValueError, match="bad parameters"):
            generate("cycle", vertices=5)


ARRAY_FAMILIES = (
    [("cycle", {"n": n}) for n in range(3, 8)]
    + [("torus2d", {"rows": r, "cols": c}) for r, c in ((3, 3), (3, 4), (4, 3), (5, 7), (16, 16))]
    + [("complete", {"n": n}) for n in (2, 3, 9, 10)]
)


def _family_id(case):
    family, params = case
    return family + "-" + "x".join(str(v) for v in params.values())


class TestArrayBuilders:
    """The cycle, torus2d and complete generators hand build_graph an edge
    array in their own order; the graph must equal what build_graph makes
    from the straightforward Python edge list."""

    @pytest.mark.parametrize("family,params", ARRAY_FAMILIES, ids=[_family_id(c) for c in ARRAY_FAMILIES])
    def test_matches_edge_list_build(self, family, params):
        g = generate(family, **params)
        ref = reference_family_graph(family, **params)
        assert g.n == ref.n
        for name, dtype in GRAPH_DTYPES.items():
            got, want = getattr(g, name), getattr(ref, name)
            assert got.dtype == dtype, name
            assert not got.flags.writeable, name
            assert np.array_equal(got, want), name
        # complete(10) is the one case here above the port-major degree
        # limit: one segment in arc order, its shift the reverse-arc map
        plan, ref_plan = _coin_plan(g), _coin_plan(ref)
        assert plan.blocks == ref_plan.blocks == (((g.degree(0), 0, g.n),) if g.degree(0) <= 8 else ())
        for name in ("shift", "fix", "fix_src", "fix_v"):
            assert np.array_equal(getattr(plan, name), getattr(ref_plan, name)), name
        assert plan.slices == ref_plan.slices
        if plan.slices is None:
            assert np.array_equal(plan.shift, port_major_shift(g) if plan.blocks else g.reverse)


def assert_row_slices_cover_the_shift(g):
    """Every position of a sliced plan is written either by exactly one
    correct slice entry or by one fix-up, and never by both."""
    plan, n = _coin_plan(g), g.n
    [(d, _, _)] = plan.blocks
    shift = port_major_shift(g).reshape(d, n)
    assert len(plan.slices) == d and plan.shift is None
    for arr in (plan.fix, plan.fix_src, plan.fix_v):  # writable: np.take copies a read-only index
        assert arr.dtype == np.int64 and arr.flags.writeable
    assert np.unique(plan.fix).size == plan.fix.size  # each position once
    assert np.all(np.diff(plan.fix_v) >= 0)  # in the order the step's blocks read their sums
    assert np.array_equal(plan.fix_src, shift.reshape(-1)[plan.fix])
    assert np.array_equal(plan.fix_v, plan.fix_src % n)
    fixed = np.zeros(d * n, dtype=bool)
    fixed[plan.fix] = True
    fixed = fixed.reshape(d, n)
    by_slice = np.zeros((d, n), dtype=bool)
    for q, (p, k, lo, hi) in enumerate(plan.slices):
        assert 0 <= lo < hi <= n and 0 <= p < d
        assert lo + k >= 0 and hi + k <= n  # the slice stays inside source row p
        right = shift[q, lo:hi] == p * n + np.arange(lo, hi) + k
        assert right[0] and right[-1]  # no slice entry past the first and last correct one
        by_slice[q, lo:hi] = right
    assert np.all(by_slice ^ fixed)
    assert plan.fix.size <= walk._SLICE_MAX_FIX_FRACTION * g.arc_count


class TestShiftSlices:
    """Row slices plus fix-ups of a port-major plan's shift."""

    @pytest.mark.parametrize("build, sliced", [
        (lambda: torus2d_graph(128, 128), True),
        (lambda: torus2d_graph(64, 48), True),
        (lambda: cycle_graph(1000), True),
        (lambda: cycle_graph(64), True),
        (lambda: torus2d_graph(3, 3), False),
        (lambda: torus2d_graph(5, 7), False),
        (lambda: cycle_graph(5), False),
        (lambda: complete_graph(5), False),
        (lambda: random_regular_graph(200, 4, seed=3), False),
        (lambda: random_regular_graph(2000, 3, seed=1), False),
        (lambda: complete_graph(10), False),  # one segment
    ], ids=["torus128", "torus64x48", "cycle1000", "cycle64", "torus3x3", "torus5x7", "cycle5",
            "complete5", "random_regular200", "random_regular2000", "complete10"])
    def test_plan_choice(self, build, sliced):
        plan = _coin_plan(build())
        assert (plan.slices is not None) == sliced
        assert (plan.shift is None) == sliced  # a sliced step never gathers through the shift
        if not sliced:
            assert plan.fix is None and plan.fix_src is None and plan.fix_v is None

    @pytest.mark.parametrize("name", sorted(SHIFT_GRAPHS))
    def test_every_position_is_written_once(self, name, monkeypatch):
        # Slice every port-major graph, however many fix-ups it needs.
        monkeypatch.setattr(walk, "_SLICE_MAX_FIX_FRACTION", 1.0)
        assert_row_slices_cover_the_shift(SHIFT_GRAPHS[name]())

    @pytest.mark.parametrize("rows, cols", [(16, 16), (128, 128), (64, 48)])
    def test_torus_slices_follow_the_lattice(self, rows, cols):
        # Interior vertices read their up, left, right and down neighbors'
        # ports 3, 2, 1 and 0 at vertex offsets -cols, -1, +1 and +cols.
        g = torus2d_graph(rows, cols)
        assert [s[:2] for s in _coin_plan(g).slices] == [(3, -cols), (2, -1), (1, 1), (0, cols)]
        assert_row_slices_cover_the_shift(g)

    def test_cycle_fix_ups_are_the_wrap_around(self):
        # Vertices 0 and n-1 list their neighbors the other way round, so
        # the arcs of 0 and n-1 and the arcs of 1 and n-2 that point at them
        # read from elsewhere: six fix-ups out of 2n positions.
        g = cycle_graph(1000)
        plan = _coin_plan(g)
        assert plan.slices == ((1, -1, 2, 999), (0, 1, 1, 998))
        assert plan.fix.tolist() == [1, 999, 0, 1999, 1000, 1998]  # by the vertex they read
        assert plan.fix_v.tolist() == [0, 0, 1, 998, 999, 999]
        assert_row_slices_cover_the_shift(g)


class TestSelectDisjointPairsOracle:
    """Pairs chosen from the arc arrays equal those chosen from edge_list()."""

    @pytest.mark.parametrize("graph", [cycle_graph(7), torus2d_graph(5, 7), complete_graph(6),
                                       random_regular_graph(40, 3, seed=2)],
                             ids=["cycle7", "torus5x7", "complete6", "random_regular40"])
    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_matches_edge_list_oracle(self, graph, k):
        for seed in range(10):
            try:
                want = select_disjoint_pairs_oracle(graph, k, seed)
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    select_disjoint_pairs(graph, k, seed)
                assert str(got.value) == str(err)
                continue
            got = select_disjoint_pairs(graph, k, seed)
            assert got == want
            assert all(type(v) is int for v in got)


class TestMarkedComponents:
    def test_cycle_pair(self, cycle5):
        comps = marked_components(cycle5, {3, 4})
        assert len(comps) == 1
        c = comps[0]
        assert c.vertices == (3, 4)
        assert c.internal_edges == ((3, 4),)
        assert c.outgoing_degree == {3: 1, 4: 1}
        assert c.internal_degree == {3: 1, 4: 1}
        assert c.total_outgoing == 2
        assert c.bipartition == ((3,), (4,))

    def test_empty_marked_set(self, cycle5):
        assert marked_components(cycle5, set()) == []

    def test_torus_block(self, torus4):
        comps = marked_components(torus4, [5, 6, 9, 10])
        assert len(comps) == 1
        c = comps[0]
        assert c.vertices == (5, 6, 9, 10)
        assert set(c.internal_edges) == {(5, 6), (5, 9), (6, 10), (9, 10)}
        assert all(c.outgoing_degree[v] == 2 for v in c.vertices)
        assert c.total_outgoing == 8
        # diagonal vertices land on opposite sides
        assert c.bipartition == ((5, 10), (6, 9))

    def test_out_of_range_marked(self, cycle5):
        with pytest.raises(ValueError, match="out of range"):
            marked_components(cycle5, {7})

    def test_triangle_is_not_bipartite(self):
        g = complete_graph(5)
        (c,) = marked_components(g, {0, 1, 2})
        assert c.bipartition is None
        assert c.total_outgoing == 6

    def test_components_partition_marked_set(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = random_simple_graph(rng, int(rng.integers(5, 16)), 0.3)
            marked = {int(v) for v in rng.choice(g.n, size=int(rng.integers(0, g.n)), replace=False)}
            comps = marked_components(g, marked)
            seen = [v for c in comps for v in c.vertices]
            assert sorted(seen) == sorted(marked)
            # every marked-marked edge is counted exactly once
            expected_internal = {
                (u, v) for u, v in g.edge_list() if u in marked and v in marked
            }
            got_internal = [e for c in comps for e in c.internal_edges]
            assert len(got_internal) == len(set(got_internal))
            assert set(got_internal) == expected_internal
            for c in comps:
                for v in c.vertices:
                    assert c.internal_degree[v] + c.outgoing_degree[v] == g.degree(v)
                assert c.total_outgoing == sum(c.outgoing_degree.values())

    def test_bipartiteness_matches_brute_force(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            g = random_simple_graph(rng, int(rng.integers(6, 14)), 0.35)
            k = int(rng.integers(1, min(10, g.n) + 1))
            marked = {int(v) for v in rng.choice(g.n, size=k, replace=False)}
            for c in marked_components(g, marked):
                assert (c.bipartition is not None) == brute_force_bipartite(c.vertices, c.internal_edges)
                if c.bipartition is not None:
                    a, b = c.bipartition
                    assert sorted(a + b) == list(c.vertices)
                    assert all((u in a) != (v in a) for u, v in c.internal_edges)
                checked += 1
        assert checked > 50


class TestEdgeListIO:
    def test_round_trip(self, tmp_path, torus4):
        path = tmp_path / "torus.txt"
        write_edge_list(torus4, path)
        again = read_edge_list(path)
        assert again.n == torus4.n
        assert again.edge_list() == torus4.edge_list()

    def test_format(self, tmp_path, cycle5):
        path = tmp_path / "c5.txt"
        write_edge_list(cycle5, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "5 5"
        assert lines[1:] == ["0 1", "0 4", "1 2", "2 3", "3 4"]

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\n")
        with pytest.raises(ValueError, match="expected 2 edge lines"):
            read_edge_list(path)

    def test_malformed_edge_line_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\n\n1 2 5\n")
        with pytest.raises(ValueError) as err:
            read_edge_list(path)
        assert str(err.value) == f"{path}:4: malformed edge line '1 2 5'"

    @pytest.mark.parametrize("text, line, message", [
        ("3 3\n0 1\n2 2\n1 2\n", 3, "self-loop at vertex 2: edge (2, 2)"),
        ("3 3\n0 1\n1 5\n2 2\n", 3, "edge (1, 5) out of range for n=3"),
        ("3 3\n0 -1\n0 1\n1 2\n", 2, "edge (0, -1) out of range for n=3"),
        ("3 3\n0 1\n1 99999999999999999999\n1 2\n", 3, "edge (1, 99999999999999999999) out of range for n=3"),
        # the smallest duplicated edge, at the line that repeats it
        ("3 4\n1 2\n\n0 1\n2 1\n1 0\n", 6, "duplicate edge (0, 1)"),
    ], ids=["self-loop", "out-of-range", "negative", "beyond-int64", "duplicate"])
    def test_invalid_edge_names_the_edge_and_its_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_edge_list(path)
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_bad_integer_is_named_before_a_later_invalid_edge(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 3\n0 99999999999999999999\n1 x\n2 2\n")
        with pytest.raises(ValueError) as err:
            read_edge_list(path)
        assert str(err.value) == f"{path}:3: bad integer 'x'"

    def test_equals_build_graph_on_the_same_edges(self, tmp_path):
        g = random_simple_graph(np.random.default_rng(4), 40, 0.2)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        again = read_edge_list(path)
        for name in ("offsets", "targets", "reverse", "degrees", "arc_source"):
            assert np.array_equal(getattr(again, name), getattr(g, name)), name


def _read_outcome(read, path):
    """The graph's arrays, or the type and message of what reading raised."""
    try:
        g = read(path)
    except Exception as err:  # the oracle's outcome, whatever it is, must be matched
        return type(err).__name__, str(err)
    return g.n, [getattr(g, name).tolist() for name in ("offsets", "targets", "reverse", "degrees", "arc_source")]


def assert_reads_as_the_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(text)
        assert _read_outcome(read_edge_list, path) == _read_outcome(read_edge_list_oracle, path)


# Pieces of edge-list text: digits in the forms int() takes, bad tokens,
# ASCII spaces and line breaks, and non-ASCII ones.
TEXT_PIECES = ["0", "1", "2", "4", "+", "-", "_", "x", "\u0663", " ", "  ", "\t", "\n", "\n", "\r", "\r\n",
               "\v", "\f", "\x1c", "\x1f", "\x85", "\xa0", "\u2028"]


class TestReadEdgeListMatchesOracle:
    @pytest.mark.parametrize("text", [
        "5 3\n+0 1_0\n",
        "12 3\r\n+0 1_0\r\n\r\n 2\t3 \r\n\u0663 4  \r\n",
        "\n\n5 2  \n\t0   1\t\n\n  1 2\n\n",
        "5 2\n0\x1f1\n1 2",
        "5 3\n0 1\v1 2\f2 3\n",
        "5 2\n0\xa01\x851 2\u20282 3\n",
        "5 2\n0 1\n1 2 3\n",
        "5 2\n0\n1 2 3\n",
        "5 2\n0 1\n\x1f\n1 2\n",
        "5 2\n0 1\n\n1\n",
        "5 2\n0 x\n1 2 3\n",
        "5 2\n0 99999999999999999999\n1 2\n",
        "5 2\n0 1\n1 0\n",
        "5 2\n0 1\n",
        "\n \n",
        "5\n0 1\n",
        "x 1\n0 1\n",
        "-1 0\n",
        "99999999999999999999 0\n",
        "3 0\n",
    ])
    def test_token_forms_line_ends_and_malformed_lines(self, text):
        assert_reads_as_the_oracle(text)

    @settings(max_examples=200)
    @given(edge_lists())
    def test_fuzzed_edge_lists(self, text):
        assert_reads_as_the_oracle(text)

    @given(st.sampled_from(["", "5 2\n", "5 3\r\n", " 4 1 \n\n"]), st.lists(st.sampled_from(TEXT_PIECES), max_size=30))
    def test_random_text(self, header, pieces):
        assert_reads_as_the_oracle(header + "".join(pieces))

    def test_valid_edge_list_reads_its_graph(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("12 3\r\n+0 1_0\r\n\r\n 2\t3 \r\n\u0663 4  \r\n")
        assert read_edge_list(path).edge_list() == [(0, 10), (2, 3), (3, 4)]
