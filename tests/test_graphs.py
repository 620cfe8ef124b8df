import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    random_simple_graph,
    reference_csr,
    reference_family_graph,
    select_disjoint_pairs_oracle,
)


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


def assert_matches_reference_csr(g, edges, n):
    want = reference_csr(edges, n)
    assert g.n == n
    for name, arr in want.items():
        got = getattr(g, name)
        assert got.dtype == np.int64 and not got.flags.writeable, name
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
        for name in ("offsets", "targets", "reverse", "degrees", "arc_source"):
            got, want = getattr(g, name), getattr(ref, name)
            assert got.dtype == np.int64, name
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
    for arr in (plan.fix, plan.fix_src, plan.fix_v):
        assert arr.dtype == np.int64 and not arr.flags.writeable
    assert np.all(np.diff(plan.fix) > 0)  # ascending, so each fix-up once
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
        assert plan.fix.tolist() == [0, 1, 999, 1000, 1998, 1999]
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
