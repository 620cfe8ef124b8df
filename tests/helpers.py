"""Shared test utilities: reference oracles and graph builders.

The dense matrices are built straight from the operator definitions and
stay independent of the matrix-free code paths they check; the sphere
search is independent of the closed-form farthest point it checks (the
proof's device for the ceiling, kept here because only tests use it, as
is the sphere ceiling it gives), and
the plain-Python CSR builder (sorted adjacency lists, reverse arcs found
through a dict) of the single sort ``build_graph`` takes its arrays from.
The edge-list family builders, the random-regular stub matching, the
edge-list reader, the pair-selection loop and the per-vertex coefficient
check keep the straightforward formulations that the library's array code
replaced, so the tests can require equal results.
``SHIFT_GRAPHS`` are the port-major graphs the walk's row-sliced shift is
checked on, against the plain port-major shift of :func:`port_major_shift`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from qwsearch import (
    Graph,
    InfeasibleComponentError,
    MarkedComponent,
    WalkState,
    build_graph,
    complete_graph,
    cycle_graph,
    evolve,
    initial_state,
    random_regular_graph,
    torus2d_graph,
)
from qwsearch.graphs import _check_vertex_count, _EdgeError, _parse_int

# Port-major graphs for the shift's row slices: tori and cycles, whose small
# members are mostly wrap-around fix-ups, and graphs that keep the gather.
SHIFT_GRAPHS = {
    **{f"torus{r}x{c}": (lambda r=r, c=c: torus2d_graph(r, c))
       for r, c in ((3, 3), (3, 4), (4, 3), (5, 7), (16, 16), (128, 128))},
    **{f"cycle{n}": (lambda n=n: cycle_graph(n)) for n in (3, 4, 5, 6, 7, 1000)},
    "complete5": lambda: complete_graph(5),
    "random_regular": lambda: random_regular_graph(200, 4, seed=3),
}


def port_major_shift(g: Graph) -> np.ndarray:
    """The shift of a d-regular graph's port-major layout, in which arc
    v*d + p sits at position p*n + v: each position's reverse arc r, with
    w its source, sits at (r - w*d)*n + w = r*n - w*(d*n - 1)."""
    n = g.n
    d = g.arc_count // n
    r = g.reverse.reshape(n, d).T
    w = g.targets.reshape(n, d).T  # arc v*d + p points at the source of its reverse
    return (r * n - w * (d * n - 1)).reshape(-1)


def layout_blocks(g: Graph) -> tuple[tuple[int, int, int], ...]:
    """The coin plan's blocks, from a scan over the degrees 1 to 8 in turn:
    ``(d, start, width)`` for each degree that occurs, its ``width``
    vertices' d ports each taking ``width`` positions from ``start`` on."""
    blocks, start = [], 0
    for d in range(1, 9):
        width = sum(1 for v in range(g.n) if g.degree(v) == d)
        if width:
            blocks.append((d, start, width))
            start += d * width
    return tuple(blocks)


def dense_query(g: Graph, marked) -> np.ndarray:
    diag = np.ones(g.arc_count)
    for v in marked:
        diag[g.offsets[v] : g.offsets[v + 1]] = -1.0
    return np.diag(diag)


def dense_coin(g: Graph) -> np.ndarray:
    out = np.zeros((g.arc_count, g.arc_count))
    for v in range(g.n):
        lo, hi = int(g.offsets[v]), int(g.offsets[v + 1])
        d = hi - lo
        if d == 0:
            continue
        out[lo:hi, lo:hi] = 2.0 / d * np.ones((d, d)) - np.eye(d)
    return out


def dense_shift(g: Graph) -> np.ndarray:
    out = np.zeros((g.arc_count, g.arc_count))
    out[np.arange(g.arc_count), g.reverse] = 1.0
    return out


def dense_step_matrix(g: Graph, marked) -> np.ndarray:
    return dense_shift(g) @ dense_coin(g) @ dense_query(g, marked)


def reference_coin_of(g: Graph):
    """The coin as a function of the amplitudes: one np.add.reduceat over
    each non-isolated vertex's arcs, scaled by 2/degree and broadcast back
    by rank, the arithmetic every coin plan of the step kernel must
    reproduce bit for bit.  Its index arrays are built once, here."""
    positive = g.degrees > 0
    starts, scale = g.offsets[:-1][positive], 2.0 / g.degrees[positive]
    rank = (np.cumsum(positive) - 1)[g.arc_source]
    return lambda amps: (np.add.reduceat(amps, starts) * scale)[rank] - amps


def reference_evolve(g: Graph, amps: np.ndarray, marked, t_max: int) -> tuple[list[float], np.ndarray]:
    """Marked probability at steps 0..t_max and the final amplitudes, from a
    plain loop of query, :func:`reference_coin_of` and reverse-arc gather."""
    idx = np.array(
        [arc for v in sorted(set(marked)) for arc in range(g.offsets[v], g.offsets[v + 1])], dtype=np.int64
    )
    coin = reference_coin_of(g)
    amps = amps.copy()

    def mass() -> float:
        picked = amps[idx]
        return float(np.dot(picked, picked))

    seen = [mass()]
    for _ in range(t_max):
        amps[idx] = -amps[idx]
        amps = coin(amps)[g.reverse]
        seen.append(mass())
    return seen, amps


def reference_family_graph(family: str, **params) -> Graph:
    """A cycle, torus2d or complete graph built through :func:`build_graph`
    from its edge list, as the generators did before they wrote arrays."""
    if family == "cycle":
        n = params["n"]
        return build_graph([(i, (i + 1) % n) for i in range(n)], n)
    if family == "torus2d":
        rows, cols = params["rows"], params["cols"]
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                edges.append((v, r * cols + (c + 1) % cols))
                edges.append((v, ((r + 1) % rows) * cols + c))
        return build_graph(edges, rows * cols)
    if family == "complete":
        n = params["n"]
        return build_graph([(u, v) for u in range(n) for v in range(u + 1, n)], n)
    raise ValueError(f"no reference builder for family {family!r}")


def reference_csr(edges, n: int) -> dict[str, np.ndarray]:
    """The five CSR arrays of a simple graph, built in plain Python: each
    vertex's sorted adjacency list gives its ports, and a dict from
    (source, target) to arc index gives each arc's reverse."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[int(u)].append(int(v))
        adjacency[int(v)].append(int(u))
    offsets, targets, sources = [0], [], []
    for v, neighbors in enumerate(adjacency):
        targets.extend(sorted(neighbors))
        sources.extend([v] * len(neighbors))
        offsets.append(len(targets))
    arc = {(s, t): i for i, (s, t) in enumerate(zip(sources, targets))}
    arrays = {
        "offsets": offsets,
        "targets": targets,
        "reverse": [arc[(t, s)] for s, t in zip(sources, targets)],
        "degrees": [len(neighbors) for neighbors in adjacency],
        "arc_source": sources,
    }
    return {name: np.array(values, dtype=np.int64) for name, values in arrays.items()}


def random_regular_oracle(n: int, d: int, seed: int, attempts: int = 1000) -> list[tuple[int, int]]:
    """The sorted edges of ``random_regular_graph(n, d, seed)``, by stub
    matching with every round paired one stub pair at a time in a Python set.
    A dense request, d > (n - 1) / 2, gives the complement of the
    (n - 1 - d)-regular matching from the same seed.  Raises the generator's
    ValueError when ``attempts`` pairings all fail."""
    rng = np.random.default_rng(seed)
    dense = 2 * d > n - 1

    def suitable(edges, potential):
        if not potential:
            return True
        for s1 in potential:
            for s2 in potential:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def try_pairing():
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * (n - 1 - d if dense else d)
        while stubs:
            potential: dict[int, int] = defaultdict(int)
            arr = np.array(stubs, dtype=np.int64)
            rng.shuffle(arr)
            it = iter(arr.tolist())
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential[s1] += 1
                    potential[s2] += 1
            if not suitable(edges, potential):
                return None
            stubs = [v for v, k in potential.items() for _ in range(k)]
        return edges

    for _ in range(attempts):
        edges = try_pairing()
        if edges is not None:
            if dense:
                edges = {(u, v) for u in range(n) for v in range(u + 1, n)} - edges
            return sorted(edges)
    raise ValueError(f"failed to sample a simple {d}-regular graph on {n} vertices")


def read_edge_list_oracle(path) -> Graph:
    """``read_edge_list`` by a pass over the split lines: every token goes
    through ``int()`` on its own and every error names its line."""
    split = [line.split() for line in Path(path).read_text().splitlines()]
    linenos = [lineno for lineno, row in enumerate(split, start=1) if row]
    rows = [split[lineno - 1] for lineno in linenos]
    if not rows or len(rows[0]) != 2:
        raise ValueError(f"{path}: first line must be 'n m'")
    n, m = (_parse_int(v, f"{path}:{linenos[0]}") for v in rows[0])
    _check_vertex_count(n, f"{path}:{linenos[0]}: vertex count")
    linenos, rows = linenos[1:], rows[1:]
    if len(rows) != m:
        raise ValueError(f"{path}: expected {m} edge lines, found {len(rows)}")
    edges = []
    for lineno, row in zip(linenos, rows):
        where = f"{path}:{lineno}"
        if len(row) != 2:
            raise ValueError(f"{where}: malformed edge line {' '.join(row)!r}")
        edges.append((_parse_int(row[0], where), _parse_int(row[1], where)))
    try:
        return build_graph(edges, n)
    except _EdgeError as err:
        raise ValueError(f"{path}:{linenos[err.index]}: {err}") from None


def select_disjoint_pairs_oracle(g: Graph, k: int, seed: int) -> list[int]:
    """Pair selection over ``g.edge_list()`` tuples, with the seeded
    permutation and acceptance rule of ``experiments.select_disjoint_pairs``."""
    rng = np.random.default_rng(seed)
    edges = g.edge_list()
    order = rng.permutation(len(edges))
    marked: set[int] = set()
    chosen = 0
    for i in order:
        if chosen == k:
            break
        u, v = edges[i]
        if u in marked or v in marked:
            continue
        if any(int(w) in marked for w in g.neighbors(u)) or any(int(w) in marked for w in g.neighbors(v)):
            continue
        marked.update((u, v))
        chosen += 1
    if chosen != k:
        raise ValueError(f"could not place {k} non-adjacent marked pairs (placed {chosen})")
    return sorted(marked)


def make_assignment_oracle(comp: MarkedComponent, coefficients, tol: float) -> dict[tuple[int, int], float]:
    """The checked coefficients of ``stationary.make_assignment``, with each
    vertex's sum taken by a scan over every coefficient; raises the same
    InfeasibleComponentError at the first failing vertex, and ValueError on
    an edge named twice."""
    coeffs = {}
    for e, c in coefficients.items():
        edge = tuple(sorted(int(v) for v in e))
        if edge in coeffs:
            raise ValueError(f"coefficients name edge {edge} twice")
        coeffs[edge] = float(c)
    for v in comp.vertices:
        total = sum(c for e, c in coeffs.items() if v in e)
        required = -comp.outgoing_degree[v]
        if not abs(total - required) <= tol:  # NaN fails too
            raise InfeasibleComponentError(
                f"coefficient sum at vertex {v} is {total}, constraint requires {required}"
            )
    return dict(sorted(coeffs.items()))


def overlap(s1: WalkState, s2: WalkState) -> float:
    """Standard inner product of two states on the same graph."""
    if s1.amplitudes.size != s2.amplitudes.size:
        raise ValueError(
            f"dimension mismatch: {s1.amplitudes.size} vs {s2.amplitudes.size} amplitudes"
        )
    return float(np.dot(s1.amplitudes, s2.amplitudes))


def brute_force_bipartite(vertices, edges) -> bool:
    """Try every 2-coloring of the vertices (first vertex pinned)."""
    verts = sorted(vertices)
    if not verts:
        return True
    k = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    for bits in range(1 << (k - 1)):
        coloring = [0] + [(bits >> i) & 1 for i in range(k - 1)]
        if all(coloring[index[u]] != coloring[index[v]] for u, v in edges):
            return True
    return False


def random_simple_graph(rng: np.random.Generator, n: int, edge_prob: float) -> Graph:
    """Seeded Erdos-Renyi-style graph; retries until it has at least one edge."""
    while True:
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_prob
        ]
        if edges:
            return build_graph(edges, n)


def random_unit_state_vector(rng: np.random.Generator, size: int) -> np.ndarray:
    v = rng.standard_normal(size)
    return v / np.linalg.norm(v)


def grow_connected_marked_set(rng: np.random.Generator, g: Graph, size: int) -> list[int]:
    """Random connected vertex subset grown by frontier sampling."""
    start = int(rng.integers(g.n))
    chosen = {start}
    while len(chosen) < size:
        frontier = sorted(
            {int(w) for v in chosen for w in g.neighbors(v)} - chosen
        )
        if not frontier:
            break
        chosen.add(frontier[int(rng.integers(len(frontier)))])
    return sorted(chosen)


def block_coefficients(cols: int, row_off: int, col_off: int, rows_total: int, cols_total: int):
    """2x2-block edge sets on a row-major torus: vertical edges vs horizontal."""
    v00 = (row_off % rows_total) * cols + (col_off % cols_total)
    v01 = (row_off % rows_total) * cols + ((col_off + 1) % cols_total)
    v10 = ((row_off + 1) % rows_total) * cols + (col_off % cols_total)
    v11 = ((row_off + 1) % rows_total) * cols + ((col_off + 1) % cols_total)
    vertical = [tuple(sorted(p)) for p in ((v00, v10), (v01, v11))]
    horizontal = [tuple(sorted(p)) for p in ((v00, v01), (v10, v11))]
    return [v00, v01, v10, v11], vertical, horizontal


def squared_distance(x, a) -> float:
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    return float(np.sum((x - a) ** 2))


def sphere_ceiling(assignments) -> float:
    """The paper's second ceiling, ``a0^2 * (sqrt(S + D) + sqrt(S + 2D + 2E))^2``
    with ``a0^2 = 1/(2m)`` and S, D and E summed over every component.

    The unnormalised stationary state phi has ``a0`` on every arc and
    ``c*a0`` on the internal marked arcs; the walk keeps the state on the
    sphere of radius ``|psi0 - phi|`` around phi, so the marked probability
    stays below ``(|P_M phi| + |psi0 - phi|)^2``.
    """
    comps = [a.component for a in assignments]
    s = sum(a.sum_sq_directed for a in assignments)
    d = sum(c.total_outgoing for c in comps)
    e = sum(len(c.internal_edges) for c in comps)
    return (math.sqrt(s + d) + math.sqrt(s + 2 * d + 2 * e)) ** 2 / (2.0 * comps[0].graph.edge_count)


def farthest_point_on_sphere(a, r: float) -> np.ndarray:
    """The point of the radius-``r`` origin-centered sphere farthest from ``a``.

    Closed form: ``-(r/|a|) * a``, with squared distance ``(r + |a|)^2``.
    Rejects ``a = 0``, where every point of the sphere is equally far.
    """
    a = np.asarray(a, dtype=np.float64)
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        raise ValueError("a = 0 has no unique farthest point on the sphere")
    return -(r / norm) * a


def farthest_point_brute_force(a, r: float, samples: int, seed: int) -> tuple[np.ndarray, float]:
    """Sampling plus local ascent search for the farthest point of the
    radius-``r`` origin-centered sphere from ``a``.

    Stays independent of the closed form so it can act as its check:
    uniform sphere samples seed a coordinate-wise projected ascent (100
    iterations, step 0.01*r with geometric decay).  Deterministic for a
    given seed; dimensions above 8 are rejected as too coarse to sample.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.size
    if not 1 <= n <= 8:
        raise ValueError(f"dimension must be between 1 and 8, got {n}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    rng = np.random.default_rng(seed)
    if r == 0.0:
        x = np.zeros(n)
        return x, squared_distance(x, a)
    pts = rng.standard_normal((samples, n))
    norms = np.linalg.norm(pts, axis=1)
    pts = pts[norms > 0] * (r / norms[norms > 0])[:, None]
    if pts.size == 0:
        pts = np.full((1, n), r / math.sqrt(n))
    values = np.sum((pts - a) ** 2, axis=1)
    best = int(np.argmax(values))
    x, fx = pts[best].copy(), float(values[best])
    step_size = 0.01 * r
    for _ in range(100):
        for i in range(n):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[i] += sign * step_size
                cand *= r / float(np.linalg.norm(cand))
                fc = squared_distance(cand, a)
                if fc > fx:
                    x, fx = cand, fc
        step_size *= 0.95
    return x, fx


def max_marked_probability_oracle(g: Graph, marked, t_max: int) -> float:
    """Largest marked probability over a fresh ``t_max``-step evolution from
    the uniform state, step 0 included."""
    if t_max < 1:
        raise ValueError(f"t_max must be at least 1, got {t_max}")
    best = 0.0

    def see(_t: int, p: float) -> None:
        nonlocal best
        if p > best:
            best = p

    evolve(initial_state(g), marked, t_max, observer=see)
    return best
