"""Simple undirected graphs with port-numbered arcs.

The walk state lives on directed arcs: a vertex ``v`` of degree ``d`` owns
ports ``0..d-1``, port ``c`` pointing at the c-th smallest neighbor of
``v``.  Arcs are stored CSR-style and indexed globally, so arc ``(v, c)``
has index ``offsets[v] + c`` and ``reverse[i]`` is the arc traversing the
same edge in the opposite direction.  Sorting neighbor lists ascending
makes arc indices (and everything built on them) reproducible across runs
and platforms.

Graphs and marked components are immutable after construction and can be
shared freely between concurrent workers.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

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
]


class Graph:
    """Immutable simple undirected graph with a global directed-arc index.

    Instances come from :func:`build_graph`, :func:`generate`, or
    :func:`read_edge_list`.  All arrays are marked read-only.

    Attributes
    ----------
    n : int
        Vertex count.
    offsets : ndarray, shape (n+1,)
        CSR pointers; the arcs of vertex v are ``offsets[v]:offsets[v+1]``.
    targets : ndarray, shape (2m,)
        Head vertex of each arc (the per-vertex slices are the sorted
        neighbor lists).
    reverse : ndarray, shape (2m,)
        Involution mapping each arc to the arc pointing back.
    degrees : ndarray, shape (n,)
    arc_source : ndarray, shape (2m,)
        Tail vertex of each arc.
    """

    __slots__ = (
        "n",
        "offsets",
        "targets",
        "reverse",
        "degrees",
        "arc_source",
        "_coin_starts",
        "_coin_scale",
        "_arc_coin_rank",
    )

    def __init__(self, n, offsets, targets, reverse, degrees, arc_source):
        self.n = int(n)
        self.offsets = offsets
        self.targets = targets
        self.reverse = reverse
        self.degrees = degrees
        self.arc_source = arc_source
        # Segment bookkeeping for the per-vertex coin reduction.  Degree-0
        # vertices own no arcs and must be skipped: np.add.reduceat cannot
        # represent empty segments.
        positive = degrees > 0
        rank = np.cumsum(positive) - 1
        self._coin_starts = offsets[:-1][positive]
        self._coin_scale = 2.0 / degrees[positive]
        self._arc_coin_rank = rank[arc_source]
        for name in self.__slots__:
            if name != "n":
                getattr(self, name).setflags(write=False)

    @property
    def arc_count(self) -> int:
        """Number of directed arcs, i.e. 2m."""
        return int(self.targets.size)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges m."""
        return int(self.targets.size // 2)

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor list of v (read-only view)."""
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def arc_index(self, v: int, port: int) -> int:
        if not 0 <= port < self.degrees[v]:
            raise ValueError(f"vertex {v} has no port {port} (degree {self.degree(v)})")
        return int(self.offsets[v] + port)

    def arc_endpoints(self, arc: int) -> tuple[int, int]:
        return int(self.arc_source[arc]), int(self.targets[arc])

    def arc_port(self, arc: int) -> int:
        return int(arc - self.offsets[self.arc_source[arc]])

    def arc_between(self, u: int, v: int) -> int:
        """Index of the arc from u to v; raises if (u, v) is not an edge."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) out of range for n={self.n}")
        lo, hi = int(self.offsets[u]), int(self.offsets[u + 1])
        pos = lo + int(np.searchsorted(self.targets[lo:hi], v))
        if pos == hi or self.targets[pos] != v:
            raise ValueError(f"no edge between {u} and {v}")
        return pos

    def has_edge(self, u: int, v: int) -> bool:
        try:
            self.arc_between(u, v)
        except ValueError:
            return False
        return True

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        mask = self.arc_source < self.targets
        return list(zip(self.arc_source[mask].tolist(), self.targets[mask].tolist()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def build_graph(edges: Iterable[tuple[int, int]], n: int) -> Graph:
    """Build a graph from unordered vertex pairs.

    Ports are assigned in ascending neighbor order and the reverse-arc map
    is fully populated.  Self-loops, duplicate edges (in either
    orientation), and out-of-range endpoints are rejected, naming the
    offending edge.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    pairs = [(int(u), int(v)) for u, v in edges]
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}: edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    if pairs:
        e = np.asarray(pairs, dtype=np.int64)
        src = np.concatenate([e[:, 0], e[:, 1]])
        dst = np.concatenate([e[:, 1], e[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        keys = src * n + dst
        dup = np.nonzero(keys[1:] == keys[:-1])[0]
        if dup.size:
            a, b = int(src[dup[0]]), int(dst[dup[0]])
            raise ValueError(f"duplicate edge ({min(a, b)}, {max(a, b)})")
        degrees = np.bincount(src, minlength=n)
        reverse = np.searchsorted(keys, dst * n + src).astype(np.int64)
    else:
        src = dst = reverse = np.empty(0, dtype=np.int64)
        degrees = np.zeros(n, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return Graph(n, offsets, dst, reverse, degrees, src)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got n={n}")
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


def torus2d_graph(rows: int, cols: int) -> Graph:
    """Two-dimensional lattice with periodic boundaries (4-regular).

    Vertices are numbered row-major: (r, c) -> r * cols + c.
    """
    if rows < 3 or cols < 3:
        raise ValueError(f"torus2d needs rows, cols >= 3, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, r * cols + (c + 1) % cols))
            edges.append((v, ((r + 1) % rows) * cols + c))
    return build_graph(edges, rows * cols)


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got n={n}")
    return build_graph([(u, v) for u in range(n) for v in range(u + 1, n)], n)


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """Uniform-ish simple d-regular graph, deterministic for a given seed.

    Stub-matching with an early dead-end check (adapted from the standard
    NetworkX procedure).
    """
    if not 0 <= d < n:
        raise ValueError(f"random_regular needs 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"random_regular needs n*d even, got n={n}, d={d}")
    if d == 0:
        return build_graph([], n)
    rng = np.random.default_rng(seed)

    def suitable(edges, potential):
        # True if a legal pairing of the leftover stubs can still exist.
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
        stubs = list(range(n)) * d
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

    for _ in range(1000):
        edges = try_pairing()
        if edges is not None:
            return build_graph(sorted(edges), n)
    raise RuntimeError(f"failed to sample a simple {d}-regular graph on {n} vertices")


_FAMILIES = {
    "cycle": cycle_graph,
    "torus2d": torus2d_graph,
    "complete": complete_graph,
    "random_regular": random_regular_graph,
}


def generate(family: str, **params) -> Graph:
    """Build a graph from a named family: cycle, torus2d, complete, random_regular."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown graph family {family!r}; expected one of {sorted(_FAMILIES)}") from None
    try:
        return builder(**params)
    except TypeError as err:
        raise ValueError(f"bad parameters for family {family!r}: {err}") from None


# ---------------------------------------------------------------------------
# Marked-set decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkedComponent:
    """One connected component of the marked-vertex-induced subgraph.

    Carries the degree bookkeeping the stationary-state machinery consumes:
    per-vertex counts of edges staying inside the marked set and of edges
    leaving it, plus the component-wide total of the latter.
    """

    graph: Graph
    vertices: tuple[int, ...]
    internal_edges: tuple[tuple[int, int], ...]
    internal_degree: Mapping[int, int]
    outgoing_degree: Mapping[int, int]
    total_outgoing: int
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def is_bipartite(self) -> bool:
        return self.bipartition is not None

    def bipartite_outgoing_sums(self) -> tuple[int, int] | None:
        """Totals of outgoing degree on the two sides, or None if non-bipartite."""
        if self.bipartition is None:
            return None
        a, b = self.bipartition
        return (
            sum(self.outgoing_degree[v] for v in a),
            sum(self.outgoing_degree[v] for v in b),
        )


def marked_components(g: Graph, marked: Iterable[int]) -> list[MarkedComponent]:
    """Split a marked vertex set into connected components.

    Components are connected in the marked-induced subgraph and returned in
    order of their smallest vertex.  The bipartition is populated (smallest
    vertex's side first, both sides sorted) exactly when the component has
    no odd cycle.
    """
    marked_set = {int(v) for v in marked}
    for v in marked_set:
        if not 0 <= v < g.n:
            raise ValueError(f"marked vertex {v} out of range for n={g.n}")
    components: list[MarkedComponent] = []
    unseen = set(marked_set)
    for start in sorted(marked_set):
        if start not in unseen:
            continue
        color = {start: 0}
        odd_cycle = False
        queue = deque([start])
        unseen.discard(start)
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v).tolist():
                if w not in marked_set:
                    continue
                if w not in color:
                    color[w] = color[v] ^ 1
                    unseen.discard(w)
                    queue.append(w)
                elif color[w] == color[v]:
                    odd_cycle = True
        verts = sorted(color)
        internal_degree = {v: sum(1 for w in g.neighbors(v).tolist() if w in color) for v in verts}
        outgoing_degree = {v: g.degree(v) - internal_degree[v] for v in verts}
        internal = tuple(
            sorted((v, int(w)) for v in verts for w in g.neighbors(v).tolist() if w in color and v < w)
        )
        if odd_cycle:
            bipartition = None
        else:
            side0 = tuple(v for v in verts if color[v] == color[verts[0]])
            side1 = tuple(v for v in verts if color[v] != color[verts[0]])
            bipartition = (side0, side1)
        components.append(
            MarkedComponent(
                graph=g,
                vertices=tuple(verts),
                internal_edges=internal,
                internal_degree=internal_degree,
                outgoing_degree=outgoing_degree,
                total_outgoing=sum(outgoing_degree.values()),
                bipartition=bipartition,
            )
        )
    return components


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v"
# ---------------------------------------------------------------------------


def write_edge_list(g: Graph, path) -> None:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_list())
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(path) -> Graph:
    text = Path(path).read_text()
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError(f"{path}: first line must be 'n m'")
    n, m = int(rows[0][0]), int(rows[0][1])
    if len(rows) - 1 != m:
        raise ValueError(f"{path}: expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"{path}: malformed edge line {' '.join(row)!r}")
        edges.append((int(row[0]), int(row[1])))
    return build_graph(edges, n)
