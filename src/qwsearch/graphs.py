"""Simple undirected graphs stored as CSR arrays over their directed arcs.

The walk state lives on directed arcs: a vertex ``v`` of degree ``d`` owns
the arcs ``offsets[v] .. offsets[v] + d - 1``, the c-th of them pointing at
the c-th smallest neighbor of ``v``, and ``reverse[i]`` is the arc
traversing arc ``i``'s edge in the opposite direction.  Sorting neighbor
lists ascending makes arc indices (and everything built on them)
reproducible across runs and platforms.

Every graph, generated or read from a file, comes from :func:`build_graph`,
which validates an edge array, sorts its arc keys once and takes all four
stored arrays, the reverse-arc map included, from that one sort.

Graphs and marked components are immutable after construction and can be
shared freely between concurrent workers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

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
    :func:`read_edge_list`.  It stores four arrays, all marked read-only:
    the per-arc ``targets`` and ``reverse`` as int32 when the vertex and
    arc counts allow it (int64 past 2^31 - 1), 8 bytes per arc, and the
    per-vertex ``offsets`` and ``degrees`` as int64, 16 bytes per vertex,
    since index arithmetic starts from them.

    Attributes
    ----------
    n : int
        Vertex count.
    offsets : ndarray, shape (n+1,)
        CSR pointers; the arcs of vertex v are ``offsets[v]:offsets[v+1]``.
    targets : ndarray, shape (2m,)
        Head vertex of each arc (each vertex's arcs list its neighbors in
        ascending order).
    reverse : ndarray, shape (2m,)
        Involution mapping each arc to the arc pointing back.
    degrees : ndarray, shape (n,)
    arc_source : ndarray, shape (2m,)
        Tail vertex of each arc, in the dtype of ``targets``: derived from
        ``degrees`` on every read, not stored, so a caller that reads it
        more than once holds on to it.

    ``_walk_plan`` is an opaque private slot: the walk fills it on the
    graph's first walk and reuses it on every later one.
    """

    __slots__ = (
        "n",
        "offsets",
        "targets",
        "reverse",
        "degrees",
        "_walk_plan",
    )

    def __init__(self, n, offsets, targets, reverse, degrees):
        self.n = int(n)
        self.offsets = offsets
        self.targets = targets
        self.reverse = reverse
        self.degrees = degrees
        for arr in (offsets, targets, reverse, degrees):
            arr.setflags(write=False)
        self._walk_plan = None

    @property
    def arc_source(self) -> np.ndarray:
        """Tail vertex of each arc (a new read-only array on every read)."""
        sources = np.repeat(np.arange(self.n, dtype=self.targets.dtype), self.degrees)
        sources.setflags(write=False)
        return sources

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
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        if not 0 <= port < self.degrees[v]:
            raise ValueError(f"vertex {v} has no port {port} (degree {self.degree(v)})")
        return int(self.offsets[v] + port)

    def arc_between(self, u: int, v: int) -> int:
        """Index of the arc from u to v; raises if (u, v) is not an edge."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) out of range for n={self.n}")
        lo, hi = int(self.offsets[u]), int(self.offsets[u + 1])
        pos = lo + int(np.searchsorted(self.targets[lo:hi], v))
        if pos == hi or self.targets[pos] != v:
            raise ValueError(f"no edge between {u} and {v}")
        return pos

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        sources = self.arc_source
        mask = sources < self.targets
        return list(zip(sources[mask].tolist(), self.targets[mask].tolist()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _arcs_of(g: Graph, vertices: np.ndarray) -> np.ndarray:
    """The arcs of an int64 array of vertices, each vertex's in port order,
    concatenated in the order of ``vertices``."""
    lengths = g.degrees[vertices]
    return np.repeat(g.offsets[vertices] + lengths - np.cumsum(lengths), lengths) + np.arange(lengths.sum())


def _arcs_between(g: Graph, pairs: list[tuple[int, int]]) -> np.ndarray:
    """:meth:`Graph.arc_between` of each (u, v) pair, found at once among the
    arcs of the u's, so no arc-sized temporary is built."""
    uv = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    if ((uv >= 0) & (uv < g.n)).all():
        u, v = uv.T
        arcs = _arcs_of(g, u)
        arcs = arcs[g.targets[arcs] == np.repeat(v, g.degrees[u])]
        if arcs.size == u.size:
            return arcs
    # Some pair is not an edge: the per-pair lookup names the first.
    return np.array([g.arc_between(u, v) for u, v in pairs], dtype=np.int64)


# Largest vertex count and arc count whose indices a graph stores as
# int32; a larger graph stores them as int64.
_INT32_INDEX_LIMIT = np.iinfo(np.int32).max

# Arcs per run of build_graph's fills and of verify_stationary's
# reverse-arc gather (numpy gathers through an int64 index, so an int32
# one is converted a run at a time).  A run's temporaries are about 36 KB,
# 71 KB at 2^12 arcs and 141 KB at 2^13.  On a 512x512 torus the build
# took 49-50 ms at this size against 45-46 at 2^13 arcs, and the check the
# same time at 2^12 to 2^22.
_GATHER_RUN = 1 << 11


class _EdgeError(ValueError):
    """An invalid edge, with its position in the edge list."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def build_graph(edges: Iterable[tuple[int, int]] | np.ndarray, n: int) -> Graph:
    """Build a graph from unordered vertex pairs, or an (m, 2) integer array.

    Each vertex's arcs follow ascending neighbor order and the reverse-arc map
    is fully populated.  Self-loops, duplicate edges (in either
    orientation), and out-of-range endpoints are rejected, naming the
    offending edge: the first self-loop or out-of-range edge in input
    order, else the smallest duplicated edge.
    """
    _check_vertex_count(n)
    if not isinstance(edges, np.ndarray):
        edges = [(int(u), int(v)) for u, v in edges]
    try:
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # an endpoint beyond int64, which the range check names
        e = np.asarray(edges, dtype=object).reshape(-1, 2)
    u, v = e[:, 0], e[:, 1]
    # Three reductions tell whether any edge is bad; the masks that name
    # the first one are built only then.
    if e.size and (e.min() < 0 or e.max() >= n or (u == v).any()):
        bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
        i = int(bad.argmax())
        a, b = int(u[i]), int(v[i])
        if a == b:
            raise _EdgeError(i, f"self-loop at vertex {a}: edge ({a}, {b})")
        raise _EdgeError(i, f"edge ({a}, {b}) out of range for n={n}")
    e = e.astype(np.int64, copy=False)
    u, v = e.T
    m = u.size
    degrees = np.bincount(e.reshape(-1), minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    # Arc i < m runs u[i] -> v[i] and arc i + m runs v[i] -> u[i]; sorting
    # their keys src * n + dst once gives the CSR order of every array.
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n, out=keys[:m])
    keys[:m] += v
    np.multiply(v, n, out=keys[m:])
    keys[m:] += u
    order = np.argsort(keys, kind="stable")
    # The stored arrays are filled a run of sorted positions at a time, so
    # the build holds nothing arc-sized beyond them and the int64 keys and
    # order: 24 bytes per arc with int32 indices.  One int64 targets array
    # cast at the end raised a 512x512 torus run's peak RSS by 2.5 MB, and
    # one cast as it was freed raised a threaded sweep's by about 2 MB.
    index = np.int32 if max(n, 2 * m) <= _INT32_INDEX_LIMIT else np.int64
    targets = np.empty(2 * m, dtype=index)
    for a in range(0, 2 * m, _GATHER_RUN):
        # The run's sorted keys, after the last key of the run before: a key
        # met twice in a row is a duplicate edge.
        run = keys[order[max(a - 1, 0) : a + _GATHER_RUN]]
        twice = run[1:] == run[:-1]
        if twice.any():
            lo, hi = sorted(divmod(int(run[twice.argmax()]), n))
            again = np.flatnonzero((np.minimum(u, v) == lo) & (np.maximum(u, v) == hi))[1]
            raise _EdgeError(int(again), f"duplicate edge ({lo}, {hi})")
        np.remainder(run[1:] if a else run, n, out=targets[a : a + _GATHER_RUN])
    # Input arcs j and j + m (mod 2m) are each other's reverse.  With
    # position the inverse of order, the arc at sorted position i has its
    # reverse at position[order[i] - m], a negative index wrapping mod 2m.
    # The unsorted keys hold position.
    position = keys
    for a in range(0, 2 * m, _GATHER_RUN):
        position[order[a : a + _GATHER_RUN]] = np.arange(a, min(a + _GATHER_RUN, 2 * m))
    order -= m
    reverse = np.empty(2 * m, dtype=index)
    for a in range(0, 2 * m, _GATHER_RUN):
        reverse[a : a + _GATHER_RUN] = position[order[a : a + _GATHER_RUN]]
    return Graph(n, offsets, targets, reverse, degrees)


def _check_vertex_count(n: int, where: str = "vertex count") -> None:
    """Reject a negative n, or one that numpy cannot take as an array length."""
    if n < 0:
        raise ValueError(f"{where} must be nonnegative, got {n}")
    if n > np.iinfo(np.int64).max:
        raise ValueError(f"{where} {n} is above the int64 maximum")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def cycle_graph(n: int) -> Graph:
    """Cycle 0 - 1 - ... - (n-1) - 0 (2-regular)."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got n={n}")
    _check_vertex_count(n)
    v = np.arange(n, dtype=np.int64)
    return build_graph(np.stack([v, (v + 1) % n], axis=1), n)


def torus2d_graph(rows: int, cols: int) -> Graph:
    """Two-dimensional lattice with periodic boundaries (4-regular).

    Vertices are numbered row-major: (r, c) -> r * cols + c.
    """
    if rows < 3 or cols < 3:
        raise ValueError(f"torus2d needs rows, cols >= 3, got {rows}x{cols}")
    n = rows * cols
    _check_vertex_count(n)
    v = np.arange(n, dtype=np.int64)
    # Every right edge, then every down edge: each half of the arc keys
    # comes in a few ascending runs, which the stable sort merges quickly.
    edges = np.empty((2, n, 2), dtype=np.int64)
    edges[:, :, 0] = v
    edges[0, :, 1] = v - v % cols + (v + 1) % cols
    edges[1, :, 1] = (v + cols) % n
    return build_graph(edges.reshape(-1, 2), n)


def complete_graph(n: int) -> Graph:
    """Complete graph K_n ((n-1)-regular)."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got n={n}")
    _check_vertex_count(n)
    return build_graph(np.stack(np.triu_indices(n, 1), axis=1).astype(np.int64, copy=False), n)


# Stub pairings random_regular_graph tries before it gives up.
_PAIRING_ATTEMPTS = 1000


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """Uniform-ish simple d-regular graph, deterministic for a given seed.

    Stub matching with an early dead-end check (adapted from the standard
    NetworkX procedure).  A dense request, d > (n - 1) / 2, samples the
    sparse (n - 1 - d)-regular graph from the same seed and returns its
    complement, which is uniform whenever that sample is.  Raises
    ValueError when 1000 pairings all fail.
    """
    if not 0 <= d < n:
        raise ValueError(f"random_regular needs 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"random_regular needs n*d even, got n={n}, d={d}")
    if seed < 0:
        raise ValueError(f"random_regular needs seed >= 0, got {seed}")
    _check_vertex_count(n)
    rng = np.random.default_rng(seed)
    dense = 2 * d > n - 1

    def suitable(edges, potential):
        # True if a legal pairing of the leftover stubs can still exist;
        # edges holds the accepted keys, ascending.
        for s1 in potential:
            for s2 in potential:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                key = s1 * n + s2
                at = edges.searchsorted(key)
                if at == edges.size or edges[at] != key:
                    return True
        return False

    def try_pairing():
        # Each round shuffles its stubs and pairs them in order.  A pair
        # (s1, s2), s1 <= s2, is accepted when its edge key s1*n + s2 is not
        # a multiple of n + 1 (a self-loop), is the key's first occurrence
        # in the round, and is not an edge already; the rejected stubs,
        # counted in order of first appearance, make the next round.
        stubs = np.tile(np.arange(n, dtype=np.int64), n - 1 - d if dense else d)
        edges = np.empty(0, dtype=np.int64)  # the accepted keys, ascending
        while stubs.size:
            rng.shuffle(stubs)
            pairs = stubs.reshape(-1, 2)
            pairs.sort(axis=1)
            keys = pairs[:, 0] * n + pairs[:, 1]
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            fresh = np.empty(keys.size, dtype=bool)
            fresh[:1] = True
            np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
            fresh &= keys % (n + 1) != 0
            at = np.searchsorted(edges, keys)
            fresh &= at == np.searchsorted(edges, keys, side="right")
            edges = np.insert(edges, at[fresh], keys[fresh])
            accepted = np.empty_like(fresh)
            accepted[order] = fresh
            left, first, counts = np.unique(pairs[~accepted], return_index=True, return_counts=True)
            by_first = np.argsort(first)
            left, counts = left[by_first], counts[by_first]
            stubs = np.repeat(left, counts)
            if stubs.size and not suitable(edges, left.tolist()):
                return None
        return edges

    for _ in range(_PAIRING_ATTEMPTS):
        keys = try_pairing()
        if keys is not None:
            if dense:
                u, v = np.triu_indices(n, 1)
                keys = np.setdiff1d(u * n + v, keys, assume_unique=True)
            return build_graph(np.stack(np.divmod(keys, n), axis=1), n)
    raise ValueError(f"failed to sample a simple {d}-regular graph on {n} vertices")


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
    for v in sorted(marked_set):
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


def _records(path) -> Iterator[tuple[str, str, list[str]]]:
    """``(where, line, line.split())`` for each line of the text file at ``path`` that has a
    token, with ``where`` = ``<path>:<line number>``, every line counted."""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        tokens = line.split()
        if tokens:
            yield f"{path}:{lineno}", line, tokens


def _parse_int(text: str, where: str) -> int:
    """``int(text)``, failing with the one-line message ``<where>: bad integer '<text>'``."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: bad integer {text!r}") from None


def _parse_finite(text: str, what: str, where: str) -> float:
    """``float(text)``, failing with the one-line message ``<where>: bad number '<text>'``, or with
    ``<where>: <what> '<text>' is not finite`` on nan and inf: a NaN passes any ``> tol`` check later."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{where}: bad number {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: {what} {text!r} is not finite")
    return value


def read_edge_list(path) -> Graph:
    """The graph in an edge-list file, each line split into tokens by ``str.split()``."""
    lines = Path(path).read_text().splitlines()
    counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.int64, count=len(lines))
    linenos = np.flatnonzero(counts) + 1
    if not linenos.size or counts[linenos[0] - 1] != 2:
        raise ValueError(f"{path}: first line must be 'n m'")
    n, m = (_parse_int(v, f"{path}:{linenos[0]}") for v in lines[linenos[0] - 1].split())
    _check_vertex_count(n, f"{path}:{linenos[0]}: vertex count")
    linenos = linenos[1:]
    if linenos.size != m:
        raise ValueError(f"{path}: expected {m} edge lines, found {linenos.size}")
    edges = None
    if (counts[linenos - 1] == 2).all():
        tokens = " ".join(lines).split()[2:]
        try:
            edges = np.array(tokens, dtype=np.int64).reshape(-1, 2)  # parses each token as int() does
        except (ValueError, OverflowError):
            pass  # a bad integer, or one beyond int64: found line by line below
    if edges is None:
        edges = []
        for where, _, row in list(_records(path))[1:]:  # past the 'n m' line
            if len(row) != 2:
                raise ValueError(f"{where}: malformed edge line {' '.join(row)!r}")
            edges.append((_parse_int(row[0], where), _parse_int(row[1], where)))
    try:
        return build_graph(edges, n)
    except _EdgeError as err:
        raise ValueError(f"{path}:{linenos[err.index]}: {err}") from None
