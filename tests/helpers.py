"""Shared test utilities: reference oracles and graph builders.

The dense matrices are built straight from the operator definitions and
stay independent of the matrix-free code paths they check; the sphere
search is independent of the closed-form farthest point it checks.
"""

from __future__ import annotations

import math

import numpy as np

from qwsearch import Graph, build_graph, evolve, initial_state, squared_distance


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
