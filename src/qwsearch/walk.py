"""Matrix-free evolution of the coined search walk over graph arcs.

One step applies, in order: a sign flip on every arc leaving a marked
vertex (query), a per-vertex inversion about the mean of each vertex's arc
amplitudes (the degree-d diffusion coin, x -> (2/d)*sum - x), and a swap of
every arc's amplitude with its reverse arc (flip-flop shift).  All three
maps are real orthogonal and the uniform starting state is real, so
amplitudes stay real for the whole evolution.

States are plain float64 vectors in global arc order.  A state is owned by
one evolution at a time; the pure operator functions below return new
states and never mutate their input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .graphs import Graph

__all__ = [
    "WalkState",
    "NormDriftError",
    "NORM_DRIFT_LIMIT",
    "initial_state",
    "apply_query",
    "apply_coin",
    "apply_shift",
    "step",
    "marked_probability",
    "evolve",
    "write_state_snapshot",
    "read_state_snapshot",
]

# Unit-norm drift beyond this aborts an evolution: orthogonal operators
# cannot drift on this scale, so exceeding it signals a bug, not roundoff.
NORM_DRIFT_LIMIT = 1e-6


class NormDriftError(RuntimeError):
    """State norm left the unit sphere by more than the drift guard allows."""


@dataclass
class WalkState:
    """Real amplitude vector over the directed arcs of a graph."""

    amplitudes: np.ndarray
    graph: Graph

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.float64)
        if amps.ndim != 1 or amps.size != self.graph.arc_count:
            raise ValueError(
                f"amplitude vector of length {amps.size} does not match arc count {self.graph.arc_count}"
            )
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def initial_state(g: Graph) -> WalkState:
    """Equal superposition over all arcs: every amplitude is 1/sqrt(2m)."""
    if g.arc_count == 0:
        raise ValueError("graph has no arcs; the walk state is empty")
    return WalkState(np.full(g.arc_count, 1.0 / math.sqrt(g.arc_count)), g)


def _marked_arc_indices(g: Graph, marked: Iterable[int]) -> np.ndarray:
    vs = sorted({int(v) for v in marked})
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"marked vertex {v} out of range for n={g.n}")
    if not vs:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.arange(g.offsets[v], g.offsets[v + 1]) for v in vs])


def _coin_image(g: Graph, amps: np.ndarray) -> np.ndarray:
    if amps.size == 0:
        return amps.copy()
    sums = np.add.reduceat(amps, g._coin_starts)
    return (sums * g._coin_scale)[g._arc_coin_rank] - amps


def _mass(amps: np.ndarray, idx: np.ndarray) -> float:
    picked = amps[idx]
    return float(np.dot(picked, picked))


def apply_query(state: WalkState, marked: Iterable[int]) -> WalkState:
    """Negate the amplitude of every arc leaving a marked vertex."""
    idx = _marked_arc_indices(state.graph, marked)
    amps = state.amplitudes.copy()
    amps[idx] = -amps[idx]
    return WalkState(amps, state.graph)


def apply_coin(state: WalkState) -> WalkState:
    """Invert every vertex's arc amplitudes about their mean."""
    return WalkState(_coin_image(state.graph, state.amplitudes), state.graph)


def apply_shift(state: WalkState) -> WalkState:
    """Swap each arc's amplitude with its reverse arc (an involution)."""
    return WalkState(state.amplitudes[state.graph.reverse], state.graph)


def step(state: WalkState, marked: Iterable[int]) -> WalkState:
    """One search step: query, then coin, then shift."""
    g = state.graph
    idx = _marked_arc_indices(g, marked)
    amps = state.amplitudes.copy()
    amps[idx] = -amps[idx]
    return WalkState(_coin_image(g, amps)[g.reverse], g)


def marked_probability(state: WalkState, marked: Iterable[int]) -> float:
    """Probability mass on arcs leaving marked vertices."""
    return _mass(state.amplitudes, _marked_arc_indices(state.graph, marked))


def evolve(
    state: WalkState,
    marked: Iterable[int],
    t_max: int,
    observer: Callable[[int, float], None] | None = None,
) -> WalkState:
    """Apply ``t_max`` steps, reporting (t, marked probability) after each.

    The observer also receives step 0 (the input state) before evolution
    begins.  If the norm drifts beyond NORM_DRIFT_LIMIT the evolution halts
    with NormDriftError instead of renormalizing silently: drift on that
    scale means an operator or input is wrong.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    g = state.graph
    idx = _marked_arc_indices(g, marked)
    amps = state.amplitudes.copy()
    if observer is not None:
        observer(0, _mass(amps, idx))
    if g.arc_count == 0:
        return WalkState(amps, g)
    for t in range(1, t_max + 1):
        amps[idx] = -amps[idx]
        sums = np.add.reduceat(amps, g._coin_starts)
        coined = (sums * g._coin_scale)[g._arc_coin_rank]
        np.subtract(coined, amps, out=coined)
        amps = coined[g.reverse]
        norm = math.sqrt(float(np.dot(amps, amps)))
        if not abs(norm - 1.0) <= NORM_DRIFT_LIMIT:  # NaN fails too
            raise NormDriftError(f"norm drifted to {norm!r} at step {t}; aborting evolution")
        if observer is not None:
            observer(t, _mass(amps, idx))
    return WalkState(amps, g)


# ---------------------------------------------------------------------------
# State snapshot format: one line per arc, "v c amplitude"
# ---------------------------------------------------------------------------


def write_state_snapshot(state: WalkState, path) -> None:
    g = state.graph
    offsets = g.offsets
    sources = g.arc_source
    lines = [
        f"{int(sources[arc])} {int(arc - offsets[sources[arc]])} {state.amplitudes[arc]:.17e}"
        for arc in range(g.arc_count)
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_state_snapshot(g: Graph, path) -> WalkState:
    amps = np.zeros(g.arc_count)
    seen = np.zeros(g.arc_count, dtype=bool)
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'v c amplitude', got {line!r}")
        arc = g.arc_index(int(parts[0]), int(parts[1]))
        if seen[arc]:
            raise ValueError(f"{path}:{lineno}: duplicate arc ({parts[0]}, {parts[1]})")
        seen[arc] = True
        amps[arc] = float(parts[2])
        if not math.isfinite(amps[arc]):
            raise ValueError(f"{path}:{lineno}: amplitude {parts[2]!r} is not finite")
    if not seen.all():
        raise ValueError(f"{path}: has {int(seen.sum())} arcs, graph has {g.arc_count}")
    return WalkState(amps, g)
