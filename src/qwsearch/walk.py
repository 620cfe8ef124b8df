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

The step is written once, in ``_Kernel``: ``evolve`` runs it in a loop,
``step`` runs it once and ``apply_coin`` runs its coin.  It works on two
buffers allocated per call, laid out by the coin plan the graph picked
when it was built.  On a d-regular graph with d <= 8 the plan is
port-major: the state is a (d, n) array and the coin sums are d - 1 row
adds in the order np.add.reduceat uses, a0 + (((a1 + a2) + a3) + ...).
Where the shift mostly moves whole rows, as on tori and cycles, the coin's
subtract writes straight into the shifted positions, one row slice per
port plus a small fix-up gather, and the buffers swap roles each step;
elsewhere, as on random regular graphs, the coin's image is gathered
through the shift.  numpy sums 8 or more elements pairwise, so beyond
d = 8 row adds would change the last bits; those graphs, complete graphs
and irregular graphs use the segment plan (np.add.reduceat over each
vertex's arcs).  Every plan computes each amplitude by the same
operations, so all give results bit for bit equal to each other and to
the step as written above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .graphs import Graph, _parse_float, _parse_int

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


def _port_sums(rows: np.ndarray, out: np.ndarray) -> None:
    """Column sums of a (d, n) array, 1 <= d <= 8, written to ``out`` in
    np.add.reduceat's order a0 + (((a1 + a2) + a3) + ...), so they equal
    its per-segment sums bit for bit, signed zeros included."""
    d = rows.shape[0]
    if d == 1:
        np.copyto(out, rows[0])
    elif d == 2:
        np.add(rows[0], rows[1], out=out)
    else:
        np.add(rows[1], rows[2], out=out)
        for p in range(3, d):
            np.add(out, rows[p], out=out)
        np.add(rows[0], out, out=out)


def _page_placed(size: int, quarter: int) -> np.ndarray:
    """An uninitialised float64 array of ``size`` starting ``quarter``/4 of the way into a 4 KB page.
    Left to malloc, the relative placement of the step's buffers moved a 128x128 torus step by up
    to a third (about 65 vs 85 us, one thread on a 2-vCPU Xeon), whatever was allocated before."""
    raw = np.empty(size + 512)
    start = (1024 * quarter - raw.ctypes.data) % 4096 // 8
    return raw[start : start + size]


class _Kernel:
    """One walk's state in its graph's coin-plan layout, with the buffers
    the step works in.

    The query runs in place on ``x``.  Where the plan has row slices, the
    coin's image goes straight to its shifted position in ``spare``: one
    subtract per destination row, then the fix-ups, after which the two
    buffers swap roles.  Other plans write the coin's image to ``spare``
    and gather it back into ``x`` through ``shift``.  A kernel belongs to
    one call; graphs (and their plans) are shared between threads, so the
    buffers live here, not on the graph.
    """

    def __init__(self, g: Graph, amplitudes: np.ndarray, arcs: np.ndarray):
        self.plan = plan = g._coin_plan
        d = plan.ports
        self.x = _page_placed(amplitudes.size, 0)
        if d:
            self.x.reshape(d, g.n)[:] = amplitudes.reshape(g.n, d).T
            # Same order as ``arcs``, so _mass adds the same terms in turn.
            self.arcs = (arcs % d) * g.n + arcs // d
            self.sums = _page_placed(g.n, 2)
        else:
            self.x[:] = amplitudes
            self.arcs = arcs
        self.spare = _page_placed(amplitudes.size, 1)
        if plan.slices is not None:
            # Slice views for both directions between the buffers, and the
            # fix-up buffers, so a step allocates nothing.
            self.moves = (self._moves(self.x, self.spare), self._moves(self.spare, self.x))
            self.fix_sums = np.empty(plan.fix.size)
            self.fix_vals = np.empty(plan.fix.size)

    def _moves(self, src: np.ndarray, dst: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        d, sums = self.plan.ports, self.sums
        rows, out = src.reshape(d, -1), dst.reshape(d, -1)
        return [
            (sums[lo + k : hi + k], rows[p, lo + k : hi + k], out[q, lo:hi])
            for q, (p, k, lo, hi) in enumerate(self.plan.slices)
        ]

    def arc_order(self, x: np.ndarray) -> np.ndarray:
        """``x`` (the state or the spare buffer) in global arc order.

        A port-major kernel transposes it into its other buffer, whose
        pages are already mapped, rather than a fresh array that would
        fault them in again.  Either way the kernel is done afterwards.
        """
        d = self.plan.ports
        if not d:
            return x
        out = self.spare if x is self.x else self.x
        for p, row in enumerate(x.reshape(d, -1)):
            out[p::d] = row
        return out

    def _scaled_sums(self) -> np.ndarray:
        """A port-major kernel's coin sums of ``x``, times 2/d."""
        sums = self.sums
        _port_sums(self.x.reshape(self.plan.ports, -1), sums)
        np.multiply(sums, self.plan.scale, out=sums)
        return sums

    def coin(self) -> None:
        """Write the coin's image of ``x`` to ``spare``."""
        plan, x = self.plan, self.x
        if plan.ports:
            rows = x.reshape(plan.ports, -1)
            np.subtract(self._scaled_sums(), rows, out=self.spare.reshape(rows.shape))
        else:
            sums = np.add.reduceat(x, plan.starts)
            np.subtract((sums * plan.scale)[plan.rank], x, out=self.spare)

    def step(self) -> None:
        x, arcs, plan = self.x, self.arcs, self.plan
        x[arcs] = -x[arcs]
        if plan.slices is None:
            self.coin()
            np.take(self.spare, plan.shift, out=x, mode="wrap")
            return
        sums = self._scaled_sums()
        for sums_part, rows_part, out in self.moves[0]:
            np.subtract(sums_part, rows_part, out=out)
        # The fix-ups go last: they overwrite the positions inside a row's
        # slice that read from elsewhere.
        np.take(sums, plan.fix_v, out=self.fix_sums, mode="wrap")
        np.take(x, plan.fix_src, out=self.fix_vals, mode="wrap")
        np.subtract(self.fix_sums, self.fix_vals, out=self.fix_vals)
        self.spare[plan.fix] = self.fix_vals
        self.x, self.spare = self.spare, x
        self.moves = self.moves[::-1]

    def norm(self) -> float:
        return math.sqrt(float(np.dot(self.x, self.x)))

    def mass(self) -> float:
        return _mass(self.x, self.arcs)


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
    g = state.graph
    kernel = _Kernel(g, state.amplitudes, np.empty(0, dtype=np.int64))
    kernel.coin()
    return WalkState(kernel.arc_order(kernel.spare), g)


def apply_shift(state: WalkState) -> WalkState:
    """Swap each arc's amplitude with its reverse arc (an involution)."""
    return WalkState(state.amplitudes[state.graph.reverse], state.graph)


def step(state: WalkState, marked: Iterable[int]) -> WalkState:
    """One search step: query, then coin, then shift."""
    g = state.graph
    kernel = _Kernel(g, state.amplitudes, _marked_arc_indices(g, marked))
    kernel.step()
    return WalkState(kernel.arc_order(kernel.x), g)


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
    kernel = _Kernel(g, state.amplitudes, _marked_arc_indices(g, marked))
    if observer is not None:
        observer(0, kernel.mass())
    if g.arc_count == 0:
        return WalkState(kernel.arc_order(kernel.x), g)
    for t in range(1, t_max + 1):
        kernel.step()
        norm = kernel.norm()
        if not abs(norm - 1.0) <= NORM_DRIFT_LIMIT:  # NaN fails too
            raise NormDriftError(f"norm drifted to {norm!r} at step {t}; aborting evolution")
        if observer is not None:
            observer(t, kernel.mass())
    return WalkState(kernel.arc_order(kernel.x), g)


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
        where = f"{path}:{lineno}"
        if len(parts) != 3:
            raise ValueError(f"{where}: expected 'v c amplitude', got {line!r}")
        v, port = _parse_int(parts[0], where), _parse_int(parts[1], where)
        try:
            arc = g.arc_index(v, port)
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
        if seen[arc]:
            raise ValueError(f"{where}: duplicate arc ({parts[0]}, {parts[1]})")
        seen[arc] = True
        amps[arc] = _parse_float(parts[2], where)
        if not math.isfinite(amps[arc]):
            raise ValueError(f"{where}: amplitude {parts[2]!r} is not finite")
    if not seen.all():
        raise ValueError(f"{path}: has {int(seen.sum())} arcs, graph has {g.arc_count}")
    return WalkState(amps, g)
