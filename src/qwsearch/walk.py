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
buffers allocated per call, laid out by a coin plan (``_CoinPlan``) that
the walk builds on a graph's first walk and keeps on the graph for every
later one.  On a d-regular graph with d <= 8 the plan is port-major: the
state is a (d, n) array and the coin sums are d - 1 row adds.  Where the
shift mostly moves whole rows, as on tori and cycles, the coin's subtract
writes straight into the shifted positions, one row slice per port plus a
small fix-up gather; elsewhere the coin's image is gathered through the
shift.  Regular graphs with d > 8 and irregular graphs use the segment
plan (np.add.reduceat over each vertex's arcs).  Every plan computes each
amplitude by the same operations, so all give results bit for bit equal
to each other and to the step as written above.

The sliced step runs those row slices in blocks of vertices: each block
computes its own coin sums plus a halo of up to max|k| vertices (the
largest vertex offset a slice reads) and subtracts while the block is in
cache.  A graph of n vertices takes ceil(n / _BLOCK_VERTICES) blocks of
near-equal width, so one block covers every graph of up to 2^15
vertices.  The amplitudes are the same bits however the vertices are
blocked.

``evolve``'s norm guard is one dot of the whole state after every step,
on every plan.  numpy hands a dot of more than 10,000 elements to BLAS,
and OpenBLAS left at its default thread count runs it on threads of its
own that spin on the other cores: pin BLAS to one thread
(OPENBLAS_NUM_THREADS=1), as the benchmark harness does.
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


# Most ports a port-major coin plan handles.  A vertex's coin sum must
# equal np.add.reduceat's, a0 + (((a1 + a2) + a3) + ...): numpy adds fewer
# than 8 elements sequentially but sums 8 or more pairwise, so the row adds
# of _port_sums reproduce it bit for bit only up to d = 8.
_PORT_MAJOR_MAX_DEGREE = 8

# Most fix-ups, as a fraction of the arcs, for which a port-major plan
# fuses the coin's subtract into the shift (see _CoinPlan).  A fix-up costs
# two gathers and a scatter where a slice entry costs one streamed
# subtract.  Per step on 4-regular tori of 2^16 arcs (one thread, 2-vCPU
# Xeon, numpy 2.4), the fused step took 0.44-0.49 of the gather step's
# time at 3-8% fix-ups, 0.75-0.84 at 16-21%, 0.93-0.95 at 31% and 1.1-1.8
# at 42-67%; at 2^20 arcs, 0.56 at 31% and 1.55 at 63%.  The crossover is
# near 1/3; 1/4 keeps a margin below it.  Random regular graphs are almost
# all fix-ups (twice the gather step's time) and never qualify.
_SLICE_MAX_FIX_FRACTION = 0.25

# Most vertices in a block of the sliced step: a graph of n vertices takes
# ceil(n / _BLOCK_VERTICES) blocks whose widths differ by at most one (see
# _blocks), so a graph of up to 2^15 vertices is one block.  A full block
# of a 4-regular torus reads 1 MB of the state and writes 1 MB.  Per step
# against one block (one thread on a 2-vCPU Xeon with 2 MB of L2 per core,
# OpenBLAS pinned to one thread, medians of 11-25 interleaved rounds):
# 0.88-0.92 on the 256x256 torus, 0.73 on 512x512, 0.95-0.96 on 200x200
# and 0.81-0.90 on cycle(40000).  The 182x181 torus (32,942 vertices) read
# 0.99-1.08, inside the noise: one block read 0.98-1.07 against itself at
# 181x181.  Blocks of exactly 2^15 vertices leave a runt last block: 0.98
# on cycle(40000) and 0.97-1.05 on the 200x200 torus.  At 2^18 vertices,
# blocks of at most 2^13, 2^14, 2^15 and 2^16 vertices took 2.04, 1.98,
# 2.02 and 2.12 ms per torus step and 1.03, 0.93, 0.93 and 1.03 ms per
# cycle step.
_BLOCK_VERTICES = 1 << 15


@dataclass(frozen=True)
class _CoinPlan:
    """Arc layout and coin bookkeeping for the step kernel on one graph.

    A port-major plan (``ports`` = d) serves graphs whose vertices all have
    degree d, 1 <= d <= _PORT_MAJOR_MAX_DEGREE: the kernel holds the
    amplitudes as a (d, n) array whose row p is port p of every vertex, so
    the coin is d - 1 contiguous row adds and one broadcast subtract.
    Every other graph gets a segment plan (``ports`` = 0): amplitudes stay
    in global arc order, np.add.reduceat sums the non-isolated vertices'
    segments and a rank gather broadcasts the sums back.

    The shift maps each position of the plan's layout to the position of
    its reverse arc.  Its range is checked when the plan is built, so the
    kernel can gather with ``mode="wrap"`` and skip numpy's per-call bounds
    check.

    A port-major plan whose shift mostly moves whole rows carries
    ``slices`` instead of ``shift``: for each destination row q, a tuple
    ``(p, k, lo, hi)`` saying that positions ``lo:hi`` of row q read row p
    at vertex offset k, so the kernel writes
    ``sums[lo+k:hi+k] - rows[p, lo+k:hi+k]`` straight into them.  ``lo``
    and ``hi - 1`` are the first and last positions that read (p, k).
    Every other position, outside ``lo:hi`` or inside it but reading
    elsewhere, is a fix-up: ``fix`` lists them in ascending order,
    ``fix_src`` is the shift at ``fix`` and ``fix_v`` its vertex, and the
    kernel writes ``sums[fix_v] - x[fix_src]`` to them after the slices.
    Plans with more than _SLICE_MAX_FIX_FRACTION of their arcs as fix-ups
    keep ``slices`` None and gather with ``shift``.
    """

    ports: int
    shift: np.ndarray | None  # None when the plan has slices
    scale: float | np.ndarray  # 2/d, or 2/degree per non-isolated vertex
    starts: np.ndarray | None = None  # segment plan: first arc of each non-isolated vertex
    rank: np.ndarray | None = None  # segment plan: arc -> index into starts
    slices: tuple[tuple[int, int, int, int], ...] | None = None
    fix: np.ndarray | None = None
    fix_src: np.ndarray | None = None
    fix_v: np.ndarray | None = None

    @classmethod
    def build(cls, g: Graph) -> "_CoinPlan":
        n, degrees = g.n, g.degrees
        d = int(degrees[0]) if n else 0
        port_major = 1 <= d <= _PORT_MAJOR_MAX_DEGREE and bool(np.all(degrees == d))
        if port_major:
            # Arc v*d + p sits at position p*n + v.  Its reverse r = w*d + q,
            # with w its target, sits at (r - w*d)*n + w = r*n - w*(d*n - 1).
            shift = np.empty((d, n), dtype=np.int64)
            np.multiply(g.reverse.reshape(n, d).T, n, out=shift)
            shift -= g.targets.reshape(n, d).T * (d * n - 1)
            shift = shift.reshape(-1)
        else:
            shift = g.reverse
        if shift.size and not (shift.min() >= 0 and shift.max() < g.arc_count):
            raise ValueError("reverse-arc map points outside the arc range")
        if port_major:
            sliced = _slice_fields(shift.reshape(d, n))
            plan = cls(d, None if sliced else shift, 2.0 / d, **sliced)
        else:
            # Degree-0 vertices own no arcs and must be skipped:
            # np.add.reduceat cannot represent empty segments.
            positive = degrees > 0
            rank = np.cumsum(positive) - 1
            plan = cls(0, shift, 2.0 / degrees[positive], starts=g.offsets[:-1][positive], rank=rank[g.arc_source])
        for arr in (plan.shift, plan.scale, plan.starts, plan.rank, plan.fix, plan.fix_src, plan.fix_v):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        return plan


def _slice_fields(shift: np.ndarray) -> dict:
    """The slice fields of a port-major plan with this (d, n) shift, or no
    fields if its fix-ups would exceed _SLICE_MAX_FIX_FRACTION of the arcs.

    Row q's (p, k) is its most common source row p, then the most common
    vertex offset k among the positions reading row p: two bincounts per
    row, so the build is O(arcs) with no sort.
    """
    d, n = shift.shape
    budget = shift.size * _SLICE_MAX_FIX_FRACTION
    v = np.arange(n, dtype=np.int64)
    slices, fixes, fix_count = [], [], 0
    for q, src in enumerate(shift):
        src_row = src // n
        p = int(np.bincount(src_row, minlength=d).argmax())
        delta = src - v  # p*n + k where position v reads (p, v + k)
        k = int(np.bincount(delta[src_row == p] - (p * n - n)).argmax()) - n
        reads = delta == p * n + k
        reads[: max(0, -k)] = False  # these read row p - 1 or p + 1
        reads[min(n, n - k) :] = False
        slices.append((p, k, int(reads.argmax()), n - int(reads[::-1].argmax())))
        miss = np.flatnonzero(~reads)
        fix_count += miss.size
        if fix_count > budget:
            return {}
        fixes.append(miss + q * n)
    fix = np.concatenate(fixes)
    fix_src = shift.reshape(-1)[fix]
    return dict(slices=tuple(slices), fix=fix, fix_src=fix_src, fix_v=fix_src % n)


def _blocks(slices, n: int) -> list[tuple]:
    """Split vertices 0..n-1 into ceil(n / _BLOCK_VERTICES) contiguous
    blocks whose widths differ by at most one.  Each block is
    ``(s, e, a, b, moves)``: it owns vertices ``a:b``, its slice subtracts
    read the coin sums of ``s:e`` (the block and its halo of up to max|k|
    vertices), and ``moves`` holds ``(q, p, k, j0, j1)`` for each row q
    whose slice meets it, clipped to positions ``j0:j1``."""
    count = -(-n // _BLOCK_VERTICES)
    blocks = []
    for i in range(count):
        a, b = n * i // count, n * (i + 1) // count
        s, e, moves = a, b, []
        for q, (p, k, lo, hi) in enumerate(slices):
            j0, j1 = max(a, lo), min(b, hi)
            if j0 < j1:
                moves.append((q, p, k, j0, j1))
                s, e = min(s, j0 + k), max(e, j1 + k)
        blocks.append((s, e, a, b, moves))
    return blocks


def _coin_plan(g: Graph) -> _CoinPlan:
    """``g``'s coin plan, built on its first call and kept on the graph."""
    plan = g._walk_plan
    if plan is None:
        plan = g._walk_plan = _CoinPlan.build(g)
    return plan


class _Kernel:
    """One walk's state in its graph's coin-plan layout, with the buffers
    the step works in.

    The query runs in place on ``x``.  Where the plan has row slices, the
    coin's image goes straight to its shifted position in ``spare``, block
    by block.  For each block of vertices the step computes the scaled coin
    sums of the block and of a halo of up to max|k| vertices on either
    side, which the block's slice subtracts also read, into ``sums``;
    gathers from them the sums that the block's vertices give the fix-ups;
    and runs every row's slice subtract over the block while its rows are
    still in cache.  The fix-ups follow, after which the two buffers swap
    roles.  Every amplitude is ``sums[w]*(2/d) - x[p, w]`` however the
    vertices are blocked, so every layout gives the same bits.  Other plans
    write the coin's image to ``spare`` and gather it back into ``x``
    through ``shift``.

    The n vertices split into ceil(n / _BLOCK_VERTICES) blocks of
    near-equal width, so up to 2^15 vertices one block covers them all.
    ``coin`` alone, which ``apply_coin`` runs, sums every vertex at once.
    On every plan ``norm`` is one dot of the whole state; pin BLAS to one
    thread for it, as the benchmark does (see the module docstring).

    The blocks run on the calling thread.  Shared between two threads, they
    ran 200 steps of a 512x512 torus in 0.47-0.69 s against 0.73-0.84 s on
    one thread on an idle 2-vCPU host.  But each of a block's numpy calls
    retakes the interpreter lock, so a thread that lost its core to another
    process stalled the other: with a competing process busy 60% of one
    core, two threads took 0.99-1.34 s and one thread 0.70-0.86 s.

    A kernel belongs to one call, so its buffers live here.  The plan is
    read-only and lives on the graph, which threads share: the first kernel
    on a graph builds it and every later one reuses it.  Two threads that
    race on a graph's first walk both build the same plan, and the single
    attribute store keeps one of them, so no lock is needed.
    """

    def __init__(self, g: Graph, amplitudes: np.ndarray, arcs: np.ndarray):
        self.plan = plan = _coin_plan(g)
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
        if plan.slices is None:
            return
        # The fix-up buffers, so a step allocates nothing.
        self.fix_sums = np.empty(plan.fix.size)
        self.fix_vals = np.empty(plan.fix.size)
        # The fix-ups in vertex order, so each block gathers the coin sums
        # its own vertices give them into one run of fix_sums.
        order = np.argsort(plan.fix_v, kind="stable")
        self.fix, self.fix_src, self.fix_v = plan.fix[order], plan.fix_src[order], plan.fix_v[order]
        blocks = _blocks(plan.slices, g.n)
        # Block views for both directions between the buffers.
        self.block_moves = (self._block_moves(blocks, self.x, self.spare),
                            self._block_moves(blocks, self.spare, self.x))

    def _block_moves(self, blocks: list, src: np.ndarray, dst: np.ndarray) -> list:
        """The views each block works on in a step from ``src`` to ``dst``:
        the source rows over the block and its halo, the part of ``sums``
        that holds their sums, where in it the sums of the block's fix-ups'
        vertices lie and the run of ``fix_sums`` they go to, and per slice
        subtract its two operands and its output."""
        d, sums = self.plan.ports, self.sums
        rows, out = src.reshape(d, -1), dst.reshape(d, -1)
        bounds = np.searchsorted(self.fix_v, [(a, b) for _, _, a, b, _ in blocks])
        return [
            (rows[:, s:e], sums[: e - s], self.fix_v[lo:hi] - s, self.fix_sums[lo:hi], [
                (sums[j0 + k - s : j1 + k - s], rows[p, j0 + k : j1 + k], out[q, j0:j1])
                for q, p, k, j0, j1 in moves
            ])
            for (s, e, _, _, moves), (lo, hi) in zip(blocks, bounds)
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

    def coin(self) -> None:
        """Write the coin's image of ``x`` to ``spare``."""
        plan, x = self.plan, self.x
        if plan.ports:
            rows = x.reshape(plan.ports, -1)
            sums = self.sums
            _port_sums(rows, sums)
            np.multiply(sums, plan.scale, out=sums)
            np.subtract(sums, rows, out=self.spare.reshape(rows.shape))
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
        for views in self.block_moves[0]:
            _run_block(views, plan.scale)  # which also gathers fix_sums
        self.block_moves = self.block_moves[::-1]
        np.take(x, self.fix_src, out=self.fix_vals, mode="wrap")
        np.subtract(self.fix_sums, self.fix_vals, out=self.fix_vals)
        # The fix-ups go last: they overwrite the positions inside a row's
        # slice that read from elsewhere.
        self.spare[self.fix] = self.fix_vals
        self.x, self.spare = self.spare, x

    def norm(self) -> float:
        return math.sqrt(float(np.dot(self.x, self.x)))

    def mass(self) -> float:
        return _mass(self.x, self.arcs)


def _run_block(views: tuple, scale: float) -> None:
    """One block of the sliced step: the scaled coin sums over the block
    and its halo, the sums its fix-ups read gathered out, then every row's
    slice subtract while the block is in cache."""
    rows, sums, fix_at, fix_sums, moves = views
    _port_sums(rows, sums)
    np.multiply(sums, scale, out=sums)
    np.take(sums, fix_at, out=fix_sums, mode="wrap")
    for sums_part, rows_part, out in moves:
        np.subtract(sums_part, rows_part, out=out)


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
