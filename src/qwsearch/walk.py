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
``step`` runs it once and ``apply_coin`` shifts back a step that marks
nothing.  It works on two buffers allocated per call, laid out by a coin
plan (``_CoinPlan``) that the walk builds on a graph's first walk and
keeps on the graph.  The layout groups the vertices by degree: each
degree up to 8 is a port-major block whose coin sums are row adds, and
the higher degrees share one np.add.reduceat segment.  Every port-major
block runs through ``_run_block`` on views cut once per walk: its coin
sums, their scale and one subtract per output row.  Two tails follow.  A
gather plan's blocks write each row to its own positions, the segment
follows and the shift gathers the image.  On a one-block plan whose shift
mostly moves whole rows (tori, cycles), the blocks are blocks of vertices
whose subtracts write straight to the shifted positions in row slices,
and a small fix-up gather, in the order the blocks read them, covers the
rest.  Every layout computes each amplitude by the same operations, so
all give results bit for bit equal to the step as written above.

``evolve``'s norm guard reads the sum of squares that every step leaves
behind.  A gather plan and a one-block sliced plan take it over the whole
state; a sliced plan of several blocks sums each block's output rows while
they are still in cache, and corrects the sum once for all the fix-ups that
overwrite them.  Every sum of squares here, the guard's, the marked mass
and ``WalkState.norm``, is ``_sum_sq``: dots of runs short enough that
OpenBLAS never splits them across threads, so its bits do not depend on the
BLAS thread count and no BLAS thread spins between steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .graphs import Graph, _arcs_of, _parse_finite, _parse_int, _records

__all__ = [
    "WalkState", "NormDriftError", "NORM_DRIFT_LIMIT", "initial_state", "apply_query", "apply_coin",
    "apply_shift", "step", "marked_probability", "evolve", "write_state_snapshot", "read_state_snapshot",
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
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf, which a unit check fails
            return math.sqrt(_sum_sq(self.amplitudes))


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
    return _arcs_of(g, np.array(vs, dtype=np.int64))


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


def _page_placed(size: int, quarter: int, alloc=np.empty) -> np.ndarray:
    """A float64 array of ``size`` from ``alloc`` (uninitialised, or np.zeros) starting ``quarter``/4
    of the way into a 4 KB page, so on a 64-byte line.  Left to malloc, the relative placement of the
    step's buffers moved a 128x128 torus step by up to a third (about 65 vs 85 us, one thread on a
    2-vCPU Xeon), whatever was allocated before."""
    raw = alloc(size + 512)
    start = (1024 * quarter - raw.ctypes.data) % 4096 // 8
    return raw[start : start + size]


def _line_cuts(out: np.ndarray) -> list[tuple[int, int]]:
    """``out``'s index ranges split where it first reaches a 64-byte line: a head of at most 7
    elements, then a body that starts on a line; empty ranges left out.  numpy's subtract took
    8.5-9.8 us to store 16,128 float64s starting mid-line and 4.3-4.6 us on a line, and its
    inputs' placement mattered far less (numpy 2.4, AVX-512 Xeon)."""
    head = min(out.size, -out.ctypes.data % 64 // out.itemsize)
    return [(i, j) for i, j in ((0, head), (head, out.size)) if i < j]


# Largest degree with a port-major block.  A vertex's coin sum must equal
# np.add.reduceat's, a0 + (((a1 + a2) + a3) + ...): numpy adds fewer than 8
# elements sequentially but sums 8 or more pairwise, so the row adds of
# _port_sums reproduce it bit for bit only up to d = 8.
_PORT_MAJOR_MAX_DEGREE = 8

# Most fix-ups, as a fraction of the arcs, for which a one-block plan
# fuses the coin's subtract into the shift (see _CoinPlan).  A fix-up costs
# two gathers and a scatter where a slice entry costs one streamed
# subtract.  Per step on 4-regular tori of 2^16 arcs (one thread, 2-vCPU
# Xeon, numpy 2.4), the fused step took 0.44-0.49 of the gather step's
# time at 3-8% fix-ups, 0.93-0.95 at 31% and 1.1-1.8 at 42-67%: the
# crossover is near 1/3, and 1/4 keeps a margin below it.  Random regular
# graphs are almost all fix-ups and never qualify.
_SLICE_MAX_FIX_FRACTION = 0.25

# Most vertices in a block of the sliced step: a graph of n vertices takes
# ceil(n / _BLOCK_VERTICES) blocks whose widths differ by at most one (see
# _block_bounds), so a graph of up to 2^14 vertices is one block.  A full
# block of a 4-regular torus reads 0.5 MB of the state and writes 0.5 MB;
# with its sums that is about 1.1 MB, still in a 2 MB L2 when the norm
# guard dots the block's output.  Blocks of exactly 2^14 vertices would
# leave a runt last block.  On the 512x512 torus, step plus guard (one
# thread on a 2-vCPU Xeon with 2 MB of L2 per core, OpenBLAS pinned) took
# a median of 1.51 ms in blocks of 2^15 without the fold and 1.32 ms in
# blocks of 2^14 with it; the fold alone at 2^15 took 1.43 ms, 2^14 alone
# 1.49 ms, and blocks of 2^13 with the fold 1.41 ms (BENCH_normfold.json).
_BLOCK_VERTICES = 1 << 14


def _block_bounds(n: int) -> list[tuple[int, int]]:
    """The vertex ranges ``a:b`` of the sliced step's ceil(n / _BLOCK_VERTICES)
    blocks, with bounds n*i//count so their widths differ by at most one."""
    count = -(-n // _BLOCK_VERTICES)
    return [(n * i // count, n * (i + 1) // count) for i in range(count)]


@dataclass(frozen=True)
class _CoinPlan:
    """Arc layout and coin bookkeeping for the step kernel on one graph.

    The vertices are grouped by degree.  Each degree d from 1 to
    _PORT_MAJOR_MAX_DEGREE that occurs is a block ``(d, start, width)``:
    positions ``start:start + d*width`` hold a (d, width) array whose row p
    is port p of the block's vertices, ascending, so its coin sums are
    d - 1 row adds.  The vertices of higher degree follow as one segment,
    ascending with their arcs in port order, summed by np.add.reduceat.
    Isolated vertices sit nowhere.  A d-regular graph is one block, its arc
    v*d + c at c*n + v, and a complete graph on more than nine vertices is
    one segment in arc order.

    ``shift`` maps each position to the position of its reverse arc, range
    checked at build so the kernel can gather with ``mode="wrap"``.  It and
    the fix-up arrays are int64, whatever the graph's index dtype, and left
    writable: np.take copies an index of any other dtype, or a read-only
    one, on every call, 8 bytes per arc per step.

    A one-block plan whose shift mostly moves whole rows carries
    ``slices`` instead: for each destination row q, ``(p, k, lo, hi)``
    says that positions ``lo:hi`` of row q read row p at vertex offset k
    (``lo`` and ``hi - 1`` do), so the kernel writes
    ``sums[lo+k:hi+k] - rows[p, lo+k:hi+k]`` straight into them.  The
    other positions are fix-ups, in ``fix``, with the shift at them in
    ``fix_src`` and its vertex in ``fix_v``: the kernel writes
    ``sums[fix_v] - x[fix_src]`` to them after the slices.  They are
    stored by ascending ``fix_v``, ties in position order, so the vertices
    of a block of the step read the sums of one run of them.  Plans with
    more than _SLICE_MAX_FIX_FRACTION of their arcs as fix-ups gather.
    """

    blocks: tuple[tuple[int, int, int], ...]
    segment: int  # the first position of the segment, past every block
    shift: np.ndarray | None  # None when the plan has slices
    slices: tuple[tuple[int, int, int, int], ...] | None = None
    fix: np.ndarray | None = None
    fix_src: np.ndarray | None = None
    fix_v: np.ndarray | None = None

    @classmethod
    def build(cls, g: Graph) -> "_CoinPlan":
        counts = np.bincount(g.degrees, minlength=_PORT_MAJOR_MAX_DEGREE + 1)
        blocks, start = [], 0
        for d in range(1, _PORT_MAJOR_MAX_DEGREE + 1):
            if counts[d]:
                blocks.append((d, start, int(counts[d])))
                start += d * int(counts[d])
        plan = cls(tuple(blocks), start, None)
        shift = _layout_shift(g, plan)
        if shift.size and not (shift.min() >= 0 and shift.max() < g.arc_count):
            raise ValueError("reverse-arc map points outside the arc range")
        if len(blocks) == 1 and start == g.arc_count:
            d, _, width = blocks[0]
            sliced = _slice_fields(shift.reshape(d, width))
            if sliced:
                return cls(plan.blocks, start, None, **sliced)
        return cls(plan.blocks, start, shift)


def _runs(g: Graph, plan: _CoinPlan):
    """``(start, arcs)`` for each run of ``plan``'s layout: ascending arcs
    at positions ``start:start + arcs.size``.  A run is a block row or the
    segment over at most _BLOCK_VERTICES vertices: whole rows' temporaries
    left the heap 4.5 MB fuller at the peak of a 512x512 torus run."""
    placed = dict.fromkeys(plan.blocks, 0)
    segment = plan.segment
    for v in range(0, g.n, _BLOCK_VERTICES):
        degrees, offsets = g.degrees[v : v + _BLOCK_VERTICES], g.offsets[:-1][v : v + _BLOCK_VERTICES]
        for block in plan.blocks:
            d, start, width = block
            first = offsets[degrees == d]
            for p in range(d if first.size else 0):
                yield start + p * width + placed[block], first + p
            placed[block] += first.size
        big = np.flatnonzero(degrees > _PORT_MAJOR_MAX_DEGREE)
        if big.size:
            arcs = _arcs_of(g, big + v)
            yield segment, arcs
            segment += arcs.size


def _layout_shift(g: Graph, plan: _CoinPlan) -> np.ndarray:
    """The position of each position's reverse arc in ``plan``'s layout,
    a run at a time.  Arc r of w sits at ``r*stride[w] + base[w]``: stride[w]
    is the width of w's block, or 1 in the segment, and base[w] the
    position of w's port 0 less offsets[w]*stride[w]."""
    base, stride = np.zeros(g.n, dtype=np.int64), np.ones(g.n, dtype=np.int64)
    for d, start, width in plan.blocks:
        at = g.degrees == d
        base[at], stride[at] = np.arange(start, start + width), width
    big = g.degrees > _PORT_MAJOR_MAX_DEGREE
    base[big] = np.cumsum(g.degrees[big]) + plan.segment - g.degrees[big]
    base -= g.offsets[:-1] * stride
    shift = np.empty(g.arc_count, dtype=np.int64)
    for start, arcs in _runs(g, plan):
        w = g.targets[arcs]  # the reverse arc's source
        out = shift[start : start + arcs.size]
        np.multiply(g.reverse[arcs], stride[w], out=out)
        out += base[w]
    return shift


def _slice_fields(shift: np.ndarray) -> dict:
    """The slice fields of a one-block plan with this (d, n) shift, or no
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
    fix = fix[np.argsort(shift.reshape(-1)[fix] % n, kind="stable")]
    fix_src = shift.reshape(-1)[fix]
    return dict(slices=tuple(slices), fix=fix, fix_src=fix_src, fix_v=fix_src % n)


def _coin_plan(g: Graph) -> _CoinPlan:
    """``g``'s coin plan, built on its first call and kept on the graph."""
    plan = g._walk_plan
    if plan is None:
        plan = g._walk_plan = _CoinPlan.build(g)
    return plan


class _Kernel:
    """One walk's state in its graph's coin-plan layout, with the buffers
    the step works in.

    The query runs in place on ``x``.  Then _run_block runs each block of
    ``block_views[0]`` (see _block_views): it computes the scaled coin sums
    of the block and its halo into ``sums``, gathers those its fix-ups
    read into its run of ``fix_sums``, in the plan's fix-up order, and
    runs every row's subtract over the block while its rows are still in
    cache.  On a gather plan the blocks are the degree blocks, each row
    written to its own place in ``spare``; the segment follows, and the
    shift gathers the image back into ``x``.  On a sliced plan they are
    blocks of vertices, cut once per direction, whose subtracts write row
    slices; the fix-ups follow, after which the two buffers swap roles.
    Every amplitude is ``sums[w]*(2/d) - x[p, w]`` however the vertices
    are blocked, so every layout gives the same bits.  Each row store of the
    coin's image is cut once, here, into a head of at most 7 elements and
    a body that starts on a 64-byte line (see _line_cuts): a 128x128 torus
    step went from 55-58 to 46-52 us (one thread, 2-vCPU Xeon).

    Each step leaves the state's sum of squares in ``sum_sq`` for the norm
    guard, each part of it through _sum_sq.  On a sliced plan of several
    blocks, the step sums each block's output rows, the last block's
    included, in one call right after the block writes them (the last of
    its views), so they are read from L2 rather than in a second pass over
    the state.  Those sums see the fix-up positions as they were before the
    scatter, so one correction over all the fix-ups, gathered just before
    it, adds their new squares less their old ones.  A one-block plan, like
    a gather plan, sums the whole state once after its fix-ups.  The buffer
    that the first step writes starts zeroed: the correction reads fix-up
    positions that no slice has written yet.

    The blocks run on the calling thread.  Split across two threads, 200
    steps of a 512x512 torus took 0.47-0.69 s against 0.73-0.84 s on an idle
    2-vCPU host, but each numpy call retakes the interpreter lock: with
    another process busy 60% of one core, 0.99-1.34 s against 0.70-0.86 s.

    A kernel belongs to one call, so its buffers live here.  The plan lives
    on the graph, which threads share: two threads that race on a graph's
    first walk both build the same plan, and the attribute store keeps one.
    """

    def __init__(self, g: Graph, amplitudes: np.ndarray, arcs: np.ndarray):
        self.g, self.plan = g, _coin_plan(g)
        plan, lengths = self.plan, g.degrees[g.degrees > _PORT_MAJOR_MAX_DEGREE]
        self.x, self.spare = _page_placed(amplitudes.size, 0), _page_placed(amplitudes.size, 1, np.zeros)
        self.sums = _page_placed(max([width for *_, width in plan.blocks] + [lengths.size]), 2)
        # The marked arcs' positions in the order of ``arcs``, so _mass adds
        # the same terms in turn.  Each run's arcs ascend.
        self.arcs = np.empty_like(arcs)
        for start, run in _runs(g, plan):
            np.take(amplitudes, run, out=self.x[start : start + run.size], mode="wrap")
            at = np.searchsorted(run, arcs).clip(max=run.size - 1)
            hit = run[at] == arcs
            self.arcs[hit] = start + at[hit]
        if plan.slices is None:
            # One block of views per degree block, with the identity moves and
            # no fix-ups; then the segment's reduceat starts, scale and vertex
            # degrees, built here rather than kept on the plan and writable so
            # numpy copies none, and its subtract cut where its store reaches a line.
            views = []
            for d, start, width in plan.blocks:
                rows, out = (buf[start : start + d * width].reshape(d, width) for buf in (self.x, self.spare))
                identity = [(q, 0, 0, width) for q in range(d)]
                views += _block_views(rows, out, self.sums, identity, np.empty(0, dtype=np.int64), np.empty(0),
                                      [(0, width)])
            self.block_views = (views,)
            self.starts = np.cumsum(lengths) + plan.segment - lengths
            self.scale, self.lengths = 2.0 / lengths, lengths
            x_seg, out_seg = self.x[plan.segment :], self.spare[plan.segment :]
            self.segment_pieces = [(i, j, x_seg[i:j], out_seg[i:j]) for i, j in _line_cuts(out_seg)]
            return
        [(d, _, n)] = plan.blocks
        # The fix-up buffers, so a step allocates nothing.
        self.fix_sums, self.fix_vals = np.empty(plan.fix.size), np.empty(plan.fix.size)
        self.block_views = tuple(
            _block_views(src.reshape(d, n), dst.reshape(d, n), self.sums, plan.slices, plan.fix_v, self.fix_sums,
                         _block_bounds(n))
            for src, dst in ((self.x, self.spare), (self.spare, self.x)))
        # The fix-ups' old values, which the correction of a multi-block guard subtracts.
        self.fix_old = np.empty(plan.fix.size) if len(self.block_views[0]) > 1 else None

    def arc_order(self) -> np.ndarray:
        """The state in global arc order, in the spare buffer, whose pages
        are mapped already; the kernel is done."""
        for start, idx in _runs(self.g, self.plan):
            self.spare[idx] = self.x[start : start + idx.size]
        return self.spare

    def step(self) -> None:
        x, spare, sums, plan = self.x, self.spare, self.sums, self.plan
        x[self.arcs] = -x[self.arcs]
        total = 0.0
        for views in self.block_views[0]:
            _run_block(views)  # which also gathers its fix-ups' sums
            if views[-1] is not None:
                total += _sum_sq(views[-1])
        if plan.slices is None:
            if self.lengths.size:
                part = sums[: self.starts.size]
                np.add.reduceat(x, self.starts, out=part)
                np.multiply(part, self.scale, out=part)
                # Each vertex's scaled sum repeated over its arcs.  On K400 the
                # repeat took 70 us against 151 for a gather through a per-arc
                # rank array (one thread, 2-vCPU Xeon); its temporary is as
                # large as that array was, but is not held between steps.
                repeated = np.repeat(part, self.lengths)
                for i, j, x_piece, out in self.segment_pieces:
                    np.subtract(repeated[i:j], x_piece, out=out)
            np.take(spare, plan.shift, out=x, mode="wrap")
            self.sum_sq = _sum_sq(x)
            return
        fix_vals, fix_old = self.fix_vals, self.fix_old
        self.block_views = self.block_views[::-1]
        np.take(x, plan.fix_src, out=fix_vals, mode="wrap")
        np.subtract(self.fix_sums, fix_vals, out=fix_vals)
        if fix_old is not None:
            np.take(spare, plan.fix, out=fix_old, mode="wrap")
            total += _sum_sq(fix_vals) - _sum_sq(fix_old)
        # The fix-ups go last: they overwrite the positions inside a row's
        # slice that read from elsewhere.
        spare[plan.fix] = fix_vals
        self.sum_sq = _sum_sq(spare) if fix_old is None else total
        self.x, self.spare = spare, x

    def norm(self) -> float:
        """The norm of the state after the last step, from the step's sum of squares."""
        return math.sqrt(self.sum_sq)

    def mass(self) -> float:
        return _mass(self.x, self.arcs)


def _block_views(rows: np.ndarray, out: np.ndarray, sums: np.ndarray, slices: tuple | list, fix_v: np.ndarray,
                 fix_sums: np.ndarray, bounds: list[tuple[int, int]]) -> list[tuple]:
    """The views each block works on in a step from the (d, n) ``rows`` to
    the (d, n) ``out``, port-major, through ``slices`` (see _CoinPlan).

    The n vertices split into the contiguous blocks of ``bounds``.  A block
    that owns vertices ``a:b`` has, in turn: the source rows over ``s:e``,
    the block and its halo of up to max|k| vertices, which its slice
    subtracts read; the part of ``sums`` that holds their sums; their
    scale, 2/d; the vertices, less ``s``, of the fix-ups that read
    vertices ``a:b`` (``fix_v`` ascends), and their run of ``fix_sums``;
    for each row q whose slice meets the block, clipped to positions
    ``j0:j1``, its subtract's two operands and its output, in two pieces
    where the output first reaches a 64-byte line (see _line_cuts); and,
    if there are several blocks, the block's output rows, a (d, b - a) view
    that the norm guard sums while they are in cache, else None.
    """
    d = rows.shape[0]
    views = []
    for a, b in bounds:
        moves = [(q, p, k, max(a, lo), min(b, hi)) for q, (p, k, lo, hi) in enumerate(slices)]
        moves = [move for move in moves if move[3] < move[4]]
        s = min([a] + [j0 + k for _, _, k, j0, _ in moves])
        e = max([b] + [j1 + k for _, _, k, _, j1 in moves])
        lo, hi = np.searchsorted(fix_v, (a, b))
        pieces = [(q, p, k, j0 + i, j0 + j) for q, p, k, j0, j1 in moves for i, j in _line_cuts(out[q, j0:j1])]
        views.append((rows[:, s:e], sums[: e - s], 2.0 / d, fix_v[lo:hi] - s, fix_sums[lo:hi], [
            (sums[j0 + k - s : j1 + k - s], rows[p, j0 + k : j1 + k], out[q, j0:j1])
            for q, p, k, j0, j1 in pieces
        ], out[:, a:b] if len(bounds) > 1 else None))
    return views


def _run_block(views: tuple) -> None:
    """One port-major block of the step: the scaled coin sums over the block
    and its halo, the sums its fix-ups read gathered out, then every row's
    subtract while the block is in cache, row by row (a broadcast subtract
    would take a 64 KB buffer)."""
    rows, sums, scale, fix_at, fix_sums, moves, _ = views
    _port_sums(rows, sums)
    np.multiply(sums, scale, out=sums)
    if fix_at.size:  # a degree block of a gather plan has none
        np.take(sums, fix_at, out=fix_sums, mode="wrap")
    for sums_part, rows_part, out in moves:
        np.subtract(sums_part, rows_part, out=out)


_DOT_RUN = 8192  # OpenBLAS runs a dot of at most 10,000 elements on one thread


def _sum_sq(x: np.ndarray) -> float:
    """The sum of squares of a vector, or of a 2-D array's rows (strided or not).

    Each row splits into runs of _DOT_RUN elements and a shorter tail.  One
    stacked np.matmul dots every whole run, as np.dot would; the dots are
    added in order, row by row, and then each row's tail dot.  Unlike one
    long dot, this is the same for any BLAS thread count.  A vector gives
    ``np.dot(x, x)`` bit for bit up to _DOT_RUN elements, and the ordered
    dots of its runs beyond.
    """
    width = x.shape[-1]
    cut = width - width % _DOT_RUN
    total = 0.0
    if cut:
        runs = x[..., :cut].reshape(x.shape[:-1] + (cut // _DOT_RUN, 1, _DOT_RUN))
        for dot in np.matmul(runs, runs.swapaxes(-1, -2)).ravel().tolist():
            total += dot
    if cut < width:
        tails = x[..., cut:]
        for tail in tails if x.ndim == 2 else (tails,):
            total += float(np.dot(tail, tail))
    return total


def _mass(amps: np.ndarray, idx: np.ndarray) -> float:
    return _sum_sq(amps[idx])


def apply_query(state: WalkState, marked: Iterable[int]) -> WalkState:
    """Negate the amplitude of every arc leaving a marked vertex."""
    idx = _marked_arc_indices(state.graph, marked)
    amps = state.amplitudes.copy()
    amps[idx] = -amps[idx]
    return WalkState(amps, state.graph)


def apply_coin(state: WalkState) -> WalkState:
    """Invert every vertex's arc amplitudes about their mean: a step with no
    marked vertex, whose shift the second shift undoes."""
    return apply_shift(step(state, ()))


def apply_shift(state: WalkState) -> WalkState:
    """Swap each arc's amplitude with its reverse arc (an involution)."""
    return WalkState(state.amplitudes[state.graph.reverse], state.graph)


def step(state: WalkState, marked: Iterable[int]) -> WalkState:
    """One search step: query, then coin, then shift."""
    g = state.graph
    kernel = _Kernel(g, state.amplitudes, _marked_arc_indices(g, marked))
    kernel.step()
    return WalkState(kernel.arc_order(), g)


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
    for t in range(1, t_max + 1):
        kernel.step()
        norm = kernel.norm()
        if not abs(norm - 1.0) <= NORM_DRIFT_LIMIT:  # NaN fails too
            raise NormDriftError(f"norm drifted to {norm!r} at step {t}; aborting evolution")
        if observer is not None:
            observer(t, kernel.mass())
    return WalkState(kernel.arc_order(), g)


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
    for where, line, parts in _records(path):
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
        amps[arc] = _parse_finite(parts[2], "amplitude", where)
    if not seen.all():
        raise ValueError(f"{path}: has {int(seen.sum())} arcs, graph has {g.arc_count}")
    if not amps.any():  # every measure of the zero state is 0, so it would pass any check
        raise ValueError(f"{path}: every amplitude is zero")
    return WalkState(amps, g)
