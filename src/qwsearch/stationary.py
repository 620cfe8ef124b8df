"""Stationary assignments for marked components and state assembly.

A state is fixed by one search step exactly when (i) arcs leaving unmarked
vertices all share one amplitude, (ii) every marked vertex's arc amplitudes
sum to zero, and (iii) every arc equals its reverse arc.  Such a state is
determined, up to the overall scale ``a``, by one coefficient per edge
inside a marked component: the internal arc (i, j) carries ``c[i, j] * a``
(symmetric in i and j), every other arc carries ``a``, and condition (ii)
pins each marked vertex's coefficient sum to minus its count of edges
leaving the marked set.

Feasibility of those per-vertex constraints is a bipartite balance
condition: a non-bipartite component is always solvable, a bipartite one
is solvable exactly when its two sides carry equal outgoing-degree totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graphs import _GATHER_RUN, Graph, MarkedComponent, _arcs_between, _arcs_of, _parse_finite, _parse_int
from .walk import WalkState, step

__all__ = [
    "CONSTRAINT_TOL",
    "RESIDUAL_LIMIT",
    "StationaryAssignment",
    "InfeasibleComponentError",
    "StationarityCheck",
    "exists_stationary",
    "solve_min_norm",
    "make_assignment",
    "assignments_from_coefficients",
    "merged_coefficients",
    "normalization_scale",
    "build_state",
    "verify_stationary",
    "format_assignment",
    "read_assignment_file",
]

# A least-squares solution counts as feasible when its constraint residual
# is below this times max(1, |b|); disagreement with the bipartite balance
# test would be a defect, not a tolerance question.
CONSTRAINT_TOL = 1e-8

# A state counts as stationary when its one-step residual and each of its
# three condition measures are within this.
RESIDUAL_LIMIT = 1e-10


class InfeasibleComponentError(ValueError):
    """No coefficient assignment satisfies the component's vertex-sum
    constraints, or every one gives the zero state."""


@dataclass(frozen=True)
class StationaryAssignment:
    """Per-edge coefficients solving one marked component.

    ``coefficients`` maps each unordered internal edge (i, j), i < j, to
    the shared value c of both directed arcs.
    """

    component: MarkedComponent
    coefficients: Mapping[tuple[int, int], float]

    @property
    def sum_sq_directed(self) -> float:
        """Sum of squared coefficients over directed internal arcs."""
        return 2.0 * float(sum(c * c for c in self.coefficients.values()))


def exists_stationary(comp: MarkedComponent) -> bool:
    """Whether the component admits any stationary assignment.

    Non-bipartite components always do; bipartite ones do exactly when the
    two sides have equal outgoing-degree totals.  A single marked vertex is
    bipartite with one empty side, so it qualifies only when isolated.
    """
    sums = comp.bipartite_outgoing_sums()
    if sums is None:
        return True
    return sums[0] == sums[1]


def solve_min_norm(comp: MarkedComponent) -> StationaryAssignment:
    """Coefficients with the smallest sum of squares meeting every constraint.

    Solves the equality-constrained least-squares problem on the unoriented
    incidence matrix of the component's internal edges; the minimizer is
    unique.  Raises InfeasibleComponentError when no assignment exists,
    naming the violated bipartite balance condition.
    """
    verts = comp.vertices
    edges = comp.internal_edges
    targets = -np.array([comp.outgoing_degree[v] for v in verts], dtype=np.float64)
    incidence = np.zeros((len(verts), len(edges)))
    row = {v: i for i, v in enumerate(verts)}
    for j, (u, w) in enumerate(edges):
        incidence[row[u], j] = 1.0
        incidence[row[w], j] = 1.0
    coeffs = np.linalg.lstsq(incidence, targets, rcond=None)[0]
    residual = float(np.max(np.abs(incidence @ coeffs - targets)))
    if residual > CONSTRAINT_TOL * max(1.0, float(np.linalg.norm(targets))):
        sums = comp.bipartite_outgoing_sums()
        why = f"constraint residual {residual:.3e}" if sums is None else f"bipartite side sums {sums[0]} != {sums[1]}"
        raise InfeasibleComponentError(f"no stationary state for component {comp.vertices}: {why}")
    return StationaryAssignment(comp, {e: float(c) for e, c in zip(edges, coeffs)})


def _by_edge(coefficients: Mapping[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    """The coefficients keyed by (i, j), i < j; an edge named twice, in
    either orientation, raises ValueError."""
    out: dict[tuple[int, int], float] = {}
    for e, c in coefficients.items():
        edge = tuple(sorted(int(v) for v in e))
        if edge in out:
            raise ValueError(f"coefficients name edge {edge} twice")
        out[edge] = float(c)
    return out


def make_assignment(comp: MarkedComponent, coefficients: Mapping[tuple[int, int], float]) -> StationaryAssignment:
    """Wrap externally chosen coefficients, enforcing the vertex constraints.

    The mapping must name every internal edge of the component exactly once;
    per-vertex sums off by more than CONSTRAINT_TOL raise
    InfeasibleComponentError.
    """
    coeffs = _by_edge(coefficients)
    expected = set(comp.internal_edges)
    got = set(coeffs)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise ValueError(
            f"coefficients do not match the component's internal edges"
            f" (missing {missing}, extra {extra})"
        )
    totals = dict.fromkeys(comp.vertices, 0)
    for (i, j), c in coeffs.items():
        totals[i] += c
        totals[j] += c
    for v, total in totals.items():
        required = -comp.outgoing_degree[v]
        if not abs(total - required) <= CONSTRAINT_TOL:  # NaN fails too
            raise InfeasibleComponentError(
                f"coefficient sum at vertex {v} is {total}, constraint requires {required}"
            )
    return StationaryAssignment(comp, dict(sorted(coeffs.items())))


def assignments_from_coefficients(
    components: Sequence[MarkedComponent], coefficients: Mapping[tuple[int, int], float]
) -> list[StationaryAssignment]:
    """Split one flat edge->coefficient mapping across several components."""
    remaining = _by_edge(coefficients)
    out = []
    for comp in components:
        sub = {}
        for e in comp.internal_edges:
            if e not in remaining:
                raise ValueError(f"assignment is missing internal edge {e}")
            sub[e] = remaining.pop(e)
        out.append(make_assignment(comp, sub))
    if remaining:
        raise ValueError(f"assignment has edges outside the marked components: {sorted(remaining)}")
    return out


def merged_coefficients(assignments: Iterable[StationaryAssignment]) -> dict[tuple[int, int], float]:
    merged: dict[tuple[int, int], float] = {}
    for asg in assignments:
        merged.update(asg.coefficients)
    return dict(sorted(merged.items()))


def normalization_scale(g: Graph, assignments: Sequence[StationaryAssignment]) -> float:
    """Common amplitude ``a`` making the assembled state unit norm.

    One scale is shared by all components: a = 1/sqrt(2m - 2*E + S) with E
    the total internal edge count and S the directed sum of squared
    coefficients, both summed over the given assignments.  2m - 2E is an
    exact integer, and S is added to it once, from math.fsum: a float sum
    of the terms in turn cancels when every arc is internal, leaving S
    alone wrong or zero.  Raises InfeasibleComponentError when the total
    is 0, as the state is zero, and ValueError when it overflows.
    """
    if g.arc_count == 0:
        raise ValueError("graph has no arcs")
    edges = sum(len(asg.coefficients) for asg in assignments)
    try:
        squares = math.fsum(asg.sum_sq_directed for asg in assignments)
    except OverflowError:  # raised when fsum's partial sums overflow, where a float sum gives inf
        squares = math.inf
    total = float(g.arc_count - 2 * edges) + squares
    if total == 0.0:
        # A zero state under any assignment makes the minimum-norm one zero too.
        raise InfeasibleComponentError(
            "the minimum-norm stationary state is zero: every edge joins two marked vertices"
            " and every coefficient is 0"
        )
    if not math.isfinite(total):
        raise ValueError("the assignment's sum of squared amplitudes overflows a float64")
    return 1.0 / math.sqrt(total)


def _require_disjoint(assignments: Iterable[StationaryAssignment]) -> None:
    """Reject assignments whose components share a vertex."""
    used: set[int] = set()
    for asg in assignments:
        clash = used.intersection(asg.component.vertices)
        if clash:
            raise ValueError(f"components overlap at vertices {sorted(clash)}")
        used.update(asg.component.vertices)


def build_state(g: Graph, assignments: Sequence[StationaryAssignment]) -> WalkState:
    """Assemble the unit state with amplitude ``a`` on every arc except the
    internal marked arcs, which carry their coefficient times ``a``.

    With no assignments this is exactly the uniform starting state.  An
    arcless graph, a zero state and a sum of squares that overflows raise
    as in normalization_scale, before the state is divided by its norm.
    """
    if any(asg.component.graph is not g for asg in assignments):
        raise ValueError("assignment solves a component of a different graph")
    _require_disjoint(assignments)
    normalization_scale(g, assignments)
    arcs = _arcs_between(g, [e for asg in assignments for e in asg.coefficients])
    values = [c for asg in assignments for c in asg.coefficients.values()]
    unscaled = np.ones(g.arc_count)
    unscaled[arcs] = values
    unscaled[g.reverse[arcs]] = values
    unscaled /= math.sqrt(float(np.dot(unscaled, unscaled)))
    return WalkState(unscaled, g)


@dataclass(frozen=True)
class StationarityCheck:
    """Result of checking a state against one walk step.

    ``residual`` is the max-norm difference between the state and its
    one-step image; the remaining fields measure the three amplitude
    conditions that characterize fixed points.  The state passes when all
    four are within RESIDUAL_LIMIT.
    """

    residual: float
    unmarked_amplitude_spread: float
    max_marked_vertex_sum: float
    max_reverse_mismatch: float

    @property
    def failed_conditions(self) -> tuple[str, ...]:
        # Written as "not within the limit" so that a NaN measure fails.
        failures = []
        if not self.unmarked_amplitude_spread <= RESIDUAL_LIMIT:
            failures.append("unmarked amplitudes not all equal")
        if not self.max_marked_vertex_sum <= RESIDUAL_LIMIT:
            failures.append("marked vertex amplitudes do not sum to zero")
        if not self.max_reverse_mismatch <= RESIDUAL_LIMIT:
            failures.append("reverse-arc amplitudes differ")
        return tuple(failures)

    @property
    def is_stationary(self) -> bool:
        return self.residual <= RESIDUAL_LIMIT and not self.failed_conditions


def verify_stationary(g: Graph, marked: Iterable[int], state: WalkState) -> StationarityCheck:
    """Measure how far a unit state is from being fixed by one search step."""
    if state.graph is not g:
        raise ValueError("state lives on a different graph")
    marked_set = {int(v) for v in marked}
    amps = state.amplitudes
    # The three state-sized measures are reduced in place in the buffer of
    # the one-step image, which this function owns.  np.take copies a
    # read-only or int32 index whole, so the reverse map is gathered a run
    # at a time; its default mode would buffer a copy of the output, and
    # step's coin plan build has checked the reverse map's range.
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN measure fails the check
        work = step(state, marked_set).amplitudes
        residual = mismatch = spread = 0.0
        if amps.size:
            residual = float(np.abs(np.subtract(work, amps, out=work), out=work).max())
            for a in range(0, amps.size, _GATHER_RUN):
                np.take(amps, g.reverse[a : a + _GATHER_RUN], out=work[a : a + _GATHER_RUN], mode="wrap")
            np.subtract(amps, work, out=work)
            mismatch = float(np.abs(work, out=work).max())
        marked_arcs = _arcs_of(g, np.array(sorted(marked_set), dtype=np.int64))
        if marked_arcs.size < amps.size:
            # The unmarked amplitudes' max and min: the marked arcs hold -inf,
            # which moves no max, then +inf, which moves no min.  A NaN wins both.
            np.copyto(work, amps)
            work[marked_arcs] = -np.inf
            top = work.max()
            work[marked_arcs] = np.inf
            spread = float(top - work.min())
        # np.max, unlike max, keeps a NaN sum.
        vertex_sums = [abs(float(amps[g.offsets[v] : g.offsets[v + 1]].sum())) for v in marked_set]
        vertex_sum = float(np.max(vertex_sums, initial=0.0))
    return StationarityCheck(
        residual=residual,
        unmarked_amplitude_spread=spread,
        max_marked_vertex_sum=vertex_sum,
        max_reverse_mismatch=mismatch,
    )


# ---------------------------------------------------------------------------
# Assignment file format: one "i j c" line per unordered internal edge,
# then a trailing "a <value>" line with the normalization scale.
# ---------------------------------------------------------------------------


def format_assignment(coefficients: Mapping[tuple[int, int], float], scale: float) -> str:
    lines = [f"{i} {j} {c:.17e}" for (i, j), c in sorted(coefficients.items())]
    lines.append(f"a {scale:.17e}")
    return "\n".join(lines) + "\n"


def read_assignment_file(path) -> tuple[dict[tuple[int, int], float], float]:
    coefficients: dict[tuple[int, int], float] = {}
    scale: float | None = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        where = f"{path}:{lineno}"
        if parts[0] == "a":
            if len(parts) != 2 or scale is not None:
                raise ValueError(f"{where}: malformed or repeated scale line {line!r}")
            scale = _parse_finite(parts[1], "scale", where)
            continue
        if len(parts) != 3:
            raise ValueError(f"{where}: expected 'i j c', got {line!r}")
        i, j = sorted((_parse_int(parts[0], where), _parse_int(parts[1], where)))
        if (i, j) in coefficients:
            raise ValueError(f"{where}: duplicate edge ({i}, {j})")
        coefficients[(i, j)] = _parse_finite(parts[2], "coefficient", where)
    if scale is None:
        raise ValueError(f"{path}: missing trailing 'a <value>' line")
    return coefficients, scale
