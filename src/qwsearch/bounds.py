"""Probability ceilings for marked components, and default step budgets.

For a marked component with a stationary assignment, the probability of
observing a marked vertex can never exceed

    4 * a0^2 * (S + 2*D + 2*E),    a0 = 1/sqrt(2m),

where S is the directed sum of squared coefficients, D the component's
total outgoing degree, and E its internal edge count.  Ceilings of
disjoint components add.  The ceiling holds for every valid assignment;
the minimum-norm assignment gives the tightest value in this family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, _arcs_of
from .stationary import StationaryAssignment, _require_disjoint

__all__ = [
    "BoundReport",
    "component_bound",
    "total_bound",
    "estimate_diameter",
    "default_step_budget",
]


@dataclass(frozen=True)
class BoundReport:
    """Per-component ceiling terms, in assignment order, and their total."""

    per_component: tuple[float, ...]
    total_bound: float


def component_bound(assignment: StationaryAssignment) -> float:
    """Probability ceiling contributed by the component an assignment
    solves, with m the edge count of the component's host graph."""
    comp = assignment.component
    m = comp.graph.edge_count
    if m <= 0:
        raise ValueError(f"edge count must be positive, got {m}")
    a0_sq = 1.0 / (2.0 * m)
    return 4.0 * a0_sq * (
        assignment.sum_sq_directed + 2.0 * comp.total_outgoing + 2.0 * len(comp.internal_edges)
    )


def total_bound(assignments: Sequence[StationaryAssignment]) -> BoundReport:
    """Sum of the component ceilings of disjoint assignments; 0.0 for none."""
    _require_disjoint(assignments)
    terms = tuple(component_bound(asg) for asg in assignments)
    return BoundReport(per_component=terms, total_bound=float(sum(terms)))


# ---------------------------------------------------------------------------
# Diameter estimate and default step budget
# ---------------------------------------------------------------------------


# The default step budget's cap, and the least diameter estimate D with
# 10 * D^2 at or above it: past that level the budget is the cap.
_STEP_BUDGET_CAP = 10_000
_CAP_DIAMETER = math.isqrt(-(-_STEP_BUDGET_CAP // 10) - 1) + 1


def _eccentricity(g: Graph, source: int, limit: int) -> tuple[int, int]:
    """BFS level count from ``source``, stopping at ``limit`` levels, and
    the farthest vertex reached."""
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    farthest = source
    while level < limit:
        nbrs = g.targets[_arcs_of(g, frontier)]
        # np.unique's levels, without its import of numpy.ma (15-28 ms on numpy 2.4)
        fresh = np.sort(nbrs[dist[nbrs] < 0])
        fresh = fresh[np.diff(fresh, prepend=-1) != 0]
        if fresh.size == 0:
            break
        level += 1
        dist[fresh] = level
        farthest = int(fresh[0])
        frontier = fresh
    return level, farthest


def _double_sweep(g: Graph, limit: int) -> int:
    """:func:`estimate_diameter`, or ``limit`` once either sweep reaches it:
    the second sweep starts at a farthest vertex of the first, so its
    eccentricity is at least the first's."""
    if g.n == 0 or g.arc_count == 0:
        return 0
    ecc, far = _eccentricity(g, int(np.argmax(g.degrees > 0)), limit)
    if ecc < limit:
        ecc, _ = _eccentricity(g, far, limit)
    return ecc


def estimate_diameter(g: Graph) -> int:
    """Double-sweep BFS estimate of the diameter (exact on trees and cycles,
    a lower bound in general; plenty for sizing step budgets).  The first
    sweep starts at the lowest vertex of positive degree: from an isolated
    vertex it would reach nothing."""
    return _double_sweep(g, g.n)


def default_step_budget(g: Graph) -> int:
    """Default evolution length: 10 * diameter^2, capped at 10^4.  The
    sweeps stop at the least diameter that reaches the cap."""
    diameter = _double_sweep(g, _CAP_DIAMETER)
    return max(1, min(10 * diameter * diameter, _STEP_BUDGET_CAP))
