"""Set-up holds no arc-sized array it then throws away, and a run holds a
few bytes per step.

Each test traces one call with ``tracemalloc``, which numpy reports its
array buffers to.  The set-up tests run on a 256x256 torus (2^18 arcs, so
one arc-sized int64 or float64 array is 2 MB).  ``SMALL`` covers what is
not arc- or vertex-sized: the marked arcs, index lists, Python objects.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from qwsearch import build_graph, build_state, marked_components, solve_min_norm, torus2d_graph, verify_stationary
from qwsearch import stationary, walk
from qwsearch.experiments import EXIT_OK, execute

L = 256
SMALL = 64 * 1024
MARKED = [0, 1, L, L + 1]


def traced(fn, *args):
    """``fn(*args)``, the traced peak above what was held before the call,
    and what the call left held."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before, held - before


@pytest.fixture(scope="module")
def torus():
    return torus2d_graph(L, L)


@pytest.fixture(scope="module")
def block_state(torus):
    return build_state(torus, [solve_min_norm(c) for c in marked_components(torus, MARKED)])


def test_a_graph_holds_four_arrays(torus):
    g, _, held = traced(torus2d_graph, L, L)
    # targets and reverse per arc, offsets and degrees per vertex
    assert held <= 16 * g.arc_count + 16 * (g.n + 1) + SMALL
    assert np.array_equal(g.arc_source, torus.arc_source) and not g.arc_source.flags.writeable


def test_build_graph_peaks_at_four_arc_arrays(torus):
    edges = np.array(torus.edge_list(), dtype=np.int64)
    g, peak, _ = traced(build_graph, edges, torus.n)
    # keys, order, targets and reverse, with the vertex arrays beside them
    assert peak <= 32 * g.arc_count + 16 * (g.n + 1) + SMALL
    assert np.array_equal(g.reverse, torus.reverse)


def test_build_state_holds_one_state(torus, block_state):
    assignments = [solve_min_norm(c) for c in marked_components(torus, MARKED)]
    state, peak, _ = traced(build_state, torus, assignments)
    assert peak <= 8 * torus.arc_count + SMALL
    assert state.amplitudes.tobytes() == block_state.amplitudes.tobytes()


def test_verify_stationary_adds_nothing_to_its_step(monkeypatch, torus, block_state):
    walk._coin_plan(torus)  # built on the graph's first walk, which this is not
    step = stationary.step
    step_held = []

    def step_then_reset(*args):
        out = step(*args)
        step_held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(stationary, "step", step_then_reset)
    tracemalloc.start()
    try:
        check = verify_stationary(torus, MARKED, block_state)
        peak_after_step = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Past the step, the measures are taken in its image's buffer; the one
    # arc-sized temporary is np.take's copy of the read-only reverse map.
    assert peak_after_step - step_held[0] <= 8 * torus.arc_count + SMALL
    assert check.is_stationary


def test_a_run_holds_a_few_bytes_per_step(tmp_path):
    t_max = 10**4  # the run's fixed cost is about 5 bytes per step here
    config = tmp_path / "pair.json"
    config.write_text(json.dumps({"graph": {"family": "cycle", "n": 5}, "marked": {"vertices": [3, 4]}, "t_max": t_max}))
    execute(config, tmp_path / "warm-up")
    outcome, peak, _ = traced(execute, config, tmp_path / "out")
    assert outcome.exit_code == EXIT_OK
    # The series of p_t is 8 bytes per step; writing the CSV adds its floats
    # as a list, another 32.
    assert peak <= 64 * t_max
