"""A graph holds 8 bytes per arc, set-up stays within a few arc-sized
arrays, and a run holds a few bytes per step.

Each test traces one call with ``tracemalloc``, which numpy reports its
array buffers to.  The set-up tests run on a 256x256 torus (2^18 arcs, so
one arc-sized int64 or float64 array is 2 MB, an int32 one 1 MB).
``SMALL`` covers what is not arc- or vertex-sized: the marked arcs, index
lists, Python objects.
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


def graph_bytes(g):
    """int32 targets and reverse per arc, int64 offsets and degrees per vertex."""
    return 8 * g.arc_count + 16 * (g.n + 1)


def test_a_graph_holds_four_arrays(torus):
    g, _, held = traced(torus2d_graph, L, L)
    assert held <= graph_bytes(g) + SMALL
    assert np.array_equal(g.arc_source, torus.arc_source) and not g.arc_source.flags.writeable


def test_build_graph_peaks_at_four_arc_arrays(torus):
    edges = np.array(torus.edge_list(), dtype=np.int64)
    g, peak, _ = traced(build_graph, edges, torus.n)
    # The int64 sort keys and order, the int32 targets and reverse filled
    # from them a run at a time, and the vertex arrays
    assert peak <= 24 * g.arc_count + 16 * (g.n + 1) + SMALL
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
    # Past the step, the measures are taken in its image's buffer, and the
    # reverse map is gathered a run at a time.
    assert peak_after_step - step_held[0] <= SMALL
    assert check.is_stationary


def test_a_run_holds_the_graph_the_state_and_the_plan_build(tmp_path, torus):
    config = tmp_path / "pair.json"
    config.write_text(json.dumps({"graph": {"family": "torus2d", "rows": L, "cols": L}, "marked": {"pairs": {"k": 1, "seed": 7}}, "t_max": 40}))
    execute(config, tmp_path / "warm-up")
    outcome, peak, _ = traced(execute, config, tmp_path / "out")
    assert outcome.exit_code == EXIT_OK
    # The stationary state is 8 bytes per arc, and the coin plan's build
    # (an int64 shift and the slice search's row temporaries) peaks at 24
    # more, the walk's two buffers coming after it.  With int64 arc
    # indices the graph alone held 20 bytes per arc and the run peaked at
    # 50.1 per arc; with int32 ones the graph holds 12 and the run 42.1.
    assert peak <= graph_bytes(torus) + 32 * torus.arc_count + SMALL


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
