"""Tests for the benchmark's own code.

    python -m pytest bench/tests
"""

import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import envinfo
import gate as gate_mod
import run
import traced
import workloads
from qwsearch import experiments, stationary

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"graph": {"family": "torus2d", "rows": 8, "cols": 8},
        "marked": {"block": {"rows": 2, "cols": 2}}, "t_max": 30}


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "inputs" / "tiny.json"
    path.parent.mkdir()
    path.write_text(json.dumps(TINY))
    return path


@pytest.fixture
def pinned_environ(monkeypatch):
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


def test_workload_inputs_depend_only_on_seed(tmp_path):
    def files(seed, name):
        dest = tmp_path / f"{seed}-{name}"
        workloads.generate("sweep_mixed", seed, dest)
        return {p.name: p.read_bytes() for p in sorted(dest.iterdir())}

    assert files(3, "a") == files(3, "b")
    assert files(3, "a") != files(4, "a")


def test_injected_assignment_is_valid_and_not_minimal(tmp_path):
    import random

    from qwsearch import graphs

    block = {"rows": 6, "cols": 5, "row_offset": 10, "col_offset": 14}
    coeffs = workloads.block_assignment(16, block, random.Random(1))
    (comp,) = graphs.marked_components(graphs.torus2d_graph(16, 16), workloads.block_vertices(16, block))
    injected = stationary.make_assignment(comp, coeffs)
    assert injected.sum_sq_directed > stationary.solve_min_norm(comp).sum_sq_directed


def test_sweep_statuses_reads_the_summary_table():
    rows = [{"config": "a.json", "n": 9, "m": 18, "marked": 2, "bound": 0.5, "observed_max": 0.1,
             "margin": 0.4, "status": "ok"},
            {"config": "b.json", "status": "error(2): no stationary state for component (1, 2)"},
            {"config": "c.json", "n": 9, "m": 18, "marked": 2, "bound": 0.5, "observed_max": 0.6,
             "margin": -0.1, "status": "dominance failed"}]
    table = experiments.format_sweep_table(rows)
    assert gate_mod.sweep_statuses(table, ["a", "b", "c", "d"]) == {"a": 0, "b": 2, "c": 3, "d": None}


def test_gate_counts_a_tampered_artifact_as_failed(tiny, tmp_path):
    outcome = experiments.execute(tiny, tmp_path / "out")
    digests = {"full": {"tiny": {"csv": gate_mod.sha256(outcome.csv_path),
                                 "json": gate_mod.sha256(outcome.json_path)}}}
    gate = gate_mod.Gate({"tiny": 0}, digests)
    assert gate.check("tiny", 0, outcome.csv_path, outcome.json_path, "full", 30)
    assert (gate.attempted, gate.failed) == (1, 0)

    data = bytearray(outcome.csv_path.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("3")
    outcome.csv_path.write_bytes(bytes(data))
    assert not gate.check("tiny", 0, outcome.csv_path, outcome.json_path, "full", 30)
    assert (gate.attempted, gate.failed) == (2, 1)
    assert gate.fail_ratio == 0.5


def test_gate_fails_on_a_corrupted_reference_digest(tiny, tmp_path):
    outcome = experiments.execute(tiny, tmp_path / "out")
    digests = {"full": {"tiny": {"csv": gate_mod.sha256(outcome.csv_path), "json": "0" * 64}}}
    gate = gate_mod.Gate({"tiny": 0}, digests)
    assert not gate.check("tiny", 0, outcome.csv_path, outcome.json_path, "full", 30)
    assert gate.fail_ratio == 1.0


def test_gate_checks_exit_status_and_schema(tiny, tmp_path):
    outcome = experiments.execute(tiny, tmp_path / "out")
    gate = gate_mod.Gate({"tiny": 0, "infeasible": 2}, None)
    assert gate.check("infeasible", 2, tmp_path / "none.csv", tmp_path / "none.json", "full", None)
    assert not gate.check("tiny", 3, outcome.csv_path, outcome.json_path, "full", 30)
    report = json.loads(outcome.json_path.read_text())
    report["unexpected"] = 1
    outcome.json_path.write_text(json.dumps(report))
    assert not gate.check("tiny", 0, outcome.csv_path, outcome.json_path, "full", 30)
    assert gate.failed == 2


def test_reference_digests_apply_only_under_their_environment():
    env = {"cpu_model": "x", "cpu_flags_sha256": "0", "python": "3", "numpy": "2", "blas": {},
           "simd": [], "threads": dict.fromkeys(envinfo.THREAD_VARS, "1")}
    reference = {"environment": envinfo.fingerprint(env), "seeds": {"w": {"0": {"full": {}}}}}
    assert gate_mod.reference_digests(reference, envinfo.fingerprint(env), "w", 0) == {"full": {}}
    assert gate_mod.reference_digests(reference, envinfo.fingerprint(env), "w", 1) is None
    other = envinfo.fingerprint(env | {"numpy": "3"})
    assert gate_mod.reference_digests(reference, other, "w", 0) is None


def _stage_names(code):
    """qwsearch functions a code object of experiments (or its nested
    comprehensions and closures) refers to by name."""
    names = set()
    for name in code.co_names:
        for owner in (experiments, experiments.bounds_mod):
            obj = getattr(owner, name, None)
            if inspect.isfunction(obj) and obj.__module__.startswith("qwsearch"):
                names.add(name)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _stage_names(const)
    return names


def test_traced_stages_are_every_function_run_experiment_calls():
    called = _stage_names(experiments.run_experiment.__code__) | _stage_names(experiments.execute.__code__)
    wrapped = {attr for _, attr, _ in traced.STAGES}
    assert called == wrapped | traced.NOT_STAGES


def test_traced_stage_order_matches_run_experiment(tiny, tmp_path):
    tracer = traced.Tracer()
    outcome, g, marked = traced.traced_execute(tracer, tiny, tmp_path / "out")
    assert outcome.exit_code == 0 and g.n == 64 and marked == [0, 1, 8, 9]
    inside = [s["name"] for s in tracer.spans if s["name"] != "experiments.execute" and not s.get("direct")]
    assert inside == [
        "experiments.load_config", "experiments.run_experiment", "experiments.build_graph_from_spec",
        "experiments.build_marked_from_spec", "graphs.marked_components", "stationary.exists_stationary",
        "stationary.solve_min_norm", "stationary.build_state", "stationary.normalization_scale",
        "stationary.verify_stationary", "walk.marked_probability", "bounds.total_bound", "walk.initial_state",
        "walk.evolve",
    ]
    # Stages the pipeline skipped are called directly, outside the execute span.
    assert [s["name"] for s in tracer.spans if s.get("direct")] == [
        "bounds.default_step_budget", "stationary.make_assignment"]
    assert all(s["parent"] is None for s in tracer.spans if s.get("direct"))
    assert len(tracer.step_ms) == 30
    # The originals are back in place.
    assert experiments.evolve.__module__ == "qwsearch.walk" and not hasattr(experiments.evolve, "__wrapped__")


def test_self_time_subtracts_children():
    spans = [{"id": 0, "parent": None, "start": 0.0, "end": 10.0},
             {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
             {"id": 2, "parent": 0, "start": 2.0, "end": 4.0},
             {"id": 3, "parent": 1, "start": 1.5, "end": 2.5}]
    assert traced.self_time(spans[0], spans) == pytest.approx(7.0)
    assert traced.self_time(spans[1], spans) == pytest.approx(1.0)


def _tiny_workload(tmp_path, command):
    config = tmp_path / "inputs" / "tiny.json"
    config.parent.mkdir(exist_ok=True)
    config.write_text(json.dumps(TINY))
    return workloads.Workload("tiny", command, (config,), {"tiny": 0})


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace, tmp_path, monkeypatch, capsys, pinned_environ):
    monkeypatch.setattr(workloads, "generate", lambda name, seed, dest: _tiny_workload(tmp_path, "sweep"))
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(run, "STARTUP_REPS", 1)
    assert run.main(["--workload", "block128", "--seed", "5", "--seconds", "0", "--trace", str(trace)]) == 0

    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = last["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and isinstance(entry["value"], (int, float))

    record = json.loads((tmp_path / "results" / f"block128-seed5-trace{trace}.json").read_text())
    assert record["metrics"] == last["metrics"] and record["environment"]["nproc"] >= 1
    if trace:
        assert json.loads((tmp_path / "results" / "spans-tiny.json").read_text())


def test_benchmark_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "block128", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60, env={"PATH": os.environ.get("PATH", "")})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
