import copy
import json
import os
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qwsearch import (
    StationarityCheck,
    build_graph,
    complete_graph,
    cycle_graph,
    initial_state,
    marked_components,
    merged_coefficients,
    normalization_scale,
    solve_min_norm,
    torus2d_graph,
    write_edge_list,
    write_state_snapshot,
)
from qwsearch import experiments, graphs, walk
from qwsearch.cli import main
from qwsearch.experiments import (
    EXIT_CHECK_FAILED,
    EXIT_INFEASIBLE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    REPORT_SCHEMA,
    T_MAX_LIMIT,
    execute,
    format_sweep_table,
    load_config,
    select_disjoint_pairs,
    sweep,
)
from qwsearch.stationary import format_assignment

from helpers import block_coefficients


def write_config(path, obj):
    path.write_text(json.dumps(obj, indent=1))
    return path


def fig_cycle_config(tmp_path, **extra):
    return write_config(
        tmp_path / "cycle.json",
        {
            "graph": {"family": "cycle", "n": 5},
            "marked": {"vertices": [3, 4]},
            "t_max": 150,
            **extra,
        },
    )


class TestConfigParsing:
    def test_valid(self, tmp_path):
        cfg = load_config(fig_cycle_config(tmp_path))
        assert cfg.graph == {"family": "cycle", "n": 5}
        assert cfg.marked == ("vertices", (3, 4))
        assert cfg.t_max == 150
        assert cfg.assignment_file is None

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "graph": {"family": "cycle", "n": 5},
            "marked": {"vertices": [1]},
            "tmax": 5,
        })
        with pytest.raises(ValueError, match="unknown keys.*tmax"):
            load_config(path)

    def test_two_graph_sources(self, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "graph": {"family": "cycle", "n": 5, "edge_list": "x.txt"},
            "marked": {"vertices": [1]},
        })
        with pytest.raises(ValueError, match="exactly one of 'family' and 'edge_list'"):
            load_config(path)

    def test_two_marked_sources(self, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "graph": {"family": "cycle", "n": 5},
            "marked": {"vertices": [1], "pairs": {"k": 1, "seed": 0}},
        })
        with pytest.raises(ValueError, match="exactly one of"):
            load_config(path)

    def test_missing_marked(self, tmp_path):
        path = write_config(tmp_path / "c.json", {"graph": {"family": "cycle", "n": 5}})
        with pytest.raises(ValueError, match="missing required key 'marked'"):
            load_config(path)

    def test_negative_t_max(self, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "graph": {"family": "cycle", "n": 5},
            "marked": {"vertices": [1]},
            "t_max": -4,
        })
        with pytest.raises(ValueError, match="t_max"):
            load_config(path)

    def test_family_parameter_mismatch(self, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "graph": {"family": "torus2d", "n": 5},
            "marked": {"vertices": [1]},
        })
        with pytest.raises(ValueError, match="takes keys"):
            load_config(path)

    def test_bad_family_parameter_is_named_in_generator_order(self, tmp_path):
        # Checked in set order, the key named would depend on PYTHONHASHSEED.
        cfg = write_config(tmp_path / "c.json", {
            "graph": {"family": "torus2d", "rows": "a", "cols": "b"},
            "marked": {"vertices": [1]},
        })
        src = str(Path(experiments.__file__).parents[1])
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-m", "qwsearch.cli", "run", str(cfg), "--out-dir",
                                   str(tmp_path / "o")], capture_output=True, text=True, env=env, timeout=60)
            assert (proc.returncode, proc.stderr) == (EXIT_INPUT_ERROR, 'error: graph.rows must be an integer, got "a"\n')

    def test_edge_list_takes_no_other_keys(self, tmp_path, capsys):
        write_edge_list(cycle_graph(5), tmp_path / "c5.txt")
        cfg = write_config(tmp_path / "c.json", {
            "graph": {"edge_list": "c5.txt", "n": 99, "rows": 3},
            "marked": {"vertices": [3, 4]},
            "t_max": 10,
        })
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: graph with an edge_list: unknown keys ['n', 'rows']\n"

    def test_bad_assignment_value(self, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "graph": {"family": "cycle", "n": 5},
            "marked": {"vertices": [1]},
            "assignment": "best",
        })
        with pytest.raises(ValueError, match="min_norm"):
            load_config(path)

    @pytest.mark.parametrize("graph, marked, message", [
        ({"family": "cycle", "n": None}, {"vertices": [1]}, "graph.n must be an integer, got null"),
        ({"family": "cycle", "n": True}, {"vertices": [1]}, "graph.n must be an integer, got true"),
        ({"family": "cycle", "n": 7.9}, {"vertices": [1]}, "graph.n must be an integer, got 7.9"),
        ({"family": "cycle", "n": 5}, {"vertices": [1.0]}, "marked.vertices.* must be an integer"),
        ({"family": "torus2d", "rows": 4, "cols": 4}, {"block": 5}, "marked.block must be an object"),
        ({"family": "torus2d", "rows": 4, "cols": 4}, {"pairs": 5}, "marked.pairs must be an object"),
        ({"family": ["cycle"]}, {"vertices": [1]}, "unknown family"),
    ])
    def test_bad_values_are_exit_1(self, tmp_path, graph, marked, message):
        path = write_config(tmp_path / "c.json", {"graph": graph, "marked": marked})
        with pytest.raises(ValueError, match=message):
            load_config(path)
        out = execute(path, tmp_path / "out")
        assert out.exit_code == EXIT_INPUT_ERROR and "\n" not in out.message

    def test_t_max_limit(self, tmp_path):
        assert load_config(fig_cycle_config(tmp_path, t_max=T_MAX_LIMIT)).t_max == 10**6
        with pytest.raises(ValueError, match="t_max must be at most 1000000, got 1000001"):
            load_config(fig_cycle_config(tmp_path, t_max=T_MAX_LIMIT + 1))

    def test_non_integer_t_max(self, tmp_path):
        path = fig_cycle_config(tmp_path, t_max=2.5)
        with pytest.raises(ValueError, match="t_max must be an integer, got 2.5"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("csv", None), ("csv", ""), ("csv", 7),
        ("report", None), ("report", ["r.json"]),
        ("graph.edge_list", None), ("graph.edge_list", ""),
        ("assignment.file", None), ("assignment.file", 3),
    ])
    def test_output_and_input_names_must_be_strings(self, tmp_path, key, value):
        # str() used to turn null into a file named 'None' and exit 0.
        obj = {"graph": {"family": "cycle", "n": 5}, "marked": {"vertices": [3, 4]}, "t_max": 5}
        if key == "graph.edge_list":
            obj["graph"] = {"edge_list": value}
        elif key == "assignment.file":
            obj["assignment"] = {"file": value}
        else:
            obj[key] = value
        path = write_config(tmp_path / "c.json", obj)
        with pytest.raises(ValueError, match=re.escape(f"{key} must be a non-empty string, got {json.dumps(value)}")):
            load_config(path)
        out = execute(path, tmp_path / "out")
        assert out.exit_code == EXIT_INPUT_ERROR and "\n" not in out.message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("names", [
        {"csv": "x", "report": "x"},
        {"csv": "x.csv", "report": "./x.csv"},
        {"csv": "cycle.json"},  # the default report name
        {"report": "cycle.csv"},  # the default CSV name
    ], ids=["same", "same_path", "csv_is_default_report", "report_is_default_csv"])
    def test_one_name_for_both_artifacts_is_exit_1(self, tmp_path, capsys, names):
        cfg = fig_cycle_config(tmp_path, **names)
        with pytest.raises(ValueError, match="CSV and the report would both be written to"):
            load_config(cfg)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, name", [
        ("csv", "../escape.csv"),  # used to write outside --out-dir and exit 0
        ("csv", "sub/x.csv"),  # used to run the whole simulation, then fail on the missing directory
        ("report", ".."),
        ("report", "."),
        ("report", "/abs.json"),
    ], ids=["parent_dir", "sub_dir", "dotdot", "dot", "absolute"])
    def test_output_name_with_a_directory_part_is_exit_1(self, tmp_path, capsys, key, name):
        cfg = fig_cycle_config(tmp_path, **{key: name})
        with pytest.raises(ValueError, match=re.escape(f"{key} must be a plain file name, got {json.dumps(name)}")):
            load_config(cfg)
        out_dir = tmp_path / "o"
        assert main(["run", str(cfg), "--out-dir", str(out_dir)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert not out_dir.exists() and not (tmp_path / "escape.csv").exists()


    @pytest.mark.parametrize("text, key", [
        ('{"graph": {"family": "cycle", "n": 5}, "marked": {"vertices": [3, 4]}, "t_max": 5, "t_max": 7}',
         "t_max"),
        ('{"graph": {"family": "cycle", "n": 5, "n": 6}, "marked": {"vertices": [3, 4]}}', "n"),
        ('{"graph": {"family": "torus2d", "rows": 4, "cols": 4},'
         ' "marked": {"block": {"rows": 2, "cols": 2, "rows": 3}}}', "rows"),
    ], ids=["top_level", "in_graph", "in_marked_block"])
    def test_repeated_key_is_exit_1(self, tmp_path, text, key):
        path = tmp_path / "dup.json"
        path.write_text(text)
        out = execute(path, tmp_path / "o")
        assert out.exit_code == EXIT_INPUT_ERROR
        assert out.message == f"{path}: duplicate key {key!r}"


class TestRun:
    def test_cycle_pair_passes(self, tmp_path):
        out = execute(fig_cycle_config(tmp_path), tmp_path / "out")
        assert out.exit_code == EXIT_OK
        r = out.report
        assert r["components"][0]["exists_stationary"] is True
        assert r["components"][0]["coefficients"] == [[3, 4, pytest.approx(-1.0, abs=1e-12)]]
        assert r["stationarity"]["residual"] <= 1e-12
        assert r["dominance"] is True
        # probability never leaves 0.4
        csv_rows = out.csv_path.read_text().splitlines()
        assert csv_rows[0] == "t,p_marked"
        assert len(csv_rows) == 1 + 150 + 1
        ps = [float(line.split(",")[1]) for line in csv_rows[1:]]
        assert max(ps) - min(ps) <= 1e-10
        assert ps[0] == pytest.approx(0.4, abs=1e-12)

    def test_report_validates_against_schema(self, tmp_path):
        out = execute(fig_cycle_config(tmp_path), tmp_path / "out")
        jsonschema.validate(json.loads(out.json_path.read_text()), REPORT_SCHEMA)

    @pytest.mark.parametrize("level", ["top", "graph", "component", "stationarity"])
    def test_schema_requires_every_field_and_allows_no_other(self, tmp_path, level):
        report = execute(fig_cycle_config(tmp_path), tmp_path / "out").report
        jsonschema.validate(report, REPORT_SCHEMA)

        def part(r):
            return {"top": r, "graph": r["graph"], "component": r["components"][0],
                    "stationarity": r["stationarity"]}[level]

        for field in part(report):
            broken = copy.deepcopy(report)
            del part(broken)[field]
            with pytest.raises(jsonschema.ValidationError, match=f"'{field}' is a required property"):
                jsonschema.validate(broken, REPORT_SCHEMA)
        broken = copy.deepcopy(report)
        part(broken)["unknown"] = 0
        with pytest.raises(jsonschema.ValidationError, match="'unknown' was unexpected"):
            jsonschema.validate(broken, REPORT_SCHEMA)

    def test_deterministic_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "rr.json", {
            "graph": {"family": "random_regular", "n": 24, "d": 3, "seed": 9},
            "marked": {"pairs": {"k": 2, "seed": 5}},
            "t_max": 60,
        })
        out1 = execute(cfg, tmp_path / "o1")
        out2 = execute(cfg, tmp_path / "o2")
        assert out1.exit_code == EXIT_OK
        assert out1.csv_path.read_bytes() == out2.csv_path.read_bytes()
        assert json.loads(out1.json_path.read_text()) == json.loads(out2.json_path.read_text())

    # A sliced plan, a gather plan, and one reduceat segment.
    @pytest.mark.parametrize("graph, marked", [
        ({"family": "torus2d", "rows": 12, "cols": 12}, {"block": {"rows": 2, "cols": 2, "row_offset": 3, "col_offset": 5}}),
        ({"family": "random_regular", "n": 40, "d": 3, "seed": 2}, {"pairs": {"k": 2, "seed": 4}}),
        ({"family": "complete", "n": 12}, {"vertices": [0, 1, 2]}),
    ], ids=["torus", "random_regular", "complete"])
    def test_int64_arc_indices_write_the_same_bytes(self, tmp_path, monkeypatch, graph, marked):
        cfg = write_config(tmp_path / "c.json", {"graph": graph, "marked": marked, "t_max": 40})
        narrow = execute(cfg, tmp_path / "int32")
        monkeypatch.setattr(graphs, "_INT32_INDEX_LIMIT", 8)
        assert graphs.generate(**graph).reverse.dtype == np.int64
        wide = execute(cfg, tmp_path / "int64")
        assert narrow.exit_code == wide.exit_code == EXIT_OK
        assert narrow.csv_path.read_bytes() == wide.csv_path.read_bytes()
        assert narrow.json_path.read_bytes() == wide.json_path.read_bytes()

    def test_infeasible_is_exit_2(self, tmp_path):
        g = build_graph([(0, 1), (1, 2)], 3)
        write_edge_list(g, tmp_path / "path.txt")
        cfg = write_config(tmp_path / "bad.json", {
            "graph": {"edge_list": "path.txt"},
            "marked": {"vertices": [0]},
            "t_max": 10,
        })
        out = execute(cfg, tmp_path / "out")
        assert out.exit_code == EXIT_INFEASIBLE
        assert "bipartite side sums 1 != 0" in out.message

    def test_missing_file_is_exit_1(self, tmp_path):
        out = execute(tmp_path / "nope.json", tmp_path / "out")
        assert out.exit_code == EXIT_INPUT_ERROR

    def test_block_requires_torus(self, tmp_path):
        cfg = write_config(tmp_path / "blk.json", {
            "graph": {"family": "cycle", "n": 8},
            "marked": {"block": {"rows": 2, "cols": 2}},
        })
        out = execute(cfg, tmp_path / "out")
        assert out.exit_code == EXIT_INPUT_ERROR
        assert "torus2d" in out.message

    @pytest.mark.parametrize("block", [{"rows": 5, "cols": 2}, {"rows": 1, "cols": 5}])
    def test_block_larger_than_the_torus_is_exit_1(self, tmp_path, block):
        cfg = write_config(tmp_path / "blk.json", {
            "graph": {"family": "torus2d", "rows": 4, "cols": 4},
            "marked": {"block": block},
        })
        out = execute(cfg, tmp_path / "out")
        assert out.exit_code == EXIT_INPUT_ERROR
        assert out.message == f"marked.block of {block['rows']}x{block['cols']} does not fit the 4x4 torus"

    def test_injected_assignment_file(self, tmp_path, torus16):
        verts, vertical, horizontal = block_coefficients(16, 1, 1, 16, 16)
        comps = marked_components(torus16, verts)
        coeffs = {e: -3.0 for e in vertical} | {e: 1.0 for e in horizontal}
        (tmp_path / "psi1.txt").write_text(format_assignment(coeffs, 1.0 / np.sqrt(4 * (256 + 8))))
        cfg = write_config(tmp_path / "inj.json", {
            "graph": {"family": "torus2d", "rows": 16, "cols": 16},
            "marked": {"block": {"rows": 2, "cols": 2, "row_offset": 1, "col_offset": 1}},
            "t_max": 100,
            "assignment": {"file": "psi1.txt"},
        })
        out = execute(cfg, tmp_path / "out")
        assert out.exit_code == EXIT_OK
        r = out.report
        assert r["assignment_source"] == "injected"
        assert r["scale"] == pytest.approx(1.0 / np.sqrt(4 * 264), rel=1e-12)
        assert r["stationarity"]["stationary_probability"] == pytest.approx(12 / 264, rel=1e-10)
        assert r["bound_total"] == pytest.approx(0.25, rel=1e-12)

    def test_injected_scale_mismatch_is_exit_1(self, tmp_path, capsys):
        (tmp_path / "asg.txt").write_text(format_assignment({(3, 4): -1.0}, 123.0))
        cfg = fig_cycle_config(tmp_path, assignment={"file": "asg.txt"})
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "does not match the normalization scale" in err and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_injected_non_finite_coefficient_is_exit_1_at_its_line(self, tmp_path, capsys, value):
        # nan used to pass the vertex check and fail on the scale, and inf
        # failed the vertex check with exit 2.
        (tmp_path / "asg.txt").write_text(f"3 4 {value}\na 0.5\n")
        cfg = fig_cycle_config(tmp_path, assignment={"file": "asg.txt"})
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {tmp_path / 'asg.txt'}:1: coefficient '{value}' is not finite\n"

    @pytest.mark.parametrize("check, message", [
        (StationarityCheck(0.0, 0.0, 0.0, 1.0), "stationarity failed: reverse-arc amplitudes differ"),
        (StationarityCheck(1e-3, 1.0, 0.0, 0.0), "stationarity failed: unmarked amplitudes not all equal"),
        (StationarityCheck(1e-3, 0.0, 0.0, 0.0), "stationarity residual too large"),
    ], ids=["condition_only", "condition_and_residual", "residual_only"])
    def test_failed_stationarity_is_named(self, tmp_path, monkeypatch, check, message):
        # The run and `qwsearch verify` share StationarityCheck.is_stationary:
        # a failed condition fails the run even when the residual is small.
        monkeypatch.setattr(experiments, "verify_stationary", lambda g, marked, state: check)
        out = execute(fig_cycle_config(tmp_path), tmp_path / "out")
        assert out.exit_code == EXIT_CHECK_FAILED
        assert out.message == message
        assert out.report["checks_passed"] is False and out.report["dominance"] is True

    def test_stationary_state_is_freed_before_the_walk(self, tmp_path, monkeypatch):
        real_build_state, real_evolve = experiments.build_state, experiments.evolve
        built = []

        def build_state(g, assignments):
            state = real_build_state(g, assignments)
            built.append(weakref.ref(state.amplitudes))
            return state

        def evolve(*args, **kwargs):
            assert built and built[0]() is None, "the stationary state is still alive during the walk"
            return real_evolve(*args, **kwargs)

        monkeypatch.setattr(experiments, "build_state", build_state)
        monkeypatch.setattr(experiments, "evolve", evolve)
        assert execute(fig_cycle_config(tmp_path), tmp_path / "out").exit_code == EXIT_OK

    def test_a_tied_maximum_is_reported_at_its_first_step(self, tmp_path, monkeypatch):
        series = [0.25, 0.375, 0.125, 0.375, 0.0]

        def evolve(state, marked, t_max, observer):
            for t, p in enumerate(series[: t_max + 1]):
                observer(t, p)
            return state

        monkeypatch.setattr(experiments, "evolve", evolve)
        out = execute(fig_cycle_config(tmp_path), tmp_path / "out", t_max=4)
        assert out.exit_code == EXIT_OK
        r = out.report
        assert (r["p_initial"], r["observed_max_p"], r["observed_argmax_t"]) == (0.25, 0.375, 1)
        assert out.csv_path.read_text() == "t,p_marked\n0,0.25\n1,0.375\n2,0.125\n3,0.375\n4,0\n"

    def test_t_max_default_applied(self, tmp_path):
        cfg = write_config(tmp_path / "d.json", {
            "graph": {"family": "cycle", "n": 6},
            "marked": {"vertices": [0, 1]},
        })
        out = execute(cfg, tmp_path / "out")
        assert out.exit_code == EXIT_OK
        assert out.report["t_max"] == 90  # 10 * diameter(=3)^2

    def test_overrides(self, tmp_path):
        cfg = fig_cycle_config(tmp_path)
        out = execute(cfg, tmp_path / "out", t_max=12)
        assert out.report["t_max"] == 12
        assert len(out.csv_path.read_text().splitlines()) == 14
        assert execute(cfg, tmp_path / "out", t_max=np.int64(7)).report["t_max"] == 7

    @pytest.mark.parametrize("override, message", [
        ({"t_max": 2.5}, "t_max must be an integer, got 2.5"),
        ({"t_max": True}, "t_max must be an integer, got true"),
        ({"t_max": "5"}, 't_max must be an integer, got "5"'),
        ({"t_max": -1}, "t_max must be nonnegative, got -1"),
        ({"t_max": Fraction(5, 2)}, 't_max must be an integer, got "Fraction(5, 2)"'),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
        ({"assignment": 5}, "assignment must be a non-empty string, got 5"),  # was a traceback from Path(5)
        ({"assignment": ""}, 'assignment must be a non-empty string, got ""'),
    ], ids=["float_t_max", "bool_t_max", "str_t_max", "negative_t_max", "fraction_t_max", "float_seed",
            "int_assignment", "empty_assignment"])
    def test_bad_override_is_exit_1_with_one_line(self, tmp_path, override, message):
        cfg = write_config(tmp_path / "pairs.json", {
            "graph": {"family": "cycle", "n": 8},
            "marked": {"pairs": {"k": 1, "seed": 5}},  # so the seed override is used
            "t_max": 5,
        })
        out = execute(cfg, tmp_path / "out", **override)
        assert (out.exit_code, out.report, out.message) == (EXIT_INPUT_ERROR, None, message)
        assert not (tmp_path / "out").exists()

    def test_empty_marked_set_passes(self, tmp_path):
        cfg = write_config(tmp_path / "none.json", {
            "graph": {"family": "torus2d", "rows": 4, "cols": 4},
            "marked": {"pairs": {"k": 0, "seed": 1}},
            "t_max": 30,
        })
        out = execute(cfg, tmp_path / "out")
        assert out.exit_code == EXIT_OK
        assert out.report["components"] == []
        assert out.report["bound_total"] == 0.0
        assert out.report["observed_max_p"] == 0.0
        jsonschema.validate(out.report, REPORT_SCHEMA)

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # 32,000 marked arcs: OpenBLAS splits one dot that long across its
        # threads, in an order set by their count, so the marked mass must
        # be summed in shorter runs for the p_t series to stay put.
        cfg = write_config(tmp_path / "pairs.json", {
            "graph": {"family": "torus2d", "rows": 256, "cols": 256},
            "marked": {"pairs": {"k": 4000, "seed": 1}},
            "t_max": 60,
        })
        src = str(Path(experiments.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            out_dir = tmp_path / f"threads{threads}"
            proc = subprocess.run([sys.executable, "-m", "qwsearch.cli", "run", str(cfg), "--out-dir", str(out_dir)],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
            outputs.append(((out_dir / "pairs.csv").read_bytes(), (out_dir / "pairs.json").read_bytes()))
        assert outputs[0] == outputs[1]


class TestSelectDisjointPairs:
    def test_components_are_exactly_pairs(self, torus16):
        marked = select_disjoint_pairs(torus16, 4, seed=3)
        comps = marked_components(torus16, marked)
        assert len(comps) == 4
        assert all(len(c.vertices) == 2 and len(c.internal_edges) == 1 for c in comps)

    def test_deterministic(self, torus16):
        assert select_disjoint_pairs(torus16, 3, seed=8) == select_disjoint_pairs(torus16, 3, seed=8)

    def test_impossible_count(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="could not place"):
            select_disjoint_pairs(g, 3, seed=0)


class TestSweep:
    def test_scaling_with_torus_size(self, tmp_path):
        paths = []
        for size in (8, 16, 32):
            paths.append(write_config(tmp_path / f"t{size}.json", {
                "graph": {"family": "torus2d", "rows": size, "cols": size},
                "marked": {"block": {"rows": 2, "cols": 2, "row_offset": 1, "col_offset": 1}},
                "t_max": 50,
            }))
        rows, code = sweep(paths, tmp_path / "out")
        assert code == EXIT_OK
        bounds = [row["bound"] for row in rows]
        assert bounds == pytest.approx([32 / 64, 32 / 256, 32 / 1024], rel=1e-12)

    def test_empty(self, tmp_path):
        rows, code = sweep([], tmp_path / "out")
        assert rows == [] and code == EXIT_OK

    def test_pair_count_ratios(self, tmp_path):
        paths = []
        for k in (1, 2, 4):
            paths.append(write_config(tmp_path / f"k{k}.json", {
                "graph": {"family": "torus2d", "rows": 16, "cols": 16},
                "marked": {"pairs": {"k": k, "seed": 2}},
                "t_max": 40,
            }))
        rows, code = sweep(paths, tmp_path / "out")
        assert code == EXIT_OK
        b1, b2, b4 = (row["bound"] for row in rows)
        assert b2 == pytest.approx(2 * b1, rel=1e-12)
        assert b4 == pytest.approx(4 * b1, rel=1e-12)

    def test_propagates_failures(self, tmp_path):
        good = fig_cycle_config(tmp_path)
        bad = write_config(tmp_path / "bad.json", {
            "graph": {"family": "torus2d", "rows": 4, "cols": 4},
            "marked": {"vertices": [5]},
            "t_max": 10,
        })
        rows, code = sweep([good, bad], tmp_path / "out")
        assert code == EXIT_INFEASIBLE
        assert rows[0]["status"] == "ok"
        assert "error(2)" in rows[1]["status"]

    def test_bad_config_value_does_not_stop_sweep(self, tmp_path):
        bad = write_config(tmp_path / "bad.json", {
            "graph": {"family": "cycle", "n": None},
            "marked": {"vertices": [1]},
        })
        rows, code = sweep([bad, fig_cycle_config(tmp_path)], tmp_path / "out")
        assert code == EXIT_INPUT_ERROR
        assert rows[0]["status"].startswith("error(1): graph.n must be an integer")
        assert rows[1]["status"] == "ok"

    def test_thread_cap_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QWALK_THREADS", "1")
        rows, code = sweep([fig_cycle_config(tmp_path)], tmp_path / "out")
        assert code == EXIT_OK and len(rows) == 1

    def test_same_stem_runs_once_and_the_rest_report_the_clash(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
        first = fig_cycle_config(tmp_path / "a")
        clash = write_config(tmp_path / "b" / "cycle.json", json.loads(first.read_text()) | {"t_max": 7})
        other = write_config(tmp_path / "b" / "other.json", json.loads(first.read_text()))
        rows, code = sweep([first, clash, other], tmp_path / "out")
        assert code == EXIT_INPUT_ERROR
        assert rows[0]["status"] == "ok" and rows[2]["status"] == "ok"
        assert rows[1]["status"] == (
            f"error(1): output directory {tmp_path / 'out' / 'cycle'} is already used by {first}"
        )
        assert len((tmp_path / "out" / "cycle" / "cycle.csv").read_text().splitlines()) == 152

    def test_table_format(self, tmp_path):
        rows, _ = sweep([fig_cycle_config(tmp_path)], tmp_path / "out")
        table = format_sweep_table(rows)
        assert "cycle.json" in table and "bound" in table


def cycle_pair_config(tmp_path, n, t_max=10):
    return write_config(tmp_path / f"c{n}.json", {
        "graph": {"family": "cycle", "n": n},
        "marked": {"vertices": [0, 1]},
        "t_max": t_max,
    })


def poison_third_step(monkeypatch, arc_count):
    """Make the third step of every walk on ``arc_count`` arcs read a NaN."""
    real = walk._Kernel.step

    def step(self):
        self.steps_run = getattr(self, "steps_run", 0) + 1
        if self.steps_run == 3 and self.x.size == arc_count:
            self.x[0] = np.nan
        real(self)

    monkeypatch.setattr(walk._Kernel, "step", step)


DRIFT_MESSAGE = "norm drifted to nan at step 3; aborting evolution"


class TestNormDrift:
    def test_run_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch):
        poison_third_step(monkeypatch, 10)
        cfg = fig_cycle_config(tmp_path)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().err == f"error: {DRIFT_MESSAGE}\n"
        assert not (tmp_path / "o" / "cycle.csv").exists()

    def test_sweep_finishes_the_other_configs(self, tmp_path, monkeypatch):
        poison_third_step(monkeypatch, 10)
        monkeypatch.setenv("QWALK_THREADS", "2")  # each config on a worker thread
        rows, code = sweep([fig_cycle_config(tmp_path), cycle_pair_config(tmp_path, 6)], tmp_path / "out")
        assert code == EXIT_CHECK_FAILED
        assert rows[0]["status"] == f"error(3): {DRIFT_MESSAGE}"
        assert rows[1]["status"] == "ok"

    def test_blocked_step_takes_the_same_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(walk, "_BLOCK_VERTICES", 8)
        real, blocks_run = walk._run_block, []
        monkeypatch.setattr(walk, "_run_block", lambda views, scale: blocks_run.append(1) or real(views, scale))
        poison_third_step(monkeypatch, 80)
        cfg = cycle_pair_config(tmp_path, 40)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().err == f"error: {DRIFT_MESSAGE}\n"
        assert blocks_run


class TestCli:
    def test_run_exit_codes(self, tmp_path, capsys):
        cfg = fig_cycle_config(tmp_path)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_OK
        assert "status=ok" in capsys.readouterr().out

    def test_run_infeasible(self, tmp_path, capsys):
        g = build_graph([(0, 1), (1, 2)], 3)
        write_edge_list(g, tmp_path / "path.txt")
        cfg = write_config(tmp_path / "bad.json", {
            "graph": {"edge_list": "path.txt"},
            "marked": {"vertices": [0]},
            "t_max": 5,
        })
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_INFEASIBLE
        assert "bipartite side sums" in capsys.readouterr().err

    def test_single_marked_vertex_is_exit_2_by_design(self, tmp_path, capsys):
        # The standard search case has no stationary state, hence no ceiling;
        # the library simulates it (acceptance criterion 9), the CLI refuses it.
        cfg = write_config(tmp_path / "one.json", {
            "graph": {"family": "torus2d", "rows": 8, "cols": 8},
            "marked": {"vertices": [9]},
            "t_max": 5,
        })
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_INFEASIBLE
        assert "component (9,): bipartite side sums 4 != 0" in capsys.readouterr().err
        assert not list((tmp_path / "o").rglob("*.csv"))

    ZERO_STATE = ("error: the minimum-norm stationary state is zero: every edge joins two marked vertices"
                  " and every coefficient is 0\n")

    def test_run_with_every_vertex_marked_is_exit_2(self, tmp_path, capsys):
        write_edge_list(cycle_graph(4), tmp_path / "c4.txt")
        cfg = write_config(tmp_path / "all.json", {
            "graph": {"edge_list": "c4.txt"},
            "marked": {"vertices": [0, 1, 2, 3]},
            "t_max": 5,
        })
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_INFEASIBLE
        assert capsys.readouterr() == ("", self.ZERO_STATE)
        assert not list((tmp_path / "o").rglob("*.*"))

    def test_solve_with_every_vertex_marked_is_exit_2(self, tmp_path, capsys):
        write_edge_list(cycle_graph(4), tmp_path / "c4.txt")
        assert main(["solve", str(tmp_path / "c4.txt"), "0,1,2,3"]) == EXIT_INFEASIBLE
        assert capsys.readouterr() == ("", self.ZERO_STATE)

    def test_every_vertex_marked_runs_an_injected_nonzero_assignment(self, tmp_path, capsys):
        write_edge_list(cycle_graph(4), tmp_path / "c4.txt")
        alternating = {(0, 1): 1.0, (1, 2): -1.0, (2, 3): 1.0, (0, 3): -1.0}
        (tmp_path / "alt.txt").write_text(format_assignment(alternating, 1 / np.sqrt(8)))
        cfg = write_config(tmp_path / "alt.json", {
            "graph": {"edge_list": "c4.txt"},
            "marked": {"vertices": [0, 1, 2, 3]},
            "t_max": 5,
            "assignment": {"file": "alt.txt"},
        })
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_OK
        assert "status=ok" in capsys.readouterr().out

    def test_injected_assignment_whose_squares_overflow_is_exit_1(self, tmp_path, capsys):
        # Every vertex of the 4x4 torus marked, a +-1e200 circulation around
        # the square 0-1-5-4 and 0 on every other edge: feasible, but its sum
        # of squares is inf.  The file's a = 0 is 1/sqrt(inf), so the scale
        # check alone would accept it.
        g = torus2d_graph(4, 4)
        write_edge_list(g, tmp_path / "t4.txt")
        circulation = {(0, 1): 1e200, (1, 5): -1e200, (4, 5): 1e200, (0, 4): -1e200}
        comp = marked_components(g, range(g.n))[0]
        (tmp_path / "ovf.txt").write_text(
            format_assignment({e: circulation.get(e, 0.0) for e in comp.internal_edges}, 0.0)
        )
        cfg = write_config(tmp_path / "ovf.json", {
            "graph": {"edge_list": "t4.txt"},
            "marked": {"vertices": list(range(g.n))},
            "t_max": 5,
            "assignment": {"file": "ovf.txt"},
        })
        out_dir = tmp_path / "o"
        # A numpy RuntimeWarning would fail the test (filterwarnings = error).
        assert main(["run", str(cfg), "--out-dir", str(out_dir)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", "error: the assignment's sum of squared amplitudes overflows a float64\n")
        assert not list(out_dir.glob("*"))

    def test_t_max_override_above_the_limit_is_exit_1(self, tmp_path, capsys):
        cfg = fig_cycle_config(tmp_path)
        assert main(["run", str(cfg), "--t-max", "1000001", "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: t_max must be at most 1000000, got 1000001\n"

    @pytest.mark.parametrize("graph, marked, argv, message", [
        ({"family": "random_regular", "n": 24, "d": 3, "seed": -1}, {"vertices": [0]}, [],
         "random_regular needs seed >= 0, got -1"),
        ({"family": "cycle", "n": 8}, {"pairs": {"k": 1, "seed": -5}}, [],
         "marked.pairs needs seed >= 0, got -5"),
        ({"family": "cycle", "n": 8}, {"pairs": {"k": 1, "seed": 5}}, ["--seed", "-2"],
         "marked.pairs needs seed >= 0, got -2"),
    ], ids=["graph.seed", "marked.pairs.seed", "--seed"])
    def test_negative_seed_is_named(self, tmp_path, capsys, graph, marked, argv, message):
        cfg = write_config(tmp_path / "seed.json", {"graph": graph, "marked": marked, "t_max": 5})
        assert main(["run", str(cfg), *argv, "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    # 10^15 vertices: one int64 vertex array needs 8 PB, so its allocation fails at once.
    HUGE_N = 1_000_000_000_000_000

    @staticmethod
    def assert_one_out_of_memory_line(err):
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    def test_run_of_a_graph_too_large_to_allocate_is_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "huge.json", {
            "graph": {"family": "cycle", "n": self.HUGE_N},
            "marked": {"vertices": [0, 1]},
            "t_max": 1,
        })
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        self.assert_one_out_of_memory_line(capsys.readouterr().err)

    def test_sweep_reports_a_graph_too_large_to_allocate_and_runs_the_rest(self, tmp_path, capsys):
        write_config(tmp_path / "huge.json", {
            "graph": {"family": "cycle", "n": self.HUGE_N},
            "marked": {"vertices": [0, 1]},
            "t_max": 1,
        })
        fig_cycle_config(tmp_path)
        assert main(["sweep", str(tmp_path), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        table = capsys.readouterr().out.splitlines()
        assert table[1].startswith("cycle.json") and table[1].endswith(" ok")
        assert table[2].startswith("huge.json") and "error(1): out of memory" in table[2]

    def test_solve_of_a_graph_too_large_to_allocate_is_exit_1(self, tmp_path, capsys):
        (tmp_path / "huge.txt").write_text(f"{self.HUGE_N} 0\n")
        assert main(["solve", str(tmp_path / "huge.txt"), "0"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        self.assert_one_out_of_memory_line(captured.err)

    # With no stub pairing allowed, sampling this graph fails.
    UNSAMPLED = {"graph": {"family": "random_regular", "n": 40, "d": 38, "seed": 1}, "marked": {"vertices": [0]}}
    UNSAMPLED_ERROR = "failed to sample a simple 38-regular graph on 40 vertices"

    def test_run_of_a_random_regular_graph_that_fails_to_sample_is_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "_PAIRING_ATTEMPTS", 0)
        cfg = write_config(tmp_path / "dense.json", self.UNSAMPLED)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {self.UNSAMPLED_ERROR}\n"

    def test_sweep_reports_a_random_regular_graph_that_fails_to_sample_and_runs_the_rest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "_PAIRING_ATTEMPTS", 0)
        write_config(tmp_path / "dense.json", self.UNSAMPLED)
        fig_cycle_config(tmp_path)
        assert main(["sweep", str(tmp_path), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        table = capsys.readouterr().out.splitlines()
        assert table[1].startswith("cycle.json") and table[1].endswith(" ok")
        assert table[2].startswith("dense.json") and table[2].endswith(f" error(1): {self.UNSAMPLED_ERROR}")

    # Beyond int64, so numpy cannot take it as an array length at all.
    OVERSIZED_N = 99999999999999999999999

    @pytest.mark.parametrize("command", ["run", "solve", "verify"])
    def test_edge_list_vertex_count_beyond_int64_is_exit_1(self, tmp_path, capsys, command):
        big = tmp_path / "big.txt"
        big.write_text(f"{self.OVERSIZED_N} 0\n")
        (tmp_path / "s.txt").write_text("0 0 1.0\n")
        cfg = write_config(tmp_path / "big.json", {"graph": {"edge_list": "big.txt"}, "marked": {"vertices": [0, 1]}})
        argv = {
            "run": ["run", str(cfg), "--out-dir", str(tmp_path / "o")],
            "solve": ["solve", str(big), "0,1"],
            "verify": ["verify", str(big), "0,1", str(tmp_path / "s.txt")],
        }[command]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {big}:1: vertex count {self.OVERSIZED_N} is above the int64 maximum\n"

    @pytest.mark.parametrize("graph, n", [
        ({"family": "random_regular", "n": 10**20, "d": 3, "seed": 1}, 10**20),
        ({"family": "cycle", "n": 2**63}, 2**63),
        ({"family": "complete", "n": 2**63}, 2**63),
        ({"family": "torus2d", "rows": 2**62, "cols": 3}, 3 * 2**62),
    ], ids=["random_regular", "cycle", "complete", "torus2d"])
    def test_family_vertex_count_beyond_int64_is_exit_1(self, tmp_path, capsys, graph, n):
        cfg = write_config(tmp_path / "big.json", {"graph": graph, "marked": {"vertices": [0, 1]}})
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: vertex count {n} is above the int64 maximum\n"

    def test_sweep_reports_vertex_counts_beyond_int64_and_runs_the_rest(self, tmp_path, capsys):
        (tmp_path / "big.txt").write_text(f"{self.OVERSIZED_N} 0\n")
        write_config(tmp_path / "big.json", {"graph": {"edge_list": "big.txt"}, "marked": {"vertices": [0, 1]}})
        write_config(tmp_path / "rr.json", {
            "graph": {"family": "random_regular", "n": 10**20, "d": 3, "seed": 1},
            "marked": {"vertices": [0, 1]},
        })
        fig_cycle_config(tmp_path)
        assert main(["sweep", str(tmp_path), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        table = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in table[1:]] == ["big.json", "cycle.json", "rr.json"]
        assert "error(1): " in table[1] and "is above the int64 maximum" in table[1]
        assert table[2].endswith(" ok")
        assert "error(1): vertex count" in table[3]

    def test_assignment_override_is_relative_to_the_working_directory(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "cfgdir").mkdir()
        fig_cycle_config(tmp_path / "cfgdir")
        (tmp_path / "asg.txt").write_text(format_assignment({(3, 4): -1.0}, 1 / np.sqrt(10)))
        monkeypatch.chdir(tmp_path)
        code = main(["run", "cfgdir/cycle.json", "--assignment", "asg.txt", "--out-dir", "o"])
        assert capsys.readouterr().err == "" and code == EXIT_OK
        assert json.loads((tmp_path / "o" / "cycle.json").read_text())["assignment_source"] == "injected"

    def test_sweep_of_a_directory_without_configs_is_exit_1(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "notes.txt").write_text("not a config\n")
        assert main(["sweep", str(empty), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: no *.json configs in {empty}\n"

    def test_usage_error_is_exit_1(self):
        assert main(["run"]) == EXIT_INPUT_ERROR
        assert main(["frobnicate"]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("argv", [[], ["run"], ["solve", "g.txt", "-x,4"], ["sweep", "--t-max", "x", "d"]])
    def test_usage_error_is_one_line(self, capsys, argv):
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1 and captured.err.startswith("qwsearch")
        assert ": error: " in captured.err

    def test_solve_prints_assignment(self, tmp_path, capsys):
        write_edge_list(cycle_graph(5), tmp_path / "c5.txt")
        assert main(["solve", str(tmp_path / "c5.txt"), "3,4"]) == 0
        out = capsys.readouterr().out.splitlines()
        fields = out[0].split()
        assert fields[:2] == ["3", "4"]
        assert float(fields[2]) == pytest.approx(-1.0, abs=1e-12)
        assert out[1].startswith("a ")
        assert float(out[1].split()[1]) == pytest.approx(1 / np.sqrt(10), rel=1e-14)

    def test_solve_stdout_matches_written_file(self, tmp_path, capsys):
        write_edge_list(cycle_graph(5), tmp_path / "c5.txt")
        assert main(["solve", str(tmp_path / "c5.txt"), "3,4"]) == 0
        printed = capsys.readouterr().out
        assert main(["solve", str(tmp_path / "c5.txt"), "3,4", "--out", str(tmp_path / "a.txt")]) == 0
        assert (tmp_path / "a.txt").read_text() == printed

    def test_solve_infeasible_exit_2(self, tmp_path):
        g = build_graph([(0, 1), (1, 2)], 3)
        write_edge_list(g, tmp_path / "path.txt")
        assert main(["solve", str(tmp_path / "path.txt"), "0"]) == EXIT_INFEASIBLE

    @pytest.mark.parametrize("marked, code, out, err", [
        ("3", EXIT_OK, "a 5.00000000000000000e-01\n", ""),
        ("1", EXIT_INFEASIBLE, "", "error: no stationary state for component (1,): bipartite side sums 2 != 0\n"),
    ], ids=["isolated", "degree_2"])
    def test_solve_a_single_vertex(self, tmp_path, capsys, marked, code, out, err):
        # The path 0-1-2 and the isolated vertex 3: a single marked vertex
        # has no internal edge, and is solvable exactly when it has no arc.
        write_edge_list(build_graph([(0, 1), (1, 2)], 4), tmp_path / "g.txt")
        assert main(["solve", str(tmp_path / "g.txt"), marked]) == code
        assert capsys.readouterr() == (out, err)

    def test_verify_round_trip(self, tmp_path, capsys):
        from qwsearch import build_state, write_state_snapshot

        g = cycle_graph(5)
        write_edge_list(g, tmp_path / "c5.txt")
        comps = marked_components(g, {3, 4})
        state = build_state(g, [solve_min_norm(comps[0])])
        write_state_snapshot(state, tmp_path / "state.txt")
        code = main(["verify", str(tmp_path / "c5.txt"), "3,4", str(tmp_path / "state.txt")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("residual ")
        assert float(out.splitlines()[0].split()[1]) <= 1e-14

    def test_verify_skips_blank_lines_in_a_snapshot(self, tmp_path, capsys):
        from qwsearch import build_state, write_state_snapshot

        g = cycle_graph(5)
        write_edge_list(g, tmp_path / "c5.txt")
        write_state_snapshot(build_state(g, [solve_min_norm(marked_components(g, {3, 4})[0])]), tmp_path / "plain.txt")
        records = (tmp_path / "plain.txt").read_text().splitlines()
        (tmp_path / "spaced.txt").write_text("\n" + "\n\n  \n".join(records) + "\n\t\n")
        results = []
        for name in ("plain.txt", "spaced.txt"):
            code = main(["verify", str(tmp_path / "c5.txt"), "3,4", str(tmp_path / name)])
            results.append((code, *capsys.readouterr()))
        assert results[0] == results[1] and results[0][0] == EXIT_OK

    def test_verify_failed_condition_is_exit_3(self, tmp_path, capsys):
        from qwsearch import initial_state, write_state_snapshot

        g = cycle_graph(5)
        write_edge_list(g, tmp_path / "c5.txt")
        write_state_snapshot(initial_state(g), tmp_path / "state.txt")
        code = main(["verify", str(tmp_path / "c5.txt"), "3,4", str(tmp_path / "state.txt")])
        assert code == EXIT_CHECK_FAILED
        # One line per StationarityCheck field, in field order, then each failure.
        assert capsys.readouterr().out == (
            "residual 6.32455532033675882e-01\n"
            "unmarked_amplitude_spread 0.00000000000000000e+00\n"
            "max_marked_vertex_sum 6.32455532033675882e-01\n"
            "max_reverse_mismatch 0.00000000000000000e+00\n"
            "failed: marked vertex amplitudes do not sum to zero\n"
        )

    @pytest.mark.parametrize("sign, out", [
        (lambda v, c: "", (
            "residual inf\n"
            "unmarked_amplitude_spread 0.00000000000000000e+00\n"
            "max_marked_vertex_sum inf\n"
            "max_reverse_mismatch 0.00000000000000000e+00\n"
            "failed: marked vertex amplitudes do not sum to zero\n"
        )),
        (lambda v, c: "-" if (v + c) % 2 else "", (
            "residual inf\n"
            "unmarked_amplitude_spread inf\n"
            "max_marked_vertex_sum 0.00000000000000000e+00\n"
            "max_reverse_mismatch inf\n"
            "failed: unmarked amplitudes not all equal\n"
            "failed: reverse-arc amplitudes differ\n"
        )),
    ], ids=["all_1e308", "alternating_1e308"])
    def test_verify_overflow_fails_without_numpy_warnings(self, tmp_path, capsys, sign, out):
        # The coin's sums and the vertex sums overflow to inf: the measures
        # carry it into a failed check, with nothing on stderr.
        write_edge_list(cycle_graph(5), tmp_path / "c5.txt")
        (tmp_path / "s.txt").write_text("".join(f"{v} {c} {sign(v, c)}1e308\n" for v in range(5) for c in range(2)))
        assert main(["verify", str(tmp_path / "c5.txt"), "3,4", str(tmp_path / "s.txt")]) == EXIT_CHECK_FAILED
        assert capsys.readouterr() == (out, "")

    def test_verify_keeps_a_nan_vertex_sum(self, tmp_path, capsys):
        # Vertex 0 of K17 holds 1e308 at ports 0 and 8 and -1e308 at ports 1
        # and 9: its sum adds inf to -inf.  The NaN must not lose to vertex
        # 1's sum of 0.8.
        write_edge_list(complete_graph(17), tmp_path / "k17.txt")
        big = {0: "1e308", 8: "1e308", 1: "-1e308", 9: "-1e308"}
        (tmp_path / "s.txt").write_text(
            "".join(f"{v} {c} {big.get(c, '0.05') if v == 0 else '0.05'}\n" for v in range(17) for c in range(16))
        )
        assert main(["verify", str(tmp_path / "k17.txt"), "0,1", str(tmp_path / "s.txt")]) == EXIT_CHECK_FAILED
        assert capsys.readouterr() == (
            "residual 1.00000000000000001e+308\n"
            "unmarked_amplitude_spread 0.00000000000000000e+00\n"
            "max_marked_vertex_sum nan\n"
            "max_reverse_mismatch 1.00000000000000001e+308\n"
            "failed: marked vertex amplitudes do not sum to zero\n"
            "failed: reverse-arc amplitudes differ\n",
            "",
        )

    @pytest.mark.parametrize("graph, snapshot", [
        ("4 2\n0 1\n2 3\n", "0 0 0.0\n1 0 0.0\n2 0 0.0\n3 0 0.0\n"),
        ("4 2\n0 1\n2 3\n", "0 0 -0.0\n1 0 0.0\n2 0 0e5\n3 0 -0\n"),
        ("3 0\n", ""),
    ], ids=["zeros", "signed_zeros", "arcless"])
    def test_verify_rejects_a_zero_state(self, tmp_path, capsys, graph, snapshot):
        # Every measure of the zero state is 0: it must not pass as stationary.
        (tmp_path / "g.txt").write_text(graph)
        (tmp_path / "s.txt").write_text(snapshot)
        assert main(["verify", str(tmp_path / "g.txt"), "0", str(tmp_path / "s.txt")]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {tmp_path / 's.txt'}: every amplitude is zero\n")

    @pytest.mark.parametrize("reader, bad, problem", [
        ("edge_list", "5 5\n0 1\n0 x\n1 2\n2 3\n3 4\n", "3: bad integer 'x'"),
        ("snapshot", "0 0 0.5\nx 1 0.5\n", "2: bad integer 'x'"),
        ("snapshot", "0 0 abc\n", "1: bad number 'abc'"),
        ("assignment", "3 x 1.0\na 0.3\n", "1: bad integer 'x'"),
        ("assignment", "3 4 -1.0\na zz\n", "2: bad number 'zz'"),
    ], ids=["edge_list", "snapshot_int", "snapshot_float", "assignment_int", "assignment_float"])
    def test_bad_number_names_file_and_line(self, tmp_path, capsys, reader, bad, problem):
        c5 = tmp_path / "c5.txt"
        write_edge_list(cycle_graph(5), c5)
        bad_file = tmp_path / "bad.txt"
        bad_file.write_text(bad)
        argv = {
            "edge_list": ["solve", str(bad_file), "3,4"],
            "snapshot": ["verify", str(c5), "3,4", str(bad_file)],
            "assignment": ["run", str(fig_cycle_config(tmp_path)), "--assignment", str(bad_file),
                           "--out-dir", str(tmp_path / "o")],
        }[reader]
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {bad_file}:{problem}\n"

    TORUS = {"family": "torus2d", "rows": 4, "cols": 4}

    @pytest.mark.parametrize("reader, bad, message", [
        ("config", {"graph": 5, "marked": {"vertices": [1]}}, "'graph' must be an object"),
        ("config", {"graph": TORUS, "marked": [1]}, "'marked' must be an object"),
        ("config", {"graph": TORUS, "marked": {"vertices": 3}}, "marked.vertices must be a list of vertex ids"),
        ("config", {"graph": TORUS, "marked": {"block": {"rows": 2}}}, "marked.block requires 'rows' and 'cols'"),
        ("config", {"graph": TORUS, "marked": {"block": {"rows": 0, "cols": 2}}},
         "marked.block dimensions must be positive"),
        ("config", {"graph": TORUS, "marked": {"pairs": {"k": 1}}}, "marked.pairs requires 'k' and 'seed'"),
        ("config", {"graph": TORUS, "marked": {"pairs": {"k": -1, "seed": 0}}}, "marked.pairs.k must be nonnegative"),
        ("config", "not json", "{path}: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("config", "[1, 2]", "{path}: config must be a JSON object"),
        ("edge_list", "5\n", "{path}: first line must be 'n m'"),
        ("snapshot", "0 0\n", "{path}:1: expected 'v c amplitude', got '0 0'"),
        ("snapshot", "0 0 0.5\n0 1 0.5\n1 0 0.5\n1 2 0.5\n", "{path}:4: vertex 1 has no port 2 (degree 2)"),
        ("assignment", "3 4\na 0.3\n", "{path}:1: expected 'i j c', got '3 4'"),
        ("assignment", "3 4 -1.0\na 0.3 0.4\n", "{path}:2: malformed or repeated scale line 'a 0.3 0.4'"),
    ], ids=["graph_object", "marked_object", "vertices_list", "block_keys", "block_size", "pairs_keys",
            "pairs_k", "invalid_json", "json_object", "edge_list_header", "snapshot_line", "snapshot_port",
            "assignment_line", "assignment_scale"])
    def test_input_error_is_exit_1_with_its_one_line(self, tmp_path, capsys, reader, bad, message):
        c5 = tmp_path / "c5.txt"
        write_edge_list(cycle_graph(5), c5)
        bad_file = tmp_path / ("bad.json" if reader == "config" else "bad.txt")
        if isinstance(bad, dict):
            write_config(bad_file, bad)
        else:
            bad_file.write_text(bad)
        out_dir = str(tmp_path / "o")
        argv = {
            "config": ["run", str(bad_file), "--out-dir", out_dir],
            "edge_list": ["solve", str(bad_file), "3,4"],
            "snapshot": ["verify", str(c5), "3,4", str(bad_file)],
            "assignment": ["run", str(fig_cycle_config(tmp_path)), "--assignment", str(bad_file), "--out-dir", out_dir],
        }[reader]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message.format(path=bad_file)}\n")

    def test_isolated_marked_vertex_has_a_zero_ceiling(self, tmp_path, capsys):
        write_edge_list(build_graph([(0, 1), (1, 2)], 4), tmp_path / "g.txt")
        cfg = write_config(tmp_path / "iso.json", {
            "graph": {"edge_list": "g.txt"},
            "marked": {"vertices": [3]},  # degree 0
            "t_max": 5,
        })
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_OK
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "o" / "iso.json").read_text())
        assert report["bound_total"] == 0.0 and report["observed_max_p"] == 0.0
        assert report["components"][0]["coefficients"] == [] and report["checks_passed"] is True

    def test_bad_marked_vertex_is_named(self, tmp_path, capsys):
        write_edge_list(cycle_graph(5), tmp_path / "c5.txt")
        assert main(["solve", str(tmp_path / "c5.txt"), "3,x"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: marked list '3,x': bad integer 'x'\n"

    @pytest.mark.parametrize("argv", [
        ["solve", "c4.txt", "-3,4"],
        ["solve", "c4.txt", "--", "-3,4"],
        ["verify", "c4.txt", "-3,4", "s.txt"],
    ], ids=["solve", "solve_after_dashes", "verify"])
    def test_marked_list_with_a_leading_minus_names_the_lowest_bad_vertex(self, tmp_path, capsys, argv):
        g = cycle_graph(4)
        write_edge_list(g, tmp_path / "c4.txt")
        write_state_snapshot(initial_state(g), tmp_path / "s.txt")
        assert main([str(tmp_path / a) if a.endswith(".txt") else a for a in argv]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: marked vertex -3 out of range for n=4\n"

    @pytest.mark.parametrize("marked", ["0,,1", "0,1,", ",0", "0, ,1"])
    def test_empty_marked_vertex_is_exit_1(self, tmp_path, capsys, marked):
        write_edge_list(cycle_graph(5), tmp_path / "c5.txt")
        assert main(["solve", str(tmp_path / "c5.txt"), marked]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: marked list {marked!r} has an empty vertex\n"

    def test_snapshot_vertex_out_of_range_names_line(self, tmp_path, capsys):
        write_edge_list(cycle_graph(5), tmp_path / "c5.txt")
        (tmp_path / "s.txt").write_text("0 0 0.5\n9 0 0.5\n")
        assert main(["verify", str(tmp_path / "c5.txt"), "3,4", str(tmp_path / "s.txt")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {tmp_path / 's.txt'}:2: vertex 9 out of range for n=5\n"

    def test_bad_thread_count_names_the_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QWALK_THREADS", "two")
        cfg = fig_cycle_config(tmp_path)
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: QWALK_THREADS: bad integer 'two'\n"

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_nonpositive_thread_count_is_exit_1(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("QWALK_THREADS", threads)
        cfg = fig_cycle_config(tmp_path)
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: QWALK_THREADS must be positive, got '{threads}'\n"

    def test_default_workers_follow_the_affinity_mask_and_qwalk_threads_wins(self, monkeypatch):
        monkeypatch.delenv("QWALK_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert experiments._worker_count(8) == 1  # one CPU allowed of the host's eight
        monkeypatch.setenv("QWALK_THREADS", "3")
        assert experiments._worker_count(8) == 3
        monkeypatch.delenv("QWALK_THREADS")
        monkeypatch.delattr(os, "sched_getaffinity")
        assert experiments._worker_count(8) == 4  # no affinity mask: the host's count, capped at 4

    def test_run_of_a_graph_with_no_arcs_is_exit_1(self, tmp_path, capsys):
        (tmp_path / "empty.txt").write_text("3 0\n")
        cfg = write_config(tmp_path / "empty.json", {"graph": {"edge_list": "empty.txt"}, "marked": {"vertices": [0]}})
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", "error: graph has no arcs; nothing to simulate\n")

    def test_dominance_failure_is_exit_3_and_reported_as_failed(self, tmp_path, capsys, monkeypatch):
        # This block's ceiling is 1/2, so with a slack of -1 no observed
        # maximum is below it.
        monkeypatch.setattr(experiments, "DOMINANCE_SLACK", -1.0)
        cfg = write_config(tmp_path / "block.json", {
            "graph": {"family": "torus2d", "rows": 8, "cols": 8},
            "marked": {"block": {"rows": 2, "cols": 2, "row_offset": 1, "col_offset": 1}},
            "t_max": 20,
        })
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert " bound=0.5 " in out and "status=dominance failed" in out
        report = json.loads((tmp_path / "o" / "block.json").read_text())
        assert report["dominance"] is False and report["checks_passed"] is False
        assert len((tmp_path / "o" / "block.csv").read_text().splitlines()) == 22
        assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "s")]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().out.splitlines()[1].endswith(" dominance failed")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_seed_override_reseeds_a_random_regular_graph(self, tmp_path, command):
        # --seed 5 names seed 5 for the graph as well as for the pairs: the
        # run equals one whose config names it in both, not one that names
        # it for the pairs only.
        def config(name, graph_seed, pairs_seed):
            return write_config(tmp_path / f"{name}.json", {
                "graph": {"family": "random_regular", "n": 24, "d": 3, "seed": graph_seed},
                "marked": {"pairs": {"k": 1, "seed": pairs_seed}},
                "t_max": 60,
            })

        def artifacts(cfg, *argv):
            out = tmp_path / f"out-{cfg.stem}"
            assert main([command, str(cfg), *argv, "--out-dir", str(out)]) == EXIT_OK
            run_dir = out if command == "run" else out / cfg.stem
            report = json.loads((run_dir / f"{cfg.stem}.json").read_text())
            del report["config"]
            return (run_dir / f"{cfg.stem}.csv").read_bytes(), report

        reseeded = artifacts(config("rr", 9, 2), "--seed", "5")
        assert reseeded == artifacts(config("named", 5, 5))
        assert reseeded != artifacts(config("pairs_only", 9, 5))

    def test_sweep_cli(self, tmp_path, capsys):
        cfg = fig_cycle_config(tmp_path)
        assert main(["sweep", str(tmp_path), "--out-dir", str(tmp_path / "o")]) == EXIT_OK
        assert "cycle.json" in capsys.readouterr().out
