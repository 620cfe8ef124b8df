import json
import re

import jsonschema
import numpy as np
import pytest

from qwsearch import (
    StationarityCheck,
    build_graph,
    cycle_graph,
    marked_components,
    merged_coefficients,
    normalization_scale,
    solve_min_norm,
    write_assignment_file,
    write_edge_list,
)
from qwsearch import experiments, walk
from qwsearch.cli import main
from qwsearch.experiments import (
    EXIT_CHECK_FAILED,
    EXIT_INFEASIBLE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    REPORT_SCHEMA,
    execute,
    format_sweep_table,
    load_config,
    select_disjoint_pairs,
    sweep,
)

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
        assert cfg.graph.family == "cycle"
        assert cfg.marked.kind == "vertices"
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

    def test_injected_assignment_file(self, tmp_path, torus16):
        verts, vertical, horizontal = block_coefficients(16, 1, 1, 16, 16)
        comps = marked_components(torus16, verts)
        coeffs = {e: -3.0 for e in vertical} | {e: 1.0 for e in horizontal}
        write_assignment_file(tmp_path / "psi1.txt", coeffs, 1.0 / np.sqrt(4 * (256 + 8)))
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
        write_assignment_file(tmp_path / "asg.txt", {(3, 4): -1.0}, 123.0)
        cfg = fig_cycle_config(tmp_path, assignment={"file": "asg.txt"})
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "does not match the normalization scale" in err and err.count("\n") == 1

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


class TestSelectDisjointPairs:
    def test_components_are_exactly_pairs(self, torus16):
        marked = select_disjoint_pairs(torus16, 4, seed=3)
        comps = marked_components(torus16, marked)
        assert len(comps) == 4
        assert all(c.size == 2 and len(c.internal_edges) == 1 for c in comps)

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
        monkeypatch.setattr(walk, "_BLOCKED_MIN_ARCS", 1)
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

    def test_usage_error_is_exit_1(self):
        assert main(["run"]) == EXIT_INPUT_ERROR
        assert main(["frobnicate"]) == EXIT_INPUT_ERROR

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

    def test_verify_failed_condition_is_exit_3(self, tmp_path, capsys):
        from qwsearch import initial_state, write_state_snapshot

        g = cycle_graph(5)
        write_edge_list(g, tmp_path / "c5.txt")
        write_state_snapshot(initial_state(g), tmp_path / "state.txt")
        code = main(["verify", str(tmp_path / "c5.txt"), "3,4", str(tmp_path / "state.txt")])
        assert code == EXIT_CHECK_FAILED
        assert "failed: marked vertex amplitudes do not sum to zero" in capsys.readouterr().out

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

    def test_bad_marked_vertex_is_named(self, tmp_path, capsys):
        write_edge_list(cycle_graph(5), tmp_path / "c5.txt")
        assert main(["solve", str(tmp_path / "c5.txt"), "3,x"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: marked list '3,x': bad integer 'x'\n"

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

    def test_sweep_cli(self, tmp_path, capsys):
        cfg = fig_cycle_config(tmp_path)
        assert main(["sweep", str(tmp_path), "--out-dir", str(tmp_path / "o")]) == EXIT_OK
        assert "cycle.json" in capsys.readouterr().out
