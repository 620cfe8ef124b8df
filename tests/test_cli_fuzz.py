"""Fuzzed exit-status property of the command line.

Every input, valid or not, must end in a documented exit status with at
most one line on stderr and never a traceback; a run that exits 0 must
leave both artifacts with ``checks_passed: true``.  ``cli.main`` runs in
process on small generated inputs: mutated fixture configs (one nested
too deep to parse among them), edge lists (oversized headers included),
state snapshots, assignment files and marked lists.  Sizes are either
tiny or beyond int64, never in between, so no example allocates a large
graph.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from qwsearch import build_state, cycle_graph, marked_components, solve_min_norm, write_state_snapshot
from qwsearch.cli import main
from qwsearch.stationary import format_assignment, normalization_scale

# Vertex counts, offsets and seeds: tiny, or too large for any array.
OVERSIZED = st.sampled_from([2**63, 10**20, 99999999999999999999999])
# How many mutations an input gets: none half of the time, so that valid
# inputs reach the simulation and exit 0.
FEW = st.sampled_from([0, 0, 0, 1, 2, 3])
SIZE = st.one_of(st.integers(-2, 12), OVERSIZED)
VALUE = st.one_of(SIZE, st.sampled_from([None, True, 1.5, "x", "", [], {}, [3, 4], "g.txt", "min_norm"]))

FIXTURE_CONFIGS = [
    {"graph": {"family": "cycle", "n": 5}, "marked": {"vertices": [3, 4]}, "t_max": 20},
    {"graph": {"family": "torus2d", "rows": 4, "cols": 4},
     "marked": {"block": {"rows": 2, "cols": 2, "row_offset": 1, "col_offset": 1}}, "t_max": 20},
    {"graph": {"family": "complete", "n": 6}, "marked": {"vertices": [0, 1, 2]}},
    {"graph": {"family": "random_regular", "n": 10, "d": 3, "seed": 7},
     "marked": {"pairs": {"k": 1, "seed": 11}}, "t_max": 20},
    {"graph": {"edge_list": "g.txt"}, "marked": {"vertices": [3, 4]}, "t_max": 20,
     "assignment": {"file": "asg.txt"}, "csv": "steps.csv", "report": "report.json"},
]
# A whole-document mutation: nested deeper than json.loads can recurse.
TOO_DEEP = "[" * 100_000
# Keys a mutation may set, besides the ones a fixture already has.
EXTRA_KEYS = [("t_max",), ("assignment",), ("csv",), ("report",), ("extra",), ("graph", "n"),
              ("graph", "edge_list"), ("graph", "rows"), ("marked", "pairs"), ("marked", "block", "rows")]


def _c5_files():
    g = cycle_graph(5)
    assignments = [solve_min_norm(c) for c in marked_components(g, [3, 4])]
    with tempfile.TemporaryDirectory() as tmp:
        write_state_snapshot(build_state(g, assignments), Path(tmp) / "s.txt")
        snapshot = (Path(tmp) / "s.txt").read_text()
    assignment = format_assignment(assignments[0].coefficients, normalization_scale(g, assignments))
    return "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n", snapshot, assignment


C5_EDGES, C5_SNAPSHOT, C5_ASSIGNMENT = _c5_files()


def _key_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@st.composite
def configs(draw):
    if draw(st.integers(0, 9)) == 0:
        return TOO_DEEP
    cfg = copy.deepcopy(draw(st.sampled_from(FIXTURE_CONFIGS)))
    for _ in range(draw(FEW)):
        path = draw(st.sampled_from(sorted(set(_key_paths(cfg)) | set(EXTRA_KEYS))))
        parent = cfg
        for key in path[:-1]:
            parent = parent.get(key)
            if not isinstance(parent, dict):
                break
        else:
            if draw(st.booleans()):
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = draw(VALUE)
    return json.dumps(cfg)


@st.composite
def lines(draw, fields, pool):
    """Mostly well-formed lines of ``fields`` tokens, drawn from ``pool``."""
    out = []
    for _ in range(draw(st.integers(0, 6))):
        out.append(" ".join(str(draw(pool)) for _ in range(draw(st.sampled_from([fields, fields, fields - 1])))))
    return "\n".join(out) + "\n"


@st.composite
def edge_lists(draw):
    if draw(FEW) == 0:
        return C5_EDGES
    body = draw(lines(2, st.one_of(st.integers(-1, 7), st.just("x"))))
    return f"{draw(SIZE)} {draw(st.integers(0, 6))}\n{body}"


def _mutated(text, pool):
    """``text`` with lines dropped, repeated or replaced by drawn ones."""
    @st.composite
    def build(draw):
        kept = text.splitlines()
        for _ in range(draw(FEW)):
            if not kept:
                break
            i = draw(st.integers(0, len(kept) - 1))
            kept[i : i + 1] = draw(st.sampled_from([[], [kept[i]] * 2, [draw(pool)]]))
        return "\n".join(kept) + "\n"
    return build()


NUMBER = st.one_of(st.integers(-2, 6), st.floats(allow_nan=True, allow_infinity=True), st.just("zz"))
SNAPSHOTS = _mutated(C5_SNAPSHOT, lines(3, NUMBER))
ASSIGNMENTS = _mutated(C5_ASSIGNMENT, st.one_of(lines(3, NUMBER), st.just("a 0.3")))
MARKED_LISTS = st.one_of(st.sampled_from(["3,4", "3,4", "0", "0,1,2,3,4", "99999999999999999999999", "-3,4"]),
                         st.text(alphabet="0123456789,- x", max_size=8))


@st.composite
def invocations(draw):
    """(command, files to write, argv with ``{d}`` for the work directory)."""
    files = {"g.txt": draw(edge_lists()), "asg.txt": draw(ASSIGNMENTS), "s.txt": draw(SNAPSHOTS)}
    command = draw(st.sampled_from(["run", "sweep", "solve", "verify"]))
    if command in ("run", "sweep"):
        names = ["c.json"] if command == "run" else draw(st.lists(st.sampled_from(["a.json", "b.json", "c.json"]),
                                                                  max_size=3, unique=True))
        files.update({f"cfg/{name}": draw(configs()) for name in names})
        argv = [command, "{d}/cfg/c.json" if command == "run" else "{d}/cfg", "--out-dir", "{d}/out"]
        for flag in ("--t-max", "--seed"):
            if draw(FEW):
                argv += [flag, str(draw(SIZE))]
        if command == "run" and draw(st.booleans()):
            argv += ["--assignment", "{d}/asg.txt"]
    elif command == "solve":
        argv = ["solve", "{d}/g.txt", draw(MARKED_LISTS)]
    else:
        argv = ["verify", "{d}/g.txt", draw(MARKED_LISTS), "{d}/s.txt"]
    return command, files, argv


@settings(max_examples=150)
@given(invocations())
def test_every_input_ends_in_a_documented_exit_with_one_line(invocation):
    command, files, argv = invocation
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "cfg").mkdir()
        for name, text in files.items():
            (d / name).write_text(text)
            if "/" not in name:  # where configs find their input files
                (d / "cfg" / name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{d}", tmp) for a in argv])
        err = err.getvalue()
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        assert err.count("\n") <= 1 and err.endswith("\n") == bool(err)
        if code in (1, 2):
            if command == "sweep" and not err:  # the table names each failure
                assert f" error({code}): " in out.getvalue()
            else:
                assert err.count("\n") == 1
        if code == 0 and command in ("run", "sweep"):
            stems = [Path(name).stem for name in files if name.startswith("cfg/")]
            for out_dir in [d / "out"] if command == "run" else [d / "out" / stem for stem in stems]:
                artifacts = sorted(out_dir.iterdir())
                assert len(artifacts) == 2
                reports = [json.loads(p.read_text()) for p in artifacts if p.read_text().startswith("{")]
                assert [r["checks_passed"] for r in reports] == [True]
