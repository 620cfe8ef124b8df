"""End-to-end experiment driver: build a graph, mark vertices, solve for a
stationary assignment, evaluate ceilings, simulate, and emit CSV + JSON.

Config document (strict JSON; unknown and repeated keys are rejected)::

    {
      "graph":  exactly one of
                {"family": "cycle", "n": 5}
                {"family": "torus2d", "rows": 16, "cols": 16}
                {"family": "complete", "n": 8}
                {"family": "random_regular", "n": 60, "d": 3, "seed": 7}
                {"edge_list": "path/to/graph.txt"},
      "marked": exactly one of
                {"vertices": [3, 4]}
                {"block": {"rows": 2, "cols": 2, "row_offset": 1, "col_offset": 1}}
                {"pairs": {"k": 3, "seed": 11}},
      "t_max": 2000,                 # optional, at most 10^6; default 10 * diameter^2, capped at 10^4
      "assignment": "min_norm",      # optional (default); or {"file": "assignment.txt"}
      "csv": "steps.csv",            # optional output-name overrides,
      "report": "report.json"        # resolved inside the output directory
    }

File names (``edge_list``, ``file``, ``csv``, ``report``) must be
non-empty strings.  The CSV and report names must differ and be plain file
names, with no directory part, so both land in the output directory.

A family's config keys are exactly its generator's parameters in
``graphs``, checked in that order.  An edge-list graph takes no other
key.  Relative input paths are resolved against the config file's
directory; an assignment file given to :func:`execute` (the CLI's
``--assignment``) against the working directory.  The block pattern addresses torus2d graphs row-major, so it
is only valid with the torus2d family, and may not be taller or wider
than the torus.
The pairs pattern marks k pairwise non-adjacent adjacent-vertex pairs,
chosen deterministically from the seed.

Exit statuses: 0 = dominance and stationarity checks passed, 1 = input
error (a graph too large to allocate, a vertex count above the int64
maximum, a ``t_max`` above T_MAX_LIMIT and an assignment whose sum of
squares overflows included), 2 = infeasible
stationary request (no stationary state, or a zero one), 3 = a check
failed, the walk's norm guard (NormDriftError) included.

A single marked vertex of positive degree exits 2 by design: it is a
bipartite component with one empty side, so it has no stationary state
and no ceiling to check.  Such a walk can still be simulated through the
library (``walk.evolve``), as acceptance criterion 9 does.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bounds as bounds_mod
from .graphs import _FAMILIES, Graph, _parse_int, generate, marked_components, read_edge_list
from .stationary import (
    CONSTRAINT_TOL,
    RESIDUAL_LIMIT,
    InfeasibleComponentError,
    StationarityCheck,
    assignments_from_coefficients,
    build_state,
    exists_stationary,
    normalization_scale,
    read_assignment_file,
    solve_min_norm,
    verify_stationary,
)
from .walk import NormDriftError, evolve, initial_state, marked_probability

__all__ = [
    "ExperimentConfig",
    "ExperimentOutcome",
    "load_config",
    "run_experiment",
    "execute",
    "sweep",
    "format_sweep_table",
    "select_disjoint_pairs",
    "REPORT_SCHEMA",
    "EXIT_OK",
    "EXIT_INPUT_ERROR",
    "EXIT_INFEASIBLE",
    "EXIT_CHECK_FAILED",
    "DOMINANCE_SLACK",
    "T_MAX_LIMIT",
    "RESIDUAL_LIMIT",
]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_CHECK_FAILED = 3

# Numerical slack for the dominance verdict.
DOMINANCE_SLACK = 1e-9

# Largest explicit step count: 100 times the default budget's cap.  A run
# holds one float per step until it writes the CSV.
T_MAX_LIMIT = 10**6

# Each family's config keys are its generator's parameters, in order.
_GRAPH_FAMILY_KEYS = {family: tuple(inspect.signature(build).parameters) for family, build in _FAMILIES.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    graph: dict  # {"edge_list": name}, or {"family": name, **the generator's int parameters}
    marked: tuple  # (kind, payload): ("vertices", ids), or ("block" | "pairs", its int fields)
    t_max: int | None
    assignment_file: str | None  # None: solve for the minimum-norm assignment
    csv_name: str  # output file names inside the output directory
    report_name: str
    base_dir: Path
    name: str


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")


def _as_name(value, where: str) -> str:
    """A non-empty JSON string, used as a file name; str() would turn null
    into a file named 'None'."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{where} must be a non-empty string, got {json.dumps(value)}")
    return value


def _as_int(value, where: str) -> int:
    """An integer, from JSON or a caller; bool (an int subclass), floats
    (which int() would truncate) and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{where} must be an integer, got {json.dumps(value, default=repr)}")
    return int(value)


def _as_t_max(value, where: str) -> int:
    """A step count in 0..T_MAX_LIMIT."""
    t_max = _as_int(value, where)
    if t_max < 0:
        raise ValueError(f"{where} must be nonnegative, got {t_max}")
    if t_max > T_MAX_LIMIT:
        raise ValueError(f"{where} must be at most {T_MAX_LIMIT}, got {t_max}")
    return t_max


def _parse_graph_spec(obj) -> dict:
    if not isinstance(obj, dict):
        raise ValueError("'graph' must be an object")
    _reject_unknown(obj, {"family", "edge_list"}.union(*_GRAPH_FAMILY_KEYS.values()), "graph")
    has_family = "family" in obj
    has_edge_list = "edge_list" in obj
    if has_family == has_edge_list:
        raise ValueError("graph: exactly one of 'family' and 'edge_list' is required")
    if has_edge_list:
        _reject_unknown(obj, {"edge_list"}, "graph with an edge_list")
        return {"edge_list": _as_name(obj["edge_list"], "graph.edge_list")}
    family = obj["family"]
    if not isinstance(family, str) or family not in _GRAPH_FAMILY_KEYS:
        raise ValueError(f"graph: unknown family {family!r}")
    wanted = _GRAPH_FAMILY_KEYS[family]
    given = set(obj) - {"family"}
    if given != set(wanted):
        raise ValueError(f"graph: family {family!r} takes keys {sorted(wanted)}, got {sorted(given)}")
    return {"family": family, **{k: _as_int(obj[k], f"graph.{k}") for k in wanted}}


def _parse_marked_spec(obj) -> tuple:
    if not isinstance(obj, dict):
        raise ValueError("'marked' must be an object")
    _reject_unknown(obj, {"vertices", "block", "pairs"}, "marked")
    if len(obj) != 1:
        raise ValueError("marked: exactly one of 'vertices', 'block', 'pairs' is required")
    kind, payload = next(iter(obj.items()))
    if kind == "vertices":
        if not isinstance(payload, list):
            raise ValueError("marked.vertices must be a list of vertex ids")
        return "vertices", tuple(_as_int(v, "marked.vertices[]") for v in payload)
    if not isinstance(payload, dict):
        raise ValueError(f"marked.{kind} must be an object")
    if kind == "block":
        _reject_unknown(payload, {"rows", "cols", "row_offset", "col_offset"}, "marked.block")
        if "rows" not in payload or "cols" not in payload:
            raise ValueError("marked.block requires 'rows' and 'cols'")
        block = {"row_offset": 0, "col_offset": 0} | payload
        block = {k: _as_int(v, f"marked.block.{k}") for k, v in block.items()}
        if block["rows"] < 1 or block["cols"] < 1:
            raise ValueError("marked.block dimensions must be positive")
        return "block", block
    _reject_unknown(payload, {"k", "seed"}, "marked.pairs")
    if "k" not in payload or "seed" not in payload:
        raise ValueError("marked.pairs requires 'k' and 'seed'")
    pairs = {k: _as_int(v, f"marked.pairs.{k}") for k, v in payload.items()}
    if pairs["k"] < 0:
        raise ValueError("marked.pairs.k must be nonnegative")
    return "pairs", pairs


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a repeated key is an error, where
    json.loads would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(), object_pairs_hook=_unique_keys)
    except OSError as err:
        raise ValueError(f"cannot read config {path}: {err}") from None
    except (json.JSONDecodeError, RecursionError) as err:  # RecursionError: nested too deep
        raise ValueError(f"{path}: invalid JSON: {err}") from None
    except ValueError as err:  # from _unique_keys
        raise ValueError(f"{path}: {err}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    _reject_unknown(obj, {"graph", "marked", "t_max", "assignment", "csv", "report"}, str(path))
    for required in ("graph", "marked"):
        if required not in obj:
            raise ValueError(f"{path}: missing required key {required!r}")
    t_max = obj.get("t_max")
    if t_max is not None:
        t_max = _as_t_max(t_max, f"{path}: t_max")
    assignment = obj.get("assignment", "min_norm")
    if assignment == "min_norm":
        assignment_file = None
    elif isinstance(assignment, dict) and set(assignment) == {"file"}:
        assignment_file = _as_name(assignment["file"], f"{path}: assignment.file")
    else:
        raise ValueError(f"{path}: 'assignment' must be \"min_norm\" or {{\"file\": path}}")
    csv_name = _as_name(obj["csv"], f"{path}: csv") if "csv" in obj else f"{path.stem}.csv"
    report_name = _as_name(obj["report"], f"{path}: report") if "report" in obj else f"{path.stem}.json"
    if Path(csv_name) == Path(report_name):
        raise ValueError(f"{path}: the CSV and the report would both be written to {csv_name!r}")
    for key, name in (("csv", csv_name), ("report", report_name)):
        if Path(name).name != name or name in (".", ".."):
            raise ValueError(f"{path}: {key} must be a plain file name, got {json.dumps(name)}")
    return ExperimentConfig(
        graph=_parse_graph_spec(obj["graph"]),
        marked=_parse_marked_spec(obj["marked"]),
        t_max=t_max,
        assignment_file=assignment_file,
        csv_name=csv_name,
        report_name=report_name,
        base_dir=path.parent,
        name=path.stem,
    )


def build_graph_from_spec(cfg: ExperimentConfig) -> Graph:
    if "edge_list" in cfg.graph:
        return read_edge_list(_resolve(cfg.base_dir, cfg.graph["edge_list"]))
    return generate(**cfg.graph)


def _resolve(base: Path, p: str) -> Path:
    path = Path(p)
    return path if path.is_absolute() else base / path


def select_disjoint_pairs(g: Graph, k: int, seed: int) -> list[int]:
    """Mark k adjacent pairs whose components stay exactly those pairs.

    Edges are tried in a seeded random order; a pair is accepted only when
    neither endpoint is adjacent to an already marked vertex.  Edge i is
    the i-th arc (u, v) with u < v in arc order, which is the i-th entry
    of ``g.edge_list()``.
    """
    if seed < 0:
        raise ValueError(f"marked.pairs needs seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    sources = g.arc_source
    forward = np.flatnonzero(sources < g.targets)
    order = rng.permutation(forward.size)
    marked: set[int] = set()
    chosen = 0
    for i in order:
        if chosen == k:
            break
        arc = forward[i]
        u, v = int(sources[arc]), int(g.targets[arc])
        if u in marked or v in marked:
            continue
        if any(w in marked for w in g.neighbors(u).tolist() + g.neighbors(v).tolist()):
            continue
        marked.update((u, v))
        chosen += 1
    if chosen != k:
        raise ValueError(f"could not place {k} non-adjacent marked pairs (placed {chosen})")
    return sorted(marked)


def build_marked_from_spec(cfg: ExperimentConfig, g: Graph) -> list[int]:
    kind, payload = cfg.marked
    if kind == "vertices":
        return sorted({int(v) for v in payload})
    if kind == "block":
        if cfg.graph.get("family") != "torus2d":
            raise ValueError("marked.block requires the torus2d graph family")
        rows, cols = cfg.graph["rows"], cfg.graph["cols"]
        if payload["rows"] > rows or payload["cols"] > cols:
            # It would wrap around the torus onto itself.
            raise ValueError(
                f"marked.block of {payload['rows']}x{payload['cols']} does not fit the {rows}x{cols} torus"
            )
        verts = {
            ((payload["row_offset"] + i) % rows) * cols + ((payload["col_offset"] + j) % cols)
            for i in range(payload["rows"])
            for j in range(payload["cols"])
        }
        return sorted(verts)
    return select_disjoint_pairs(g, payload["k"], payload["seed"])


@dataclass(frozen=True)
class ExperimentOutcome:
    exit_code: int
    report: dict | None
    csv_path: Path | None
    json_path: Path | None
    message: str


def _component_entry(comp, assignment, exists: bool, bound: float) -> dict:
    return {
        "vertices": list(comp.vertices),
        "internal_edges": [list(e) for e in comp.internal_edges],
        "internal_degrees": [[v, comp.internal_degree[v]] for v in comp.vertices],
        "outgoing_degrees": [[v, comp.outgoing_degree[v]] for v in comp.vertices],
        "total_outgoing": comp.total_outgoing,
        "bipartition": [list(s) for s in comp.bipartition] if comp.bipartition else None,
        "exists_stationary": exists,
        "coefficients": [[i, j, c] for (i, j), c in assignment.coefficients.items()],
        "sum_sq_directed": assignment.sum_sq_directed,
        "bound": bound,
    }


def run_experiment(cfg: ExperimentConfig, out_dir) -> ExperimentOutcome:
    """Run one configured experiment, writing its CSV and JSON artifacts.

    Raises ValueError for input problems, InfeasibleComponentError when a
    stationary assignment is requested for a component that has none, and
    NormDriftError when the walk leaves the unit sphere; :func:`execute`
    maps those to exit statuses.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    g = build_graph_from_spec(cfg)
    marked = build_marked_from_spec(cfg, g)
    if g.arc_count == 0:
        raise ValueError("graph has no arcs; nothing to simulate")
    comps = marked_components(g, marked)
    existence = [exists_stationary(c) for c in comps]

    if cfg.assignment_file is None:
        assignments = [solve_min_norm(c) for c in comps]
        source, file_scale = "min_norm", None
    else:
        coeffs, file_scale = read_assignment_file(_resolve(cfg.base_dir, cfg.assignment_file))
        assignments = assignments_from_coefficients(comps, coeffs)
        source = "injected"

    state = build_state(g, assignments)
    scale = normalization_scale(g, assignments)
    if file_scale is not None and not math.isclose(file_scale, scale, rel_tol=CONSTRAINT_TOL):
        raise ValueError(
            f"{cfg.assignment_file}: scale a {file_scale!r} does not match the normalization scale {scale!r}"
        )
    check = verify_stationary(g, marked, state)
    stationary_p = marked_probability(state, marked)
    del state  # a state-sized array the walk below does not need
    report_bounds = bounds_mod.total_bound(assignments)

    t_max = cfg.t_max if cfg.t_max is not None else bounds_mod.default_step_budget(g)
    series = np.empty(t_max + 1)  # the marked probability after step t
    evolve(initial_state(g), marked, t_max, observer=series.__setitem__)
    best_t = int(series.argmax())  # the first step of the largest value
    best_p = float(series[best_t])

    dominance = best_p <= report_bounds.total_bound + DOMINANCE_SLACK
    checks_passed = dominance and check.is_stationary

    report = {
        "config": cfg.name,
        "graph": {
            "n": g.n,
            "m": g.edge_count,
            "arc_count": g.arc_count,
            "source": cfg.graph.get("family", "edge_list"),
        },
        "marked": list(marked),
        "t_max": t_max,
        "assignment_source": source,
        "scale": scale,
        "components": [
            _component_entry(c, a, e, b)
            for c, a, e, b in zip(comps, assignments, existence, report_bounds.per_component)
        ],
        "stationarity": {
            **asdict(check),
            "failed_conditions": list(check.failed_conditions),
            "stationary_probability": stationary_p,
        },
        "bound_total": report_bounds.total_bound,
        "p_initial": float(series[0]),
        "observed_max_p": best_p,
        "observed_argmax_t": best_t,
        "margin": report_bounds.total_bound - best_p,
        "dominance": dominance,
        "checks_passed": checks_passed,
    }

    csv_path = out_dir / cfg.csv_name
    json_path = out_dir / cfg.report_name
    with csv_path.open("w") as csv_file:
        csv_file.write("t,p_marked\n")
        for t, p in enumerate(series.tolist()):
            csv_file.write(f"{t},{p:.17g}\n")
    json_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    if checks_passed:
        msg = "ok"
    elif not dominance:
        msg = "dominance failed"
    elif check.failed_conditions:
        msg = "stationarity failed: " + "; ".join(check.failed_conditions)
    else:
        msg = "stationarity residual too large"
    code = EXIT_OK if checks_passed else EXIT_CHECK_FAILED
    return ExperimentOutcome(code, report, csv_path, json_path, msg)


def execute(config_path, out_dir, *, t_max=None, seed=None, assignment=None) -> ExperimentOutcome:
    """Load, override, and run one config, mapping errors to exit statuses.

    A walk that leaves the unit sphere (NormDriftError) is a failed check,
    exit 3, and a graph too large to allocate (MemoryError) an input error,
    exit 1, both with no artifacts written.
    """
    try:
        cfg = load_config(config_path)
        cfg = apply_overrides(cfg, t_max=t_max, seed=seed, assignment=assignment)
        return run_experiment(cfg, out_dir)
    except InfeasibleComponentError as err:
        return ExperimentOutcome(EXIT_INFEASIBLE, None, None, None, str(err))
    except (ValueError, OSError) as err:
        return ExperimentOutcome(EXIT_INPUT_ERROR, None, None, None, str(err))
    except MemoryError as err:
        return ExperimentOutcome(EXIT_INPUT_ERROR, None, None, None, f"out of memory: {err}")
    except NormDriftError as err:
        return ExperimentOutcome(EXIT_CHECK_FAILED, None, None, None, str(err))


def apply_overrides(cfg: ExperimentConfig, *, t_max=None, seed=None, assignment=None) -> ExperimentConfig:
    if t_max is not None:
        cfg = replace(cfg, t_max=_as_t_max(t_max, "t_max"))
    if seed is not None:
        seed = _as_int(seed, "seed")
        if cfg.graph.get("family") == "random_regular":
            cfg = replace(cfg, graph=cfg.graph | {"seed": seed})
        kind, payload = cfg.marked
        if kind == "pairs":
            cfg = replace(cfg, marked=(kind, payload | {"seed": seed}))
    if assignment is not None:
        # Unlike the config's own assignment.file, not relative to the config.
        cfg = replace(cfg, assignment_file=str(Path(_as_name(assignment, "assignment")).absolute()))
    return cfg


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _worker_count(n_jobs: int) -> int:
    env = os.environ.get("QWALK_THREADS")
    if env is not None:
        cap = _parse_int(env, "QWALK_THREADS")
        if cap < 1:
            raise ValueError(f"QWALK_THREADS must be positive, got {env!r}")
    else:
        # The CPUs this process may run on, as under taskset, not every CPU of the host.
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        cap = min(4, cpus)
    return max(1, min(cap, n_jobs))


def sweep(config_paths: Sequence, out_dir, *, t_max=None, seed=None) -> tuple[list[dict], int]:
    """Run several configs (possibly concurrently) and summarize them.

    Returns one summary row per config, in input order, plus the overall
    exit status (0 only if every run passed).  QWALK_THREADS caps the
    worker count.
    """
    paths = [Path(p) for p in config_paths]
    if not paths:
        return [], EXIT_OK
    out_dir = Path(out_dir)
    # Each config writes to out_dir/<stem>/, so only the first config with a
    # given stem runs; a later one would overwrite its artifacts.
    first_with_stem: dict[str, int] = {}
    for i, path in enumerate(paths):
        first_with_stem.setdefault(path.stem, i)

    def one(i: int) -> ExperimentOutcome:
        path = paths[i]
        first = first_with_stem[path.stem]
        if first != i:
            return ExperimentOutcome(
                EXIT_INPUT_ERROR, None, None, None,
                f"output directory {out_dir / path.stem} is already used by {paths[first]}",
            )
        return execute(path, out_dir / path.stem, t_max=t_max, seed=seed)

    with ThreadPoolExecutor(max_workers=_worker_count(len(paths))) as pool:
        outcomes = list(pool.map(one, range(len(paths))))

    rows = []
    worst = EXIT_OK
    for path, outcome in zip(paths, outcomes):
        worst = max(worst, outcome.exit_code)
        if outcome.report is None:
            rows.append({
                "config": path.name,
                "status": f"error({outcome.exit_code}): {outcome.message}",
            })
        else:
            r = outcome.report
            rows.append({
                "config": path.name,
                "n": r["graph"]["n"],
                "m": r["graph"]["m"],
                "marked": len(r["marked"]),
                "bound": r["bound_total"],
                "observed_max": r["observed_max_p"],
                "margin": r["margin"],
                "status": "ok" if outcome.exit_code == EXIT_OK else outcome.message,
            })
    return rows, worst


def format_sweep_table(rows: list[dict]) -> str:
    header = f"{'config':<32} {'n':>6} {'m':>7} {'|M|':>4} {'bound':>12} {'observed':>12} {'margin':>12} status"
    lines = [header]
    for row in rows:
        if "n" not in row:
            lines.append(f"{row['config']:<32} {'-':>6} {'-':>7} {'-':>4} {'-':>12} {'-':>12} {'-':>12} {row['status']}")
            continue
        lines.append(
            f"{row['config']:<32} {row['n']:>6} {row['m']:>7} {row['marked']:>4} "
            f"{row['bound']:>12.6g} {row['observed_max']:>12.6g} {row['margin']:>12.6g} {row['status']}"
        )
    return "\n".join(lines)


def _object_schema(**fields) -> dict:
    """A JSON object schema that requires every field and allows no other."""
    return {"type": "object", "additionalProperties": False, "required": list(fields), "properties": fields}


# JSON schema for the run report (kept in sync with run_experiment).
REPORT_SCHEMA = _object_schema(
    config={"type": "string"},
    graph=_object_schema(
        n={"type": "integer", "minimum": 0},
        m={"type": "integer", "minimum": 0},
        arc_count={"type": "integer", "minimum": 0},
        source={"type": "string"},
    ),
    marked={"type": "array", "items": {"type": "integer"}},
    t_max={"type": "integer", "minimum": 0},
    assignment_source={"enum": ["min_norm", "injected"]},
    scale={"type": "number"},
    components={"type": "array", "items": _object_schema(
        vertices={"type": "array", "items": {"type": "integer"}},
        internal_edges={"type": "array"},
        internal_degrees={"type": "array"},
        outgoing_degrees={"type": "array"},
        total_outgoing={"type": "integer"},
        bipartition={"type": ["array", "null"]},
        exists_stationary={"type": "boolean"},
        coefficients={"type": "array"},
        sum_sq_directed={"type": "number"},
        bound={"type": "number"},
    )},
    stationarity=_object_schema(
        **{measure.name: {"type": "number"} for measure in fields(StationarityCheck)},
        failed_conditions={"type": "array", "items": {"type": "string"}},
        stationary_probability={"type": "number"},
    ),
    bound_total={"type": "number"},
    p_initial={"type": "number"},
    observed_max_p={"type": "number"},
    observed_argmax_t={"type": "integer"},
    margin={"type": "number"},
    dominance={"type": "boolean"},
    checks_passed={"type": "boolean"},
)
