"""Command-line interface.

Subcommands::

    qwsearch run   <config.json> [--t-max N] [--seed S] [--out-dir DIR] [--assignment FILE]
    qwsearch sweep <dir-or-configs...> [--t-max N] [--seed S] [--out-dir DIR]
    qwsearch solve <graph.txt> <marked>            # prints the assignment
    qwsearch verify <graph.txt> <marked> <snapshot.txt>   # prints residuals

``<marked>`` is a comma-separated vertex list with no empty entries,
e.g. "3,4"; a list starting with "-" is still the list.  --t-max is at
most 10^6.  --assignment FILE is read from the working directory.
QWALK_THREADS caps sweep workers, and a sweep given no *.json config
exits 1.  Exit statuses: 0 ok, 1 input error (a graph too large to
allocate, a vertex count above the int64 maximum and a --t-max above
10^6 included), 2 infeasible stationary request (no stationary state, or
a zero one), 3 dominance/stationarity check failed or the walk's norm
drifted.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import asdict
from pathlib import Path

from . import experiments
from .graphs import _parse_int, marked_components, read_edge_list
from .stationary import (
    InfeasibleComponentError,
    format_assignment,
    merged_coefficients,
    normalization_scale,
    solve_min_norm,
    verify_stationary,
)
from .walk import read_state_snapshot


def _parse_marked(text: str) -> list[int]:
    if not text.strip():
        raise ValueError(f"empty marked vertex list: {text!r}")
    items = [part.strip() for part in text.split(",")]
    if "" in items:
        raise ValueError(f"marked list {text!r} has an empty vertex")
    return sorted({_parse_int(v, f"marked list {text!r}") for v in items})


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A marked list such as "-3,4" is a value, as argparse already takes
        # "-3" to be, not an unknown option: so a bad vertex is named.
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message):
        # One line, like every other input error: no usage block before it.
        self.exit(experiments.EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qwsearch", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment config")
    run.add_argument("config")
    run.add_argument("--t-max", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out-dir", default="qwsearch-out")
    run.add_argument("--assignment", default=None, help="assignment file overriding the config")

    swp = sub.add_parser("sweep", help="run several configs and summarize")
    swp.add_argument("paths", nargs="+", help="config files and/or directories of *.json")
    swp.add_argument("--t-max", type=int, default=None)
    swp.add_argument("--seed", type=int, default=None)
    swp.add_argument("--out-dir", default="qwsearch-out")

    solve = sub.add_parser("solve", help="print the minimum-norm assignment")
    solve.add_argument("graph", help="edge-list file")
    solve.add_argument("marked", help="comma-separated vertex list")
    solve.add_argument("--out", default=None, help="write the assignment to a file instead")

    verify = sub.add_parser("verify", help="check a state snapshot for stationarity")
    verify.add_argument("graph", help="edge-list file")
    verify.add_argument("marked", help="comma-separated vertex list")
    verify.add_argument("snapshot", help="state snapshot file")

    return parser


def _cmd_run(args) -> int:
    outcome = experiments.execute(
        args.config, args.out_dir, t_max=args.t_max, seed=args.seed, assignment=args.assignment
    )
    if outcome.report is None:
        print(f"error: {outcome.message}", file=sys.stderr)
        return outcome.exit_code
    r = outcome.report
    print(
        f"{r['config']}: n={r['graph']['n']} m={r['graph']['m']} |M|={len(r['marked'])} "
        f"bound={r['bound_total']:.6g} observed_max={r['observed_max_p']:.6g} "
        f"margin={r['margin']:.6g} residual={r['stationarity']['residual']:.3e} "
        f"status={outcome.message}"
    )
    print(f"wrote {outcome.csv_path} and {outcome.json_path}")
    return outcome.exit_code


def _expand_sweep_paths(paths) -> list[Path]:
    configs: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            configs.extend(sorted(path.glob("*.json")))
        else:
            configs.append(path)
    return configs


def _cmd_sweep(args) -> int:
    configs = _expand_sweep_paths(args.paths)
    if not configs:
        raise ValueError(f"no *.json configs in {', '.join(args.paths)}")
    rows, code = experiments.sweep(configs, args.out_dir, t_max=args.t_max, seed=args.seed)
    print(experiments.format_sweep_table(rows))
    return code


def _cmd_solve(args) -> int:
    g = read_edge_list(args.graph)
    comps = marked_components(g, _parse_marked(args.marked))
    assignments = [solve_min_norm(c) for c in comps]
    coefficients = merged_coefficients(assignments)
    scale = normalization_scale(g, assignments)
    if args.out:
        Path(args.out).write_text(format_assignment(coefficients, scale))
        print(f"wrote {args.out}")
    else:
        print(format_assignment(coefficients, scale), end="")
    return 0


def _cmd_verify(args) -> int:
    g = read_edge_list(args.graph)
    marked = _parse_marked(args.marked)
    state = read_state_snapshot(g, args.snapshot)
    check = verify_stationary(g, marked, state)
    for name, value in asdict(check).items():
        print(f"{name} {value:.17e}")
    for failure in check.failed_conditions:
        print(f"failed: {failure}")
    return experiments.EXIT_OK if check.is_stationary else experiments.EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; _Parser.error has printed its one line and exits 1.
        return 0 if exc.code in (0, None) else experiments.EXIT_INPUT_ERROR
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "solve": _cmd_solve, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except InfeasibleComponentError as err:
        print(f"error: {err}", file=sys.stderr)
        return experiments.EXIT_INFEASIBLE
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return experiments.EXIT_INPUT_ERROR
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return experiments.EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
