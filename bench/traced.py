"""Traced run: per-layer timings recorded from outside the program.

The traced run executes each config through the public
``experiments.execute`` with every stage function that ``run_experiment``
calls wrapped in a span recorder at the module boundary.  Spans (name,
start, end, parent, config id, counts) stay in memory and are written when
the run ends; self times are derived from them.  Nothing inside the
program is changed.

Run as a script, it is the child process of ``run.py --trace 1``::

    python3 bench/traced.py --out result.json --spans spans.json --work DIR config.json...
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from qwsearch import bounds, experiments, stationary, walk

# (module, attribute, counts taken from the call's arguments and result)
# for each stage function reached from experiments.execute; the result is
# None when the call raised.  Spans are named "<module>.<function>".
# bounds' functions are reached through experiments.bounds_mod.
STAGES = (
    (experiments, "load_config", None),
    (experiments, "run_experiment", None),
    (experiments, "build_graph_from_spec", lambda args, out: {"arcs": out.arc_count if out else 0}),
    (experiments, "build_marked_from_spec", None),
    (experiments, "marked_components", None),
    (experiments, "exists_stationary", None),
    (experiments, "solve_min_norm", lambda args, out: {"unknowns": len(args[0].internal_edges)}),
    (experiments, "read_assignment_file", None),
    (experiments, "assignments_from_coefficients", None),
    (experiments, "build_state", None),
    (experiments, "normalization_scale", None),
    (experiments, "verify_stationary", None),
    (experiments, "marked_probability", None),
    (bounds, "total_bound", None),
    (bounds, "default_step_budget", None),
    (experiments, "initial_state", None),
    (experiments, "evolve", None),
)

# Functions run_experiment and execute call that are not stages: their time
# is the caller's self time (config plumbing, report formatting).
NOT_STAGES = frozenset({"apply_overrides", "_resolve", "_component_entry"})

# Per-layer time metrics as sums of span durations.
SPAN_METRICS = {
    "graphs.build_s": ("experiments.build_graph_from_spec",),
    "graphs.marked_components_s": ("graphs.marked_components",),
    "experiments.load_config_s": ("experiments.load_config",),
    "experiments.build_marked_s": ("experiments.build_marked_from_spec",),
    "stationary.solve_s": ("stationary.solve_min_norm",),
    "stationary.make_assignment_s": (
        "stationary.read_assignment_file", "stationary.assignments_from_coefficients",
        "stationary.make_assignment",
    ),
    "stationary.build_state_s": ("stationary.build_state", "stationary.normalization_scale"),
    "stationary.verify_s": ("stationary.verify_stationary",),
    "bounds.total_bound_s": ("bounds.total_bound",),
    "bounds.step_budget_s": ("bounds.default_step_budget",),
}

MICRO_OPS = ("apply_query", "apply_coin", "apply_shift", "step", "marked_probability")
MICRO_REPS = 5
MICRO_SECONDS = 0.3


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """In-memory span recorder."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.step_ms: list[float] = []
        self.config: str | None = None
        self.results: dict[str, list] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name, "config": self.config,
                  "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = self.clock()
        try:
            yield record
        except BaseException:
            record["error"] = True
            raise
        finally:
            record["end"] = self.clock()
            self._stack.pop()

    def wrap(self, fn, counts=None):
        name = _span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = None
            with self.span(name) as record:
                try:
                    out = fn(*args, **kwargs)
                finally:
                    if counts is not None:
                        record.update(counts(args, out))
            self.results.setdefault(name, []).append(out)
            return out

        return traced

    def wrap_evolve(self, fn):
        """Span around evolve, with timestamps taken in the observer.

        The caller's observer runs inside evolve; its time is recorded as
        ``observer_s`` so it can be charged to the caller.  A step's latency
        runs from the end of one observer call to the start of the next.
        """

        @functools.wraps(fn)
        def traced(state, marked, t_max, observer=None):
            spent = 0.0
            last = None

            def observe(t, p):
                nonlocal spent, last
                begin = self.clock()
                if last is not None:
                    self.step_ms.append((begin - last) * 1e3)
                observer(t, p)
                last = self.clock()
                spent += last - begin

            with self.span("walk.evolve", steps=int(t_max), arcs=state.graph.arc_count) as record:
                out = fn(state, marked, t_max, observer=observe if observer is not None else None)
            record["observer_s"] = spent
            return out

        return traced

    @contextmanager
    def installed(self):
        """Replace every stage function with its traced wrapper."""
        saved = []
        for module, attr, counts in STAGES:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap_evolve(fn) if attr == "evolve" else self.wrap(fn, counts))
        try:
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, spans: list[dict]) -> float:
    """A span's duration minus the part of it its children cover."""
    intervals = sorted((s["start"], s["end"]) for s in spans if s["parent"] == span["id"])
    covered, reach = 0.0, span["start"]
    for start, end in intervals:
        start, end = max(start, reach), min(end, span["end"])
        if end > start:
            covered += end - start
            reach = end
    return duration(span) - covered


def _named(spans, *names):
    return [s for s in spans if s["name"] in names]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values derived from the recorded spans."""
    spans = tracer.spans
    metrics = {key: sum(duration(s) for s in _named(spans, *names)) for key, names in SPAN_METRICS.items()}
    evolves = _named(spans, "walk.evolve")
    observer_s = sum(s["observer_s"] for s in evolves)
    metrics["graphs.arcs"] = sum(s["arcs"] for s in _named(spans, "experiments.build_graph_from_spec"))
    metrics["stationary.lstsq_unknowns"] = sum(s["unknowns"] for s in _named(spans, "stationary.solve_min_norm"))
    metrics["experiments.self_s"] = observer_s + sum(
        self_time(s, spans) for s in _named(spans, "experiments.run_experiment"))
    metrics["walk.evolve_s"] = sum(duration(s) for s in evolves) - observer_s
    metrics["walk.steps"] = sum(s["steps"] for s in evolves)
    metrics["walk.arc_updates_per_s"] = sum(s["steps"] * s["arcs"] for s in evolves) / metrics["walk.evolve_s"]
    q = statistics.quantiles(tracer.step_ms, n=100, method="inclusive")
    metrics["walk.evolve_step_ms_p50"], metrics["walk.evolve_step_ms_p99"] = q[49], q[98]
    for op in MICRO_OPS:
        metrics[f"walk.{op if op != 'step' else 'step_call'}_ms"] = 1e3 * statistics.median(
            duration(s) for s in _named(spans, f"walk.{op}") if s.get("micro"))
    return metrics


def bytes_per_step(arcs: int, segments: int, marked_arcs: int) -> int:
    """Bytes one evolve step reads and writes, computed from array sizes.

    Counted per numpy call in the step loop, 8-byte elements: reduceat
    reads the state and the segment starts and writes the sums (8A + 16S);
    scaling the sums (24S); the broadcast gather reads the rank index and
    the sums and writes the coined state (24A); the subtract (24A); the
    reverse gather (24A); the norm dot (8A); the query and the marked mass
    on the marked arcs (104K).  Cache hits are ignored, so this is a
    computed byte count, not a measured bandwidth.
    """
    return 88 * arcs + 40 * segments + 104 * marked_arcs


def micro(tracer: Tracer, g, marked) -> None:
    """Time each public walk operator on ``g`` from the uniform state:
    at least MICRO_REPS calls each, more while MICRO_SECONDS last."""
    state = walk.initial_state(g)
    calls = {
        "apply_query": lambda: walk.apply_query(state, marked),
        "apply_coin": lambda: walk.apply_coin(state),
        "apply_shift": lambda: walk.apply_shift(state),
        "step": lambda: walk.step(state, marked),
        "marked_probability": lambda: walk.marked_probability(state, marked),
    }
    for op, call in calls.items():
        deadline = tracer.clock() + MICRO_SECONDS
        done = 0
        while done < MICRO_REPS or (tracer.clock() < deadline and done < 200):
            with tracer.span(f"walk.{op}", micro=True, arcs=g.arc_count):
                call()
            done += 1


def traced_execute(tracer: Tracer, path: Path, out_dir: Path):
    """One config through experiments.execute with every stage traced.

    Stages the pipeline skips for this config (the step budget when t_max
    is given, make_assignment when coefficients were solved) are then
    called directly, so each stage's cost is measured on every workload.
    """
    tracer.config = path.stem
    tracer.results = {}
    with tracer.installed():
        with tracer.span("experiments.execute"):
            outcome = experiments.execute(path, out_dir)
    graphs = tracer.results.get("experiments.build_graph_from_spec", [])
    if graphs and "bounds.default_step_budget" not in tracer.results:
        with tracer.span("bounds.default_step_budget", direct=True):
            bounds.default_step_budget(graphs[0])
    for asg in tracer.results.get("stationary.solve_min_norm", []):
        with tracer.span("stationary.make_assignment", direct=True):
            stationary.make_assignment(asg.component, asg.coefficients)
    marked = tracer.results.get("experiments.build_marked_from_spec", [None])[0]
    tracer.config = None
    return outcome, (graphs[0] if graphs else None), marked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+", type=Path)
    parser.add_argument("--work", type=Path, required=True, help="directory for the artifacts")
    parser.add_argument("--out", type=Path, required=True, help="result JSON")
    parser.add_argument("--spans", type=Path, required=True, help="span JSON, written at the end")
    args = parser.parse_args(argv)

    untraced, traced = {}, {}
    for path in args.configs:  # warm-up without steps, so lazy imports and first calls are not charged
        experiments.execute(path, args.work / "warm" / path.stem, t_max=0)
    for path in args.configs:
        start = time.perf_counter()
        outcome = experiments.execute(path, args.work / "untraced" / path.stem)
        untraced[path.stem] = {"exit": outcome.exit_code, "seconds": time.perf_counter() - start}

    tracer = Tracer()
    largest = None
    for path in args.configs:
        outcome, g, marked = traced_execute(tracer, path, args.work / "traced" / path.stem)
        root = next(s for s in reversed(tracer.spans) if s["name"] == "experiments.execute")
        traced[path.stem] = {"exit": outcome.exit_code, "seconds": duration(root)}
        if g is not None and (largest is None or g.arc_count > largest[0].arc_count):
            largest = (g, marked)
    g, marked = largest
    micro(tracer, g, marked)

    metrics = layer_metrics(tracer)
    marked_arcs = sum(g.degree(v) for v in marked)
    metrics["walk.bytes_per_step_computed"] = bytes_per_step(
        g.arc_count, int((g.degrees > 0).sum()), marked_arcs)
    metrics["trace.overhead_s"] = sum(r["seconds"] for r in traced.values()) - sum(
        r["seconds"] for r in untraced.values())
    result = {"metrics": metrics, "untraced": untraced, "traced": traced, "step_ms": tracer.step_ms,
              "largest_arcs": g.arc_count}
    args.spans.write_text(json.dumps(tracer.spans))
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
