#!/usr/bin/env python3
"""The qwsearch benchmark: one workload per invocation.

    python3 bench/run.py --workload {block128,pair512,sweep_mixed} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload's inputs are generated from
the seed into a scratch directory inside the checkout; the program sees
only those files.  BLAS is pinned to one thread and sweep workers
(QWALK_THREADS) to one per core, for this process and every child.

``--trace 0`` measures end to end: the public CLI (``qwsearch.cli.main``)
runs in a fresh process per operation, alternating the full command with
the same command at ``--t-max 0`` (the set-up), until ``--seconds`` are
spent; medians are reported.  ``--trace 1`` reports per-layer figures
from a traced child process (see traced.py) next to one untraced CLI run.

Every operation is gated for correctness (see gate.py).  Metric names and
units come from BENCHMARK.json.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; a fuller
record goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import envinfo

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
CLI = "import sys; from qwsearch.cli import main; sys.exit(main())"
OP_TIMEOUT_S = 150
MIN_ROUNDS = 3
STARTUP_REPS = 5
PERCENTILES = (50, 90, 95, 99, 99.9)

BANDWIDTH_NOTE = (
    "walk.bytes_per_step_computed is a byte count computed from array sizes, not a measured "
    "bandwidth: the largest state here ({state_mb:.1f} MB) fits in this host's last-level cache "
    "({llc_mb:.0f} MB), and an array four times that cache would need {need_gb:.1f} GB against "
    "{ram_gb:.1f} GB of RAM, so no bandwidth run is possible on this host."
)


@dataclass
class Op:
    """One child process: wall and CPU seconds, peak RSS, exit status, stdout."""

    wall: float
    cpu: float
    rss_mb: float
    exit: int | None
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(envinfo.pinned_threads())
    return env


def run_child(argv, work: Path) -> Op:
    """Run ``argv`` to completion; a child past OP_TIMEOUT_S is killed."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=out, stderr=err, cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if proc.returncode >= 0 else None
    return Op(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code,
              out_path.read_text(), err_path.read_text())


def cli_argv(wl, out_dir: Path, setup: bool) -> list[str]:
    argv = [sys.executable, "-c", CLI, wl.command, *map(str, wl.configs), "--out-dir", str(out_dir)]
    return argv + ["--t-max", "0"] if setup else argv


def artifacts(wl, out_dir: Path, stem: str) -> tuple[Path, Path]:
    base = out_dir / stem if wl.command == "sweep" else out_dir
    return base / f"{stem}.csv", base / f"{stem}.json"


def config_t_max(wl) -> dict:
    return {p.stem: json.loads(p.read_text()).get("t_max") for p in wl.configs}


def cli_op(wl, work: Path, gate, setup: bool) -> tuple[Op, int]:
    """One CLI operation, gated config by config.  Returns the operation
    and the arc updates it performed, sum(arc_count * t_max)."""
    out_dir = work / "out"
    op = run_child(cli_argv(wl, out_dir, setup), work)
    stems = [p.stem for p in wl.configs]
    if op.exit != wl.cli_exit:
        gate.problems.append(f"{wl.command} exited {op.exit}, expected {wl.cli_exit}: {op.stderr[-300:]}")
        statuses = {stem: op.exit for stem in stems}
    elif wl.command == "sweep":
        from gate import sweep_statuses

        statuses = sweep_statuses(op.stdout, stems)
    else:
        statuses = {stems[0]: op.exit}
    t_max = config_t_max(wl)
    updates = 0
    for stem in stems:
        csv_path, json_path = artifacts(wl, out_dir, stem)
        gate.check(stem, statuses[stem], csv_path, json_path, "setup" if setup else "full",
                   0 if setup else t_max[stem])
        if json_path.is_file():
            report = json.loads(json_path.read_text())
            updates += report["graph"]["arc_count"] * report["t_max"]
    shutil.rmtree(out_dir, ignore_errors=True)
    return op, updates


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def describe(samples, unit: str) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    text = f"median {statistics.median(samples):.6g} {unit} over n={len(samples)}"
    tails = [p for p in PERCENTILES if len(samples) * (100 - p) / 100 >= 10]
    if tails:
        return text + f", p{tails[-1]:g} {percentile(samples, tails[-1]):.6g} {unit}"
    return text + " (no percentile has 10 samples beyond it)"


def measure(wl, seconds: float, work: Path, gate) -> tuple[dict, dict]:
    """End-to-end metrics from alternating set-up and full CLI runs."""
    cli_op(wl, work, gate, setup=True)  # warm-up: bytecode and page cache
    setups, fulls, updates = [], [], 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setups.append(cli_op(wl, work, gate, setup=True)[0])
        op, updates = cli_op(wl, work, gate, setup=False)
        fulls.append(op)
        spent, last = time.perf_counter() - start, time.perf_counter() - round_start
        if len(fulls) >= MIN_ROUNDS and spent + last > seconds:
            break
    samples = {
        "wall_s": [o.wall for o in fulls],
        "setup_s": [o.wall for o in setups],
        "cpu_s": [o.cpu for o in fulls],
        "peak_rss_mb": [o.rss_mb for o in fulls],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    # The sweep's peak depends on which configs happen to overlap in the
    # thread pool, so the run's peak is the largest of its operations'.
    metrics["peak_rss_mb"] = max(samples["peak_rss_mb"])
    metrics["arc_updates_per_s"] = updates / (metrics["wall_s"] - metrics["setup_s"])
    return metrics, samples


def bandwidth_note(env: dict, largest_arcs: int) -> str:
    llc = max((envinfo.size_bytes(s) for s in env["caches"].values()), default=0)
    return BANDWIDTH_NOTE.format(state_mb=8 * largest_arcs / 2**20, llc_mb=llc / 2**20,
                                 need_gb=4 * llc / 2**30, ram_gb=(env["mem_total_kb"] or 0) / 2**20)


def trace(wl, work: Path, gate, env: dict) -> tuple[dict, dict, str]:
    """Per-layer metrics from the traced child, plus CLI start-up and one
    untraced CLI run for reference."""
    startup = [run_child([sys.executable, "-c", "import qwsearch.cli"], work).wall
               for _ in range(STARTUP_REPS)]
    untraced, _ = cli_op(wl, work, gate, setup=False)
    result_path = work / "traced.json"
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{wl.name}.json"
    child = run_child([sys.executable, str(BENCH / "traced.py"), "--work", str(work / "traced"),
                       "--out", str(result_path), "--spans", str(spans_path), *map(str, wl.configs)],
                      work)
    if child.exit != 0:
        raise RuntimeError(f"traced child exited with {child.exit}: {child.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    t_max = config_t_max(wl)
    for phase in ("untraced", "traced"):
        for stem, rec in result[phase].items():
            csv_path, json_path = (work / "traced" / phase / stem / f"{stem}{ext}" for ext in (".csv", ".json"))
            gate.check(stem, rec["exit"], csv_path, json_path, "full", t_max[stem])
    metrics = result["metrics"]
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.untraced_wall_s"] = untraced.wall
    workers = min(envinfo.nproc(), len(wl.configs)) if wl.command == "sweep" else 1
    metrics["experiments.sweep_workers"] = workers
    serial = sum(rec["seconds"] for rec in result["untraced"].values())
    metrics["experiments.sweep_parallel_efficiency"] = serial / (
        workers * (untraced.wall - metrics["cli.startup_s"]))
    samples = {"cli.startup_s": startup, "walk.evolve_step_ms": result["step_ms"]}
    return metrics, samples, bandwidth_note(env, result["largest_arcs"])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qwsearch" / "cli.py").is_file():
        print(f"error: no qwsearch sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 1
    os.environ.update(envinfo.pinned_threads())
    sys.path.insert(0, str(SRC))
    import qwsearch

    if not Path(qwsearch.__file__).resolve().is_relative_to(SRC):
        print(f"error: qwsearch imported from {qwsearch.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import gate as gate_mod
    import workloads

    env = envinfo.capture()
    reference = json.loads(gate_mod.REFERENCE_PATH.read_text())
    digests = gate_mod.reference_digests(reference, envinfo.fingerprint(env), args.workload, args.seed)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        wl = workloads.generate(args.workload, args.seed, work / "inputs")
        gate = gate_mod.Gate(wl.expected, digests)
        if args.trace:
            metrics, samples, note = trace(wl, work, gate, env)
        else:
            (metrics, samples), note = measure(wl, args.seconds, work, gate), None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload, "why": why[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "comparable_only_under_identical_environment": True,
        "reference_digests_checked": digests is not None,
        "attempted": gate.attempted, "failed": gate.failed, "fail_ratio": gate.fail_ratio,
        "problems": gate.problems, "metrics": out, "samples": samples, "bandwidth_note": note,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} (seed {args.seed}): {why[args.workload]}")
    print("environment: " + json.dumps({k: env[k] for k in ("nproc", "cpu_model", "caches", "python",
                                                         "numpy", "blas", "threads")}))
    print("results are comparable only under an identical environment; reference digests "
          + ("checked" if digests is not None else "not checked (no reference for this seed and environment)"))
    for name, entry in out.items():
        series = samples.get(name)
        detail = f" ({describe(series, entry['unit'])})" if series else ""
        print(f"{name} = {entry['value']:.6g} {entry['unit']}{detail}")
    if args.trace:
        print(f"tracing overhead {metrics['trace.overhead_s']:.4g} s next to untraced wall_s "
              f"{metrics['trace.untraced_wall_s']:.4g} s; "
              f"step latency {describe(samples['walk.evolve_step_ms'], 'ms')}")
        print(note)
    print(f"fail_ratio = {gate.fail_ratio:g} ({gate.failed} of {gate.attempted} operations failed)")
    for problem in gate.problems:
        print(f"  failed: {problem}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
