#!/usr/bin/env python3
"""Record the reference digests the correctness gate compares against.

    python3 bench/record_digests.py [--seeds 0-9]

Runs every workload's CLI command once in full and once at ``--t-max 0``
for each seed, refuses to record outputs that fail the other gate checks,
and writes the SHA-256 of every CSV and JSON artifact, together with the
environment fingerprint, to bench/reference_digests.json.  Re-record only
when a change to the program is meant to change its outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import envinfo
import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    args = parser.parse_args(argv)
    os.environ.update(envinfo.pinned_threads())
    sys.path.insert(0, str(run.SRC))
    import gate as gate_mod
    import workloads

    env = envinfo.capture()
    table: dict = {}
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    for name in workloads.NAMES:
        for seed in args.seeds:
            work = tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.ROOT / ".bench_work")
            try:
                wl = workloads.generate(name, seed, f"{work}/inputs")
                gate = gate_mod.Gate(wl.expected, None)
                entry = {}
                for phase in ("full", "setup"):
                    out_dir = Path(work) / "out"
                    op = run.run_child(run.cli_argv(wl, out_dir, phase == "setup"), Path(work))
                    digests = {}
                    for stem, want in wl.expected.items():
                        csv_path, json_path = run.artifacts(wl, out_dir, stem)
                        if want == 0 and gate.check(stem, 0 if op.exit == wl.cli_exit else op.exit, csv_path,
                                                    json_path, phase, 0 if phase == "setup" else None):
                            digests[stem] = {"csv": gate_mod.sha256(csv_path), "json": gate_mod.sha256(json_path)}
                    shutil.rmtree(out_dir)
                    entry[phase] = digests
                if gate.failed:
                    print(f"{name} seed {seed}: not recorded: {gate.problems}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = entry
                print(f"{name} seed {seed}: {len(entry['full'])} configs recorded", flush=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    gate_mod.REFERENCE_PATH.write_text(json.dumps(
        {"environment": envinfo.fingerprint(env), "seeds": table}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
