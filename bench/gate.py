"""Per-operation correctness gate.

One operation is one config.  A config with expected exit status 0 passes
when its exit status is 0, its JSON report validates against
``experiments.REPORT_SCHEMA``, dominance holds, the stationarity residual
is within ``RESIDUAL_LIMIT``, its CSV agrees with the report, and -- when a
reference exists for this workload, seed and environment -- the CSV and
JSON bytes match the recorded SHA-256 digests.  A config expected to be
infeasible passes when it exits 2 and writes no artifacts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema

from qwsearch.experiments import DOMINANCE_SLACK, REPORT_SCHEMA, RESIDUAL_LIMIT

REFERENCE_PATH = Path(__file__).with_name("reference_digests.json")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def reference_digests(reference: dict, fingerprint: dict, workload: str, seed: int) -> dict | None:
    """Recorded digests for ``workload`` at ``seed``, keyed by phase then
    config stem, or None when there are none or the environment differs:
    byte-identity is only promised under the environment they were
    recorded in."""
    if reference.get("environment") != fingerprint:
        return None
    return reference.get("seeds", {}).get(workload, {}).get(str(seed))


def artifact_problems(csv_path: Path, json_path: Path, t_max: int | None, digests: dict | None) -> list[str]:
    """Everything wrong with one config's CSV and JSON report."""
    if not (csv_path.is_file() and json_path.is_file()):
        return [f"missing artifact {csv_path.name} or {json_path.name}"]
    try:
        report = json.loads(json_path.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
    except (ValueError, jsonschema.ValidationError) as err:
        return [f"{json_path.name}: invalid report: {str(err).splitlines()[0]}"]
    problems = []
    if not (report["dominance"] and report["observed_max_p"] <= report["bound_total"] + DOMINANCE_SLACK):
        problems.append(f"{json_path.name}: dominance fails")
    if not (report["stationarity"]["residual"] <= RESIDUAL_LIMIT and report["checks_passed"]):
        problems.append(f"{json_path.name}: stationarity residual or checks fail")
    if t_max is not None and report["t_max"] != t_max:
        problems.append(f"{json_path.name}: t_max {report['t_max']} != {t_max}")
    lines = csv_path.read_text().splitlines()
    try:
        probabilities = [float(line.split(",")[1]) for line in lines[1:]]
    except (IndexError, ValueError):
        probabilities = []
    if lines[:1] != ["t,p_marked"] or len(probabilities) != report["t_max"] + 1:
        problems.append(f"{csv_path.name}: expected a header and {report['t_max'] + 1} rows")
    elif max(probabilities) != report["observed_max_p"]:
        problems.append(f"{csv_path.name}: maximum differs from the report's observed_max_p")
    if digests is not None:
        for kind, path in (("csv", csv_path), ("json", json_path)):
            if sha256(path) != digests[kind]:
                problems.append(f"{path.name}: bytes differ from the reference digest")
    return problems


def sweep_statuses(stdout: str, stems) -> dict:
    """Exit status of each config from the sweep summary table."""
    statuses = {}
    for line in stdout.splitlines()[1:]:
        fields = line.split(None, 7)
        if len(fields) == 8 and fields[0].endswith(".json"):
            status = fields[7]
            if status == "ok":
                statuses[fields[0][:-5]] = 0
            elif status.startswith("error(") and status[6:7].isdigit():
                statuses[fields[0][:-5]] = int(status[6])
            else:
                statuses[fields[0][:-5]] = 3
    return {stem: statuses.get(stem) for stem in stems}


class Gate:
    """Counts operations attempted and failed, with the reasons."""

    def __init__(self, expected: dict, digests: dict | None):
        self.expected = expected
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, stem: str, exit_code, csv_path, json_path, phase: str, t_max: int | None) -> bool:
        """Gate one config of one operation; ``phase`` is ``full`` or ``setup``."""
        self.attempted += 1
        want = self.expected[stem]
        csv_path, json_path = Path(csv_path), Path(json_path)
        if exit_code != want:
            problems = [f"{stem}: exit status {exit_code}, expected {want}"]
        elif want != 0:
            problems = [f"{stem}: wrote artifacts despite exit {want}"] if json_path.exists() else []
        else:
            digests = self.digests.get(phase, {}).get(stem) if self.digests else None
            problems = artifact_problems(csv_path, json_path, t_max, digests)
        if problems:
            self.failed += 1
            self.problems.extend(f"[{phase}] {p}" for p in problems)
        return not problems

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
