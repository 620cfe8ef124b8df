"""Seeded inputs for the benchmark workloads.

Every workload is written from its seed into a fresh directory: the
experiment configs, and for ``sweep_mixed`` also the irregular edge-list
graph and the injected assignment file.  The program under test receives
only these files, so the same seed always gives the same inputs.  Why each
workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EXIT_OK = 0
EXIT_INFEASIBLE = 2


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload.

    ``command`` is the CLI subcommand (``run`` or ``sweep``); ``expected``
    maps each config stem to the exit status that config must produce.
    """

    name: str
    command: str
    configs: tuple[Path, ...]
    expected: dict

    @property
    def cli_exit(self) -> int:
        """Exit status of the whole command: the worst of its configs."""
        return max(self.expected.values())


def _write_config(dest: Path, stem: str, doc: dict) -> Path:
    path = dest / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _block(rows: int, cols: int, rng: random.Random, grid: int) -> dict:
    return {"rows": rows, "cols": cols,
            "row_offset": rng.randrange(grid), "col_offset": rng.randrange(grid)}


def block_vertices(grid: int, block: dict) -> list[int]:
    """Row-major ids of a torus block, as the config's block pattern marks them."""
    return sorted(
        ((block["row_offset"] + i) % grid) * grid + (block["col_offset"] + j) % grid
        for i in range(block["rows"])
        for j in range(block["cols"])
    )


def block_assignment(grid: int, block: dict, rng: random.Random) -> dict:
    """A valid, seeded, non-minimal assignment for a torus block.

    The minimum-norm coefficients (solved here independently of the
    program) plus seeded circulations around unit squares of the block:
    alternating +d/-d around a 4-cycle keeps every vertex sum, so every
    stationarity constraint still holds.
    """
    verts = block_vertices(grid, block)
    inside = set(verts)

    def neighbours(v):
        r, c = divmod(v, grid)
        return {((r + dr) % grid) * grid + (c + dc) % grid
                for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0))}

    edges = sorted({(min(v, w), max(v, w)) for v in verts for w in neighbours(v) if w in inside})
    row = {v: i for i, v in enumerate(verts)}
    incidence = np.zeros((len(verts), len(edges)))
    for j, (u, w) in enumerate(edges):
        incidence[row[u], j] = incidence[row[w], j] = 1.0
    targets = -np.array([4.0 - sum(w in inside for w in neighbours(v)) for v in verts])
    coeffs = dict(zip(edges, np.linalg.lstsq(incidence, targets, rcond=None)[0].tolist()))

    def vid(i, j):
        return ((block["row_offset"] + i) % grid) * grid + (block["col_offset"] + j) % grid

    for _ in range(16):
        i, j = rng.randrange(block["rows"] - 1), rng.randrange(block["cols"] - 1)
        delta = rng.choice((-0.25, -0.125, 0.125, 0.25))
        square = (vid(i, j), vid(i, j + 1), vid(i + 1, j + 1), vid(i + 1, j))
        for k in range(4):
            a, b = square[k], square[(k + 1) % 4]
            coeffs[(min(a, b), max(a, b))] += delta if k % 2 == 0 else -delta
    return coeffs


def irregular_edge_list(n: int, rng: random.Random) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    """A seeded irregular graph with isolated vertices, and a marked pair.

    About 5% of the vertices stay isolated; every other vertex draws 1 to
    3 random partners, so degrees spread widely.  The marked pair is an
    edge whose endpoints have equal degree, which makes its component
    feasible (both bipartite sides have the same outgoing degree).
    """
    isolated = set(rng.sample(range(n), n // 20))
    active = [v for v in range(n) if v not in isolated]
    edges: set[tuple[int, int]] = set()
    for v in active:
        for _ in range(rng.randint(1, 3)):
            w = rng.choice(active)
            if w != v:
                edges.add((min(v, w), max(v, w)))
    ordered = sorted(edges)
    degree = [0] * n
    for u, v in ordered:
        degree[u] += 1
        degree[v] += 1
    candidates = [(u, v) for u, v in ordered if degree[u] == degree[v] >= 3]
    return ordered, rng.choice(candidates)


def _block128(dest: Path, rng: random.Random) -> Workload:
    cfg = _write_config(dest, "block128", {
        "graph": {"family": "torus2d", "rows": 128, "cols": 128},
        "marked": {"block": _block(2, 2, rng, 128)},
    })
    return Workload("block128", "run", (cfg,), {"block128": EXIT_OK})


def _pair512(dest: Path, rng: random.Random) -> Workload:
    cfg = _write_config(dest, "pair512", {
        "graph": {"family": "torus2d", "rows": 512, "cols": 512},
        "marked": {"pairs": {"k": 1, "seed": rng.randrange(2**31)}},
        "t_max": 400,
    })
    return Workload("pair512", "run", (cfg,), {"pair512": EXIT_OK})


def _sweep_mixed(dest: Path, rng: random.Random) -> Workload:
    torus96 = {"family": "torus2d", "rows": 96, "cols": 96}
    torus256 = {"family": "torus2d", "rows": 256, "cols": 256}
    block32 = _block(32, 32, rng, 96)

    edges, pair = irregular_edge_list(30_000, rng)
    (dest / "irregular.txt").write_text(
        f"30000 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    coeffs = block_assignment(96, block32, rng)
    # Normalization scale a = 1/sqrt(2m - 2E + S), S the directed sum of squares.
    scale = (4 * 96 * 96 - 2 * len(coeffs) + 2 * sum(c * c for c in coeffs.values())) ** -0.5
    (dest / "block32_assignment.txt").write_text(
        "".join(f"{i} {j} {c:.17e}\n" for (i, j), c in sorted(coeffs.items())) + f"a {scale:.17e}\n")

    docs = {
        "rr40k_pairs": {
            "graph": {"family": "random_regular", "n": 40_000, "d": 3, "seed": rng.randrange(2**31)},
            "marked": {"pairs": {"k": 8, "seed": rng.randrange(2**31)}},
            "t_max": 400,
        },
        "complete400_triangle": {
            "graph": {"family": "complete", "n": 400},
            "marked": {"vertices": sorted(rng.sample(range(400), 3))},
            "t_max": 400,
        },
        "torus96_block32": {"graph": torus96, "marked": {"block": block32}, "t_max": 300},
        "torus96_block32_injected": {
            "graph": torus96, "marked": {"block": block32}, "t_max": 300,
            "assignment": {"file": "block32_assignment.txt"},
        },
        "torus256_block": {"graph": torus256, "marked": {"block": _block(2, 2, rng, 256)}, "t_max": 300},
        "torus256_pairs": {
            "graph": torus256, "marked": {"pairs": {"k": 4, "seed": rng.randrange(2**31)}}, "t_max": 300,
        },
        "irregular_pair": {"graph": {"edge_list": "irregular.txt"}, "marked": {"vertices": list(pair)},
                           "t_max": 400},
        "torus64_block1x3": {
            "graph": {"family": "torus2d", "rows": 64, "cols": 64},
            "marked": {"block": _block(1, 3, rng, 64)}, "t_max": 100,
        },
    }
    configs = tuple(_write_config(dest, stem, doc) for stem, doc in docs.items())
    expected = {stem: EXIT_OK for stem in docs}
    expected["torus64_block1x3"] = EXIT_INFEASIBLE
    return Workload("sweep_mixed", "sweep", configs, expected)


_BUILDERS = {"block128": _block128, "pair512": _pair512, "sweep_mixed": _sweep_mixed}
NAMES = tuple(_BUILDERS)


def generate(name: str, seed: int, dest) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``dest``."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](dest, random.Random(f"{name}:{seed}"))
