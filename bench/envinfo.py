"""Environment capture and thread pinning.

Results are comparable only between runs made under an identical
environment: the same CPU, cache sizes, Python, numpy and BLAS build, and
the same pinned thread settings.  Byte-identical outputs are likewise
promised only there -- the minimum-norm lstsq coefficients, for one,
differ in their last bits between one and two BLAS threads.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "QWALK_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pinned_threads() -> dict:
    """BLAS at one thread; sweep workers (QWALK_THREADS) at one per core."""
    return {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "QWALK_THREADS": str(nproc())}


def _cpuinfo() -> dict:
    fields = {}
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return fields
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields.setdefault(key.strip(), value.strip())
    return fields


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def _mem_total_kb() -> int | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def capture() -> dict:
    """Everything a result depends on besides the code.  Imports numpy,
    so call it only after the thread variables are pinned."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu = _cpuinfo()
    return {
        "nproc": nproc(),
        "cpu_model": cpu.get("model name", platform.processor()),
        "cpu_flags_sha256": hashlib.sha256(cpu.get("flags", "").encode()).hexdigest()[:16],
        "caches": _caches(),
        "mem_total_kb": _mem_total_kb(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "simd": config.get("SIMD Extensions", {}).get("found"),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def fingerprint(env: dict) -> dict:
    """The part of the environment that output bytes depend on."""
    keys = ("cpu_model", "cpu_flags_sha256", "python", "numpy", "blas", "simd")
    return {k: env[k] for k in keys} | {"threads": {k: env["threads"][k] for k in THREAD_VARS[:3]}}


def size_bytes(text: str | None) -> int | None:
    """'307200K' -> bytes."""
    if not text:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
