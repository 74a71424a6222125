"""Environment block attached to every benchmark result.

BLAS threads are read, never set: the benchmark runs with the defaults a
user gets, so the cost of threaded reductions such as ``np.vdot`` shows.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> list[dict]:
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        out.append({key: _read(index / key) for key in ("level", "type", "size")})
    return out


def _blas_runtime_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, via its own query function."""
    maps = _read(Path("/proc/self/maps")) or ""
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "runtime_threads": _blas_runtime_threads(),
            "env": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        },
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "NUCSIM_THREADS": os.environ.get("NUCSIM_THREADS"),
    }
