"""The machine a run measured on, printed with every result."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        if entry.startswith("index") and kind != "Instruction":
            sizes[f"L{level}"] = _read(f"{base}/{entry}/size")
    return sizes


def _blas() -> tuple[str, int | None]:
    """BLAS library numpy links and its thread count, if it can be asked."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    for line in _read("/proc/self/maps").splitlines():
        path = line.split()[-1]
        if "openblas" in os.path.basename(path) and ".so" in path:
            library = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(library, symbol):
                    getter = getattr(library, symbol)
                    getter.restype = ctypes.c_int
                    return name, getter()
    return name, None


def record() -> dict:
    blas, threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
    }
