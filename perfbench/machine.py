"""Facts about the machine a benchmark run measured on.

Everything here is read-only: /proc and /sys are read, the BLAS library
already loaded by numpy is asked for its thread count, and nothing is set.
Any fact that cannot be read is reported as "unknown".
"""

import ctypes
import glob
import os
import platform
import sys

import numpy as np

UNKNOWN = "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or UNKNOWN


def _cache_sizes() -> dict:
    """Unified/data cache size per level of cpu0, e.g. {"L2": "2048K"}."""
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(index, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(index, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _blas_info() -> dict:
    info = {"name": UNKNOWN, "version": UNKNOWN, "threads": UNKNOWN}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name", UNKNOWN)
        info["version"] = blas.get("version", UNKNOWN)
    except (TypeError, KeyError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, asked through its C API."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return UNKNOWN
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return UNKNOWN


def machine_facts() -> dict:
    caches = _cache_sizes()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2", UNKNOWN),
        "l3": caches.get("L3", UNKNOWN),
        "blas": _blas_info(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
