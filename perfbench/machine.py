"""Machine description recorded with every benchmark run.

``limit_blas_threads`` must run before numpy is imported: OpenBLAS reads
its thread count from the environment once, at load time.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> None:
    """Cap every BLAS thread variable at the number of usable CPUs; a
    value the caller already set is kept when it is lower."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 1 <= int(current) <= cap):
            os.environ[var] = str(cap)


def _loaded_blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None when the
    library or its query function cannot be found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe() -> dict:
    """CPU, interpreter, numpy and BLAS facts for the current process."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads": _loaded_blas_threads(),
    }
