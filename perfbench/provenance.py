"""Where and how a result was measured: versions, CPU, seed and BLAS threads.

BLAS is clamped through the environment (``THREAD_VARS``), which run.py sets
before numpy is imported, so this module imports numpy only when asked for a
record; ``threadpoolctl`` is optional and often absent.
The thread count in effect is read back from the loaded OpenBLAS library, so
the record says what was true, not what was asked for.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GET_THREADS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def openblas_threads() -> int | None:
    """Threads the OpenBLAS loaded into this process will use, or None if unknown."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _GET_THREADS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    threads = openblas_threads()
    warnings = []
    if threads is None:
        warnings.append("could not read the BLAS thread count; clamping is unverified")
    elif threads != 1:
        warnings.append(f"BLAS runs {threads} threads, not 1")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "blas": {
            "clamp": "environment, set before numpy import",
            "env": {var: os.environ.get(var) for var in THREAD_VARS},
            "threadpoolctl_installed": importlib.util.find_spec("threadpoolctl") is not None,
            "threads_in_effect": threads,
        },
        "warnings": warnings,
    }
