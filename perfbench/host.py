"""Host record: what the numbers were measured on.

The benchmark reads thread settings but never sets them: a pinned
``OPENBLAS_NUM_THREADS`` would hide the BLAS oversubscription that the
``--jobs 2`` workload exists to show.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re

CONTAINER_NOTE = (
    "measured from inside a container: the benchmark cannot pin CPUs, isolate cores or drop the page cache, "
    "so cli_walkthrough's file reads are warm-cache and other tenants may share the cores"
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if re.search(r"openblas[^/]*\.so", line)}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_record() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception as exc:  # show_config's layout differs across numpy versions
        blas = {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_detected": _openblas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "note": CONTAINER_NOTE,
    }
