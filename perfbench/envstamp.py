"""The environment every benchmark result is stamped with.

BLAS thread counts are read, never set: the program's defaults are what
gets measured, so a change that pins BLAS threads shows up as a gain.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's bundled OpenBLAS)

# (package, its bundled-library directory, library glob, thread query)
_OPENBLAS = (
    (numpy, "numpy.libs", "libscipy_openblas64_*.so",
     "scipy_openblas_get_num_threads64_"),
    (scipy, "scipy.libs", "libscipy_openblas-*.so",
     "scipy_openblas_get_num_threads"),
)


def _openblas(package, libs_dir: str, pattern: str, symbol: str) -> dict:
    site = Path(package.__file__).resolve().parent.parent
    found = sorted((site / libs_dir).glob(pattern))
    entry = {"package": package.__name__, "library": None, "threads": None}
    if not found:
        return entry
    entry["library"] = found[0].name
    try:
        # RTLD_NOLOAD: only look at the copy the package already loaded.
        lib = ctypes.CDLL(str(found[0]), mode=os.RTLD_NOLOAD | os.RTLD_NOW)
        query = getattr(lib, symbol)
    except (OSError, AttributeError) as exc:
        entry["error"] = str(exc)
        return entry
    query.argtypes = []
    query.restype = ctypes.c_int
    entry["threads"] = int(query())
    return entry


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas": [_openblas(*spec) for spec in _OPENBLAS],
    }
