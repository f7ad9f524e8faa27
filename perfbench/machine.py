"""What a result was measured on: cores, Python, numpy, BLAS, sgemm ceiling."""

import ctypes
import os
import platform
import time

import numpy as np

SGEMM_SHAPE = (4096, 2304, 384)   # (m, k, n): a 3x3 conv's im2col GEMM shape
SGEMM_REPS = 7


def _blas_library():
    """Path of the BLAS shared library this process has loaded, if any."""
    try:
        with open("/proc/self/maps") as f:
            for line in f:
                path = line.split()[-1]
                if "blas" in os.path.basename(path).lower() and ".so" in path:
                    return path
    except OSError:
        pass
    return None


def blas_threads():
    """Threads the loaded OpenBLAS uses; None when it cannot be asked."""
    path = _blas_library()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def sgemm_gmacs_per_s():
    """Median float32 GEMM rate of SGEMM_SHAPE, the ceiling kernels are read against."""
    m, k, n = SGEMM_SHAPE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    a @ b
    samples = []
    for _ in range(SGEMM_REPS):
        start = time.perf_counter()
        a @ b
        samples.append(time.perf_counter() - start)
    return m * k * n / 1e9 / float(np.median(samples))


def machine_info():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "sgemm_gmacs_per_s": sgemm_gmacs_per_s(),
    }
