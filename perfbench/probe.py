"""Set-up probe: what a fresh interpreter pays before a command starts work.

Imports ``coupledbd.cli`` and runs ``load_config``, ``model_from_config``,
``torus_from_config`` and ``validate_model_on_torus`` on one config, then
prints one JSON line with the phase times and the library environment.

    python3 perfbench/probe.py CONFIG.json
"""

import ctypes
import json
import os
import sys
import time


def _blas_threads():
    """Name and thread count of the OpenBLAS library loaded by numpy."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return {"library": os.path.basename(path), "threads": int(fn())}
    return None


def main(config_path: str) -> None:
    t0 = time.perf_counter()
    import coupledbd.cli as cli
    t1 = time.perf_counter()
    cfg = cli.load_config(config_path)
    t2 = time.perf_counter()
    m = cli.model_from_config(cfg)
    torus = cli.torus_from_config(cfg)
    cli.validate_model_on_torus(m, torus)
    t3 = time.perf_counter()

    import numpy
    import scipy
    print(json.dumps({
        "import_s": t1 - t0,
        "load_s": t2 - t1,
        "build_s": t3 - t2,
        "module": cli.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_threads(),
    }))


if __name__ == "__main__":
    main(sys.argv[1])
