"""Child process of the benchmark: import lexrag.cli, then run lexrag commands.

    python perfbench/launch.py JOB.json

The job file holds ``{"commands": [[argv...], ...], "trace": bool,
"environment": bool, "record": path}``. The record written at ``record`` holds
the wall and CPU time of importing ``lexrag.cli``, each command's exit code and
in-process time, and with ``trace`` the spans of every wrapped call. The exit code is the
first nonzero command exit code, or 0.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    from lexrag import kernels

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_enabled": kernels.NUMBA_ENABLED,
        "LEXRAG_PURE_NUMPY": os.environ.get("LEXRAG_PURE_NUMPY"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS")},
    }


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    t0, c0 = time.perf_counter(), time.process_time()
    import lexrag.cli
    record: dict = {"import_s": time.perf_counter() - t0,
                    "import_cpu_s": time.process_time() - c0, "commands": []}

    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    rc = 0
    for argv in job["commands"]:
        start = time.perf_counter()
        code = tracer.run_command(lexrag.cli.main, argv) if tracer else lexrag.cli.main(argv)
        record["commands"].append({"argv": argv, "rc": code,
                                   "main_s": time.perf_counter() - start})
        if code:
            rc = code
            break
    if tracer:
        record["spans"] = tracer.export()
    if job.get("environment"):
        record["environment"] = environment()
    Path(job["record"]).write_text(json.dumps(record), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
