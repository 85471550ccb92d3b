"""The machine and software a benchmark run measured on.

numpy is imported inside the functions, so ``run.py`` can pin the BLAS
threads through :data:`THREAD_VARIABLES` before numpy first loads.
"""

import os
import platform

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return "unknown"
    blas = deps.get("blas", {})
    return " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration")).strip()


def environment():
    import numpy as np

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARIABLES},
    }
