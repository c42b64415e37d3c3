"""Thread pinning and the environment record attached to every result.

``pin_threads`` must run before numpy is first imported: BLAS reads its
thread count once, at load time.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

# One BLAS thread: on a small shared machine a second thread mostly adds
# contention noise, and results are bit-identical only at a fixed count.
BLAS_THREADS = 1
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> int:
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for name in _THREAD_VARIABLES:
        os.environ[name] = str(threads)
    return threads


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD commit of the checkout; None outside a git clone."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def describe(root: Path, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ[_THREAD_VARIABLES[0]]),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
