"""Process bootstrap shared by the ledger's entry points.

Call :func:`bootstrap` before anything imports NumPy: the BLAS thread pins
only take effect if they are in the environment when the library loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
OUT_DIR = LEDGER_DIR / "out"
CACHE_DIR = LEDGER_DIR / ".cache"

#: One BLAS thread: the host has two CPUs and the HTTP workload runs a server
#: process next to the harness; an unpinned BLAS pool makes both runs noisier.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS threads and put ``src/`` and ``benchmarks/`` on the path."""
    for name in THREAD_ENV:
        os.environ[name] = "1"
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(
            f"ledger: {source / 'repro'} not found; the benchmark measures the "
            "program in this checkout and cannot run without it"
        )
    for path in (source, REPO_ROOT / "benchmarks"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
