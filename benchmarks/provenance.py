"""Provenance stamp shared by every benchmark record.

Benchmark numbers without their environment are not comparable: a sharded
build that "lost" on a 1-CPU container, a float32 run scored against a
float64 baseline, or a number from three commits ago all look like
regressions unless the record says where they came from.  The ledger
(``benchmarks/ledger/run.py``) and the load generator's report
(``benchmarks/load_gen.py``) attach :func:`provenance_stamp` under a
``"provenance"`` key, so every record is self-describing.

The stamp records:

* ``host`` / ``platform`` — where the run happened;
* ``os_cpu_count`` and ``single_cpu`` — whether multi-process numbers had
  any chance of winning, plus the standard caveat string when they did not
  (:data:`SINGLE_CPU_CAVEAT`);
* ``dtype`` — the active precision policy (``REPRO_DTYPE`` resolved through
  :func:`repro.nn.dtype.default_dtype`);
* ``git_rev`` — the commit the numbers were measured at (``None`` outside a
  work tree or when ``git`` is unavailable: the stamp never fails a run);
* ``recorded_at`` — UTC wall-clock of the stamp.

Stdlib + the repo only; safe to import from any benchmark or the load
generator.
"""

from __future__ import annotations

import datetime
import os
import platform
import socket
import subprocess
from pathlib import Path
from typing import Dict, Optional

from repro.nn.dtype import default_dtype

#: Attached to multi-process sections recorded on a host where process
#: parallelism cannot win; also reused by the stamp itself.
SINGLE_CPU_CAVEAT = (
    "recorded on a 1-CPU host: process-level numbers measure overhead "
    "only and say nothing about multi-core speedups"
)

_REPO_ROOT = Path(__file__).resolve().parent.parent


def git_revision(repo_root: Optional[Path] = None) -> Optional[str]:
    """The current commit hash, or ``None`` when it cannot be determined."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root or _REPO_ROOT),
            capture_output=True,
            text=True,
            timeout=10.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    rev = result.stdout.strip()
    return rev or None


def provenance_stamp() -> Dict:
    """The environment record every benchmark record carries.

    Pure data, JSON-serialisable, and never raises: benchmarks must not
    fail because the host lacks ``git`` or a resolvable hostname.
    """
    try:
        host = socket.gethostname()
    except OSError:  # pragma: no cover - hostname always resolves in CI
        host = None
    single_cpu = (os.cpu_count() or 1) <= 1
    return {
        "host": host,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "os_cpu_count": os.cpu_count(),
        "single_cpu": single_cpu,
        "caveat": SINGLE_CPU_CAVEAT if single_cpu else None,
        "dtype": str(default_dtype()),
        "git_rev": git_revision(),
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def stamp_results(results: Dict) -> Dict:
    """Attach the provenance stamp to a results dict (in place) and return it."""
    results["provenance"] = provenance_stamp()
    return results
