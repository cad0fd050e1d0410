"""How many threads NumPy work may run on without oversubscribing the host.

NumPy releases the GIL inside its BLAS calls and array loops, so independent
pieces of engine work (the chunks of an index build) can run on several
Python threads at once.  That only pays while every thread has a core: a BLAS
library that already runs a thread per core gains nothing from a second
caller and loses to the contention (two threads over an unpinned OpenBLAS
encode 1 500 tables in 0.45–0.53 s, one thread in 0.35–0.40 s, on a 2-CPU
host).  So the count is the usable cores divided by the BLAS threads one
call uses.
"""

from __future__ import annotations

import os

#: Where a BLAS library reads its thread count.  Libraries read them in
#: different orders (OpenBLAS prefers its own before ``OMP_NUM_THREADS``,
#: MKL its own), so the largest set value is the one assumed.  None set means
#: BLAS runs a thread per core already.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cores() -> int:
    """The cores this process may run on (its affinity mask where the OS has
    one, else the machine's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def compute_threads() -> int:
    """Threads independent NumPy work may run on at once: usable cores ÷ the
    largest positive integer among :data:`BLAS_THREAD_ENV`, at least 1.  That
    never oversubscribes whichever library is loaded.  An unpinned BLAS
    therefore gets 1 (serial work); ``OPENBLAS_NUM_THREADS=1`` on a 2-CPU host
    gets 2.  The environment is read on every call, as the BLAS library read
    it when NumPy loaded."""
    pinned = [
        int(value)
        for value in (os.environ.get(name, "").strip() for name in BLAS_THREAD_ENV)
        if value.isdigit() and int(value) > 0
    ]
    if not pinned:
        return 1
    return max(1, usable_cores() // max(pinned))
