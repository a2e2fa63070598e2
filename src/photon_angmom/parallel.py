"""The package's worker threads.

PHOTON_ANGMOM_THREADS is the number of cores the package uses.  Unset, it
is every CPU this process may run on.  The package takes its parallelism
from its own workers, not from BLAS: `configure`, which the package runs at
import before numpy loads, pins the BLAS/OpenMP thread variables to 1, so
that BLAS threads do not compete with the workers for the same cores.  The
pin overwrites any value they had in the process environment.

If numpy was imported before the package, the pin can no longer act (BLAS
has already read its thread count), and the package runs one worker.

`run(workers, task, ...)` calls task(w, ...) for every worker index w,
worker 0 on the calling thread and the others on a shared thread pool.  The
pool is created on the first call with more than one worker, never at
import.  One worker is the same call with no pool.  Each task owns the part
of the work that its index selects, so the tasks share no mutable state.

This module imports no numpy: it must run before numpy loads.
"""

from __future__ import annotations

import os
import sys
import threading

ENV = "PHOTON_ANGMOM_THREADS"
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# the CPUs this process may run on and the worker count, set once by
# configure() at package import
CPUS = 1
WORKERS = 1

_pool = None
_pool_lock = threading.Lock()


def available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def resolve_threads(raw: str | None, cpus: int) -> int:
    """Worker count for the PHOTON_ANGMOM_THREADS value `raw` on `cpus` CPUs.

    Unset or empty gives `cpus`.  A value that is not an integer >= 1 gets
    one stderr warning and gives `cpus`; a value above `cpus` is capped.
    """
    if not raw:
        return cpus
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        print(f"warning: {ENV}={raw!r} is not an integer >= 1; using {cpus}",
              file=sys.stderr)
        return cpus
    return min(n, cpus)


def configure() -> None:
    """Pin BLAS to one thread and set WORKERS; run before numpy loads."""
    global CPUS, WORKERS
    raw = os.environ.get(ENV)
    CPUS = available_cpus()
    n = resolve_threads(raw, CPUS)
    if "numpy" in sys.modules:
        if raw and n > 1:
            print(f"warning: {ENV}={raw!r} has no effect: numpy was imported "
                  f"before photon_angmom, so BLAS cannot be pinned; using 1 worker",
                  file=sys.stderr)
        n = 1
    else:
        os.environ.update(dict.fromkeys(BLAS_VARS, "1"))
    WORKERS = n


def _forget_pool():
    # a forked child holds the pool object but none of its threads
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor(threads: int):
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(threads, thread_name_prefix="photon_angmom")
        return _pool


def run(workers: int, task, *args) -> None:
    """task(w, *args) for w in range(workers); returns when all are done.

    Worker 0 runs on the calling thread.  Once every task has finished,
    the exception of the lowest worker index that raised one is raised
    here.  A task must not call run.
    """
    futures = [_executor(workers - 1).submit(task, w, *args) for w in range(1, workers)]
    try:
        task(0, *args)
    finally:
        errors = [f.exception() for f in futures]   # waits for every task
    for err in errors:
        if err is not None:
            raise err


def split(n: int, parts: int, index: int, align: int = 1) -> tuple[int, int]:
    """Part `index` of `parts` contiguous, balanced ranges of range(n).

    Inner bounds are multiples of `align`.
    """
    units = -(-n // align)
    lo, hi = units * index // parts * align, units * (index + 1) // parts * align
    return min(lo, n), min(hi, n)
