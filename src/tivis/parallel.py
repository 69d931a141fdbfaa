"""Fan-out of independent runs over forked worker processes.

``fork_map(fn, items)`` returns ``[fn(x) for x in items]``, computed in
``min(len(items), usable CPUs // BLAS threads per worker)`` forked workers;
``taskset`` restricts the usable CPUs. The BLAS threads per worker are the
count the user set, or one when none is set: each worker then sets OpenBLAS
to one thread, which would otherwise run a thread per CPU in every worker.
Workers inherit ``fn``, so only the items and the results are pickled, and
all have exited when the call returns, also when ``fn`` raises. Where
workers cannot help, the map runs in-process.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os

import numpy as np

# environment variables through which a user sets the BLAS thread count (the
# first wins, as in OpenBLAS), and OpenBLAS's thread-count setter as numpy's
# bundled scipy-openblas and a plain build export it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")


def _user_blas_threads() -> int | None:
    """The count set through the environment, or None; 0 if not a positive count."""
    for var in BLAS_THREAD_VARS:
        if var in os.environ:
            try:
                return max(int(os.environ[var].split(",")[0]), 0)
            except ValueError:
                return 0
    return None


def _openblas_thread_setter():
    """OpenBLAS's set-num-threads function as numpy loaded it, or None.

    dlsym on numpy's linalg extension also searches the libraries it links.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in _OPENBLAS_SETTERS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes = (ctypes.c_int,)
            setter.restype = None
            return setter
    return None


def _blas_plan():
    """(BLAS threads per worker, the setter each worker calls with 1, or None).

    A user's count is never overridden; 0 is a BLAS thread per CPU.
    """
    threads = _user_blas_threads()
    if threads is not None:
        return threads, None
    setter = _openblas_thread_setter()
    return (0, None) if setter is None else (1, setter)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker_count(n_items: int, threads: int) -> int:
    """Workers for n_items at threads BLAS threads each; 1 runs in-process.

    Without fork the workers could not inherit fn, and a daemonic process
    may not start children.
    """
    forkable = "fork" in multiprocessing.get_all_start_methods()
    if not threads or not forkable or multiprocessing.current_process().daemon:
        return 1
    return max(1, min(n_items, _usable_cpus() // threads))


_worker_fn = None  # set in each forked worker by _start_worker


def _start_worker(fn, pin) -> None:
    global _worker_fn
    _worker_fn = fn
    if pin is not None:
        pin(1)


def _call_worker_fn(item):
    return _worker_fn(item)


def fork_map(fn, items) -> list:
    """[fn(x) for x in items], with the items spread over forked workers."""
    items = list(items)
    threads, pin = _blas_plan()
    workers = _worker_count(len(items), threads)
    if workers == 1:
        return [fn(x) for x in items]
    # fork does not pickle the initializer's arguments: each worker inherits fn
    with multiprocessing.get_context("fork").Pool(workers, _start_worker, (fn, pin)) as pool:
        results = pool.map(_call_worker_fn, items, chunksize=1)
        pool.close()
        pool.join()
    return results
