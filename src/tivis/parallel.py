"""Fan-out of independent runs over forked worker processes.

``fork_map(fn, items)`` returns ``[fn(x) for x in items]``, computed in
``min(len(items), usable CPUs // BLAS threads per worker)`` forked workers;
``taskset`` restricts the usable CPUs. The BLAS threads per worker are the
count the user set, or one when none is set: each worker then sets OpenBLAS
to one thread, which would otherwise run a thread per CPU in every worker.
Workers inherit ``fn``, so only the items and the results are pickled, and
all have exited when the call returns, also when ``fn`` raises. Where
workers cannot help, the map runs in-process.

``Helper(fn)`` computes ``fn(x)`` for one item at a time in a single forked
process beside the caller, which goes on with its own work meanwhile. It
forks where ``fork_map`` would run two workers, with the same BLAS pin;
elsewhere ``fn(x)`` runs in-process when the caller first asks for it.
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


def _serve(fn, conn, callers_end, pin) -> None:
    """A helper process: answer each item with (True, fn(item)) or (False, exception)."""
    callers_end.close()  # the fork copied it; open here, it would hide the caller's close
    if pin is not None:
        pin(1)
    while True:
        try:
            item = conn.recv()
        except EOFError:  # the caller closed its end
            return
        try:
            outcome = (True, fn(item))
        except Exception as exc:  # sent to the caller, which raises it
            outcome = (False, exc)
        conn.send(outcome)


class Helper:
    """fn(x) for one item at a time, in a forked process beside the caller.

    submit(x) starts fn(x); ready() tells whether it has finished, and in
    the in-process case computes it; result() returns fn(x), waiting for it,
    or raises what fn raised. Use it as a context manager: the process has
    exited when the block ends.
    """

    def __init__(self, fn):
        self._fn = fn
        self._conn = self._process = None
        self._item = self._outcome = None
        self._pending = False  # an item was submitted and its outcome not yet taken in

    def __enter__(self):
        threads, pin = _blas_plan()
        if _worker_count(2, threads) > 1:
            ctx = multiprocessing.get_context("fork")
            self._conn, child = ctx.Pipe()
            # fork does not pickle the target's arguments: the process inherits fn
            self._process = ctx.Process(
                target=_serve, args=(self._fn, child, self._conn, pin), daemon=True
            )
            self._process.start()
            child.close()
        return self

    def __exit__(self, *exc_info):
        if self._process is not None:
            if self._pending:  # its result is not wanted
                self._process.terminate()
            self._conn.close()
            self._process.join()

    def submit(self, item) -> None:
        """Start fn(item); the previous item's result must have been taken in."""
        self._pending, self._outcome = True, None
        if self._conn is None:
            self._item = item
        else:
            self._conn.send(item)

    def ready(self) -> bool:
        if self._pending and (self._conn is None or self._conn.poll()):
            self._take()
        return not self._pending

    def result(self):
        if self._pending:
            self._take()
        ok, value = self._outcome
        if not ok:
            raise value
        return value

    def _take(self) -> None:
        if self._conn is not None:
            try:
                self._outcome = self._conn.recv()
            except EOFError:
                raise RuntimeError("the helper process exited without a result") from None
        else:
            item, self._item = self._item, None
            try:
                self._outcome = (True, self._fn(item))
            except Exception as exc:  # kept, as the forked case keeps it, for result()
                self._outcome = (False, exc)
        self._pending = False
