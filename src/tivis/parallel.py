"""Fan-out of independent runs over forked helper processes.

``Helper(fn)`` computes ``fn(x)`` for one item at a time in a forked process
beside the caller, which goes on with its own work meanwhile.
``fork_map(fn, items)`` returns ``[fn(x) for x in items]``, computed on
``min(len(items), usable CPUs // BLAS threads per worker)`` helpers; each
idle helper takes the next item. ``taskset`` restricts the usable CPUs. The
BLAS threads per worker are the count the user set, or one when none is
set: each helper then sets OpenBLAS to one thread, which would otherwise run
a thread per CPU in every process. Helpers inherit ``fn``, so only the items
and the results are pickled. The first item that raises, or a helper that
dies, raises in the caller at once, and no helper outlives the call. One
plan gives the workers and the pin for n items: ``fork_map`` asks it for
its items, a ``Helper`` for two. Where it gives one worker, ``fn(x)`` runs
in-process, a ``Helper``'s at ``submit``. ``visualize`` runs its batteries
on a ``Helper``, and ``train`` and ``evaluate`` each batch's trunk on two.
``pin_blas_threads()`` gives the calling process the helpers' pin.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import multiprocessing.connection
import os

import numpy as np

# environment variables through which a user sets the BLAS thread count (the
# first wins, as in OpenBLAS), and OpenBLAS's thread-count setter and kernel
# name getter as numpy's bundled scipy-openblas and a plain build export them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")
_OPENBLAS_CORENAMES = ("scipy_openblas_get_corename64_", "openblas_get_corename")


def _user_blas_threads() -> int | None:
    """The count set through the environment, or None; 0 if not a positive count."""
    for var in BLAS_THREAD_VARS:
        if var in os.environ:
            try:
                return max(int(os.environ[var].split(",")[0]), 0)
            except ValueError:
                return 0
    return None


def _openblas_function(names: tuple, argtypes: tuple, restype):
    """The first of names that OpenBLAS exports as numpy loaded it, typed, or None.

    dlsym on numpy's linalg extension also searches the libraries it links.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in names:
        function = getattr(lib, name, None)
        if function is not None:
            function.argtypes, function.restype = argtypes, restype
            return function
    return None


@functools.cache
def _openblas_thread_setter():
    """OpenBLAS's set-num-threads function, or None."""
    return _openblas_function(_OPENBLAS_SETTERS, (ctypes.c_int,), None)


def openblas_corename() -> str | None:
    """The name of the kernel OpenBLAS picked for this CPU when it loaded
    (OPENBLAS_CORETYPE forces one), or None where it cannot be found."""
    getter = _openblas_function(_OPENBLAS_CORENAMES, (), ctypes.c_char_p)
    return None if getter is None else getter().decode()


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _plan(n_items: int):
    """(workers for n_items, the setter each worker calls with 1, or None).

    One worker runs in-process. A worker takes the user's BLAS count, which
    is never overridden (0 is a thread per CPU), or else one pinned thread.
    Without fork the workers could not inherit fn, and a daemonic process
    may not start children.
    """
    threads, pin = _user_blas_threads(), None
    if threads is None:
        pin = _openblas_thread_setter()
        threads = 0 if pin is None else 1
    forkable = "fork" in multiprocessing.get_all_start_methods()
    if not threads or not forkable or multiprocessing.current_process().daemon:
        return 1, pin
    return max(1, min(n_items, _usable_cpus() // threads)), pin


def pin_blas_threads() -> None:
    """Set the calling process's OpenBLAS to one thread when no thread
    variable is set, as each helper does; a count the user set stays."""
    _, pin = _plan(1)
    if pin is not None:
        pin(1)


def fork_map(fn, items) -> list:
    """[fn(x) for x in items], with the items spread over forked helpers."""
    items = list(items)
    workers, _ = _plan(len(items))
    if workers == 1:
        return [fn(x) for x in items]
    results = [None] * len(items)
    todo = enumerate(items)
    # the stack exits helpers in reverse start order, as it must: each later child holds a copy
    # of every earlier helper's pipe end, so an earlier child sees EOF only once the later exit
    with contextlib.ExitStack() as stack:
        idle = [stack.enter_context(Helper(fn)) for _ in range(workers)]
        busy = {}  # a helper -> the index of the item it computes
        while True:
            for helper, (index, item) in zip(idle, todo):
                helper.submit(item)
                busy[helper] = index
            if not busy:
                return results
            idle = multiprocessing.connection.wait(list(busy))
            for helper in idle:
                results[busy.pop(helper)] = helper.result()


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
        conn.send(_outcome(fn, item))


def _outcome(fn, item):
    """(True, fn(item)), or (False, the exception it raised) for the caller to raise."""
    try:
        return True, fn(item)
    except Exception as exc:
        return False, exc


class Helper:
    """fn(x) for one item at a time, in a forked process beside the caller.

    submit(x) starts fn(x), or computes it when the helper runs in-process;
    ready() tells whether it has finished; result() returns fn(x), waiting
    for it, or raises what fn raised. Use it as a context manager: the
    process has exited when the block ends.
    """

    def __init__(self, fn):
        self._fn = fn
        self._conn = self._process = self._outcome = None
        self._pending = False  # an item was sent and its outcome not yet taken in

    def __enter__(self):
        workers, pin = _plan(2)
        if workers > 1:
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
        if self._conn is None:
            self._outcome = _outcome(self._fn, item)
        else:
            self._pending, self._outcome = True, None
            self._conn.send(item)

    def fileno(self) -> int:  # a forked helper's pipe, for multiprocessing.connection.wait
        return self._conn.fileno()

    def ready(self) -> bool:
        if self._pending and self._conn.poll():
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
        try:
            self._outcome = self._conn.recv()
        except EOFError:
            raise RuntimeError("the helper process exited without a result") from None
        self._pending = False
