"""The settings of a tivis process, and fan-out over forked helpers.

Importing this module decides, once, the two settings that a tivis process
and every helper it forks run with, and never overrides one that the user
made through the environment: the BLAS threads (``_blas_threads``) and
glibc's malloc thresholds (``_pin_malloc_thresholds``).

``Helper(fn)`` computes ``fn(x)`` for one item at a time in a forked process
beside the caller, which goes on with its own work meanwhile.
``fork_map(fn, items)`` returns ``[fn(x) for x in items]``, computed on
``min(len(items), usable CPUs // BLAS threads)`` helpers; each idle helper
takes the next item. ``taskset`` restricts the usable CPUs. Every helper
inherits both settings, and ``fn``, so only the items and the results are
pickled. The first item that raises, or a helper that dies, raises in the
caller at once, and no helper outlives the call. One plan gives the workers
for n items: ``fork_map`` asks it for its items, a ``Helper`` for two. Where
it gives one worker, ``fn(x)`` runs in-process, a ``Helper``'s when its
result is taken. ``visualize`` runs its optimization passes on a ``Helper``,
and ``train`` and ``evaluate`` each batch's trunk on two.
"""

from __future__ import annotations

import contextlib
import ctypes
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

# mallopt parameter numbers from glibc's malloc.h, and the environment
# variables through which a user sets malloc parameters themselves
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MALLOC_ENV_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")


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


def _blas_threads() -> int:
    """The BLAS threads of this process and its helpers: the count the user
    set, never overridden (0 if not a positive count, which is a thread per
    CPU), or else 1, pinned through OpenBLAS's setter (0 without it), since
    OpenBLAS would run a thread per CPU in every process. It is read at
    import, as OpenBLAS reads its own variables once when it loads."""
    for var in BLAS_THREAD_VARS:
        if var in os.environ:
            try:
                return max(int(os.environ[var].split(",")[0]), 0)
            except ValueError:
                return 0
    setter = _openblas_function(_OPENBLAS_SETTERS, (ctypes.c_int,), None)
    if setter is None:
        return 0
    setter(1)
    return 1


def _pin_malloc_thresholds() -> bool:
    """Start glibc's malloc at the thresholds a warmed-up process reaches.

    glibc lifts its mmap threshold to the largest freed mmapped block (at
    most 32 MiB on 64-bit) and its trim threshold to twice that. A fresh
    process that only runs N=1 gradient steps lifts them to about 1.8 MB,
    so glibc returns each step's temporaries to the OS and the
    next step page-faults them back in. Pinning both at that ceiling costs
    a process that frees a large array nothing: it ends up there anyway.

    Does nothing off glibc, or when the user has set a malloc parameter
    through the environment. Returns whether the thresholds were set.
    """
    try:
        libc_version = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (ValueError, OSError):  # no such name: not glibc
        return False
    if not libc_version.startswith("glibc"):
        return False
    if any(var in os.environ for var in _MALLOC_ENV_VARS):
        return False
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_threshold = 32 << 20
    return bool(
        mallopt(_M_MMAP_THRESHOLD, mmap_threshold)
        and mallopt(_M_TRIM_THRESHOLD, 2 * mmap_threshold)
    )


# decided once, at import, before any array a workload allocates; each helper
# the process forks inherits both
_BLAS_THREADS = _blas_threads()
_MALLOC_THRESHOLDS_PINNED = _pin_malloc_thresholds()


def openblas_corename() -> str | None:
    """The name of the kernel OpenBLAS picked for this CPU when it loaded
    (OPENBLAS_CORETYPE forces one), or None where it cannot be found."""
    getter = _openblas_function(_OPENBLAS_CORENAMES, (), ctypes.c_char_p)
    return None if getter is None else getter().decode()


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _plan(n_items: int) -> int:
    """The workers for n_items; one runs in-process.

    A worker runs the process's BLAS threads, so none fork where that is a
    thread per CPU. Without fork the workers could not inherit fn, and a
    daemonic process may not start children.
    """
    forkable = "fork" in multiprocessing.get_all_start_methods()
    if not _BLAS_THREADS or not forkable or multiprocessing.current_process().daemon:
        return 1
    return max(1, min(n_items, _usable_cpus() // _BLAS_THREADS))


def fork_map(fn, items) -> list:
    """[fn(x) for x in items], with the items spread over forked helpers."""
    items = list(items)
    workers = _plan(len(items))
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


def _serve(fn, conn, callers_end) -> None:
    """A helper process: answer each item with (True, fn(item)) or (False, exception)."""
    callers_end.close()  # the fork copied it; open here, it would hide the caller's close
    while True:
        try:
            item = conn.recv()
        except EOFError:  # the caller closed its end
            return
        try:
            outcome = True, fn(item)
        except Exception as exc:  # for the caller to raise
            outcome = False, exc
        conn.send(outcome)


class Helper:
    """fn(x) for one item at a time, in a forked process beside the caller.

    submit(x) hands it x, and result() returns fn(x), waiting for it, or
    raises what fn raised. A forked helper starts fn(x) at submit; one that
    runs in-process computes it in result(). Use it as a context manager:
    the process has exited when the block ends, and an item whose result
    was not taken is dropped.
    """

    def __init__(self, fn):
        self._fn = fn
        self._conn = self._process = self._item = None
        self._pending = False  # an item was sent and its outcome not yet taken in

    def __enter__(self):
        if _plan(2) > 1:
            ctx = multiprocessing.get_context("fork")
            self._conn, child = ctx.Pipe()
            # fork does not pickle the target's arguments: the process inherits fn
            self._process = ctx.Process(
                target=_serve, args=(self._fn, child, self._conn), daemon=True
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
        """Hand over item; the previous item's result must have been taken."""
        if self._conn is None:
            self._item = item
        else:
            self._pending = True
            self._conn.send(item)

    def fileno(self) -> int:  # a forked helper's pipe, for multiprocessing.connection.wait
        return self._conn.fileno()

    def result(self):
        """fn(item) of the last item submitted, taken once."""
        if self._conn is None:
            item, self._item = self._item, None
            return self._fn(item)
        try:
            ok, value = self._conn.recv()
        except EOFError:
            raise RuntimeError("the helper process exited without a result") from None
        self._pending = False
        if not ok:
            raise value
        return value
