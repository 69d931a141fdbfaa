import multiprocessing
import os

import pytest

from helpers import clear_blas_thread_vars, openblas_thread_functions

from tivis import parallel as P


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(P, "_usable_cpus", lambda: 2)
    clear_blas_thread_vars(monkeypatch)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


@pytest.mark.parametrize("n", [0, 1, 5])
@pytest.mark.parametrize("cpus", [1, 2])
def test_results_in_item_order(monkeypatch, two_workers, n, cpus):
    monkeypatch.setattr(P, "_usable_cpus", lambda: cpus)
    items = [3 * i + 1 for i in range(n)][::-1]

    def fn(x):  # a nested function, which pickle cannot send
        return (x * x, x)

    assert P.fork_map(fn, iter(items)) == [fn(x) for x in items]
    assert multiprocessing.active_children() == []


def test_items_run_in_workers_unless_one_would(monkeypatch, two_workers):
    parent = os.getpid()
    pids = P.fork_map(lambda _: os.getpid(), range(5))
    assert parent not in pids
    monkeypatch.setattr(P, "_usable_cpus", lambda: 1)
    assert P.fork_map(lambda _: os.getpid(), range(5)) == [parent] * 5


def test_exception_propagates_and_no_worker_outlives_it(two_workers):
    def fn(x):
        if x == 3:
            raise RuntimeError(f"item {x} failed")
        return x

    with pytest.raises(RuntimeError, match="item 3 failed"):
        P.fork_map(fn, range(5))
    assert multiprocessing.active_children() == []
    assert P._worker_fn is None  # the parent's module state is never written


@pytest.mark.skipif(P._openblas_thread_setter() is None, reason="numpy without OpenBLAS")
def test_workers_pin_openblas_to_one_thread(monkeypatch):
    setter, get_threads = openblas_thread_functions()
    monkeypatch.setattr(P, "_usable_cpus", lambda: 2)
    clear_blas_thread_vars(monkeypatch)
    before = get_threads()
    setter(2)  # the workers inherit two threads and must drop to one
    try:
        threads = P.fork_map(lambda _: get_threads(), range(4))
        assert get_threads() == 2  # the parent keeps its own count
    finally:
        setter(before)
    assert threads == [1] * 4
