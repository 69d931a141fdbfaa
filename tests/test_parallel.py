import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import clear_blas_thread_vars, openblas_thread_functions

from tivis import cli
from tivis import parallel as P
from tivis.errors import NonFiniteGradientError


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(P, "_usable_cpus", lambda: 2)
    clear_blas_thread_vars(monkeypatch)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


@pytest.mark.parametrize("n", [0, 1, 5])
@pytest.mark.parametrize("cpus", [1, 2, 4])
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


_DYING_WORKER = """
import multiprocessing, os
from tivis import parallel as P
P._usable_cpus = lambda: 2
try:
    P.fork_map(lambda x: os._exit(3) if x == 1 else x, range(4))
except RuntimeError as exc:
    print(exc, len(multiprocessing.active_children()))
"""


def test_a_worker_that_dies_is_an_error(two_workers):
    # in a subprocess, so that a map which waits for the dead worker times out
    env = dict(os.environ)
    src = str(Path(P.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _DYING_WORKER], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "the helper process exited without a result 0\n"


def test_first_failure_raises_without_waiting_for_the_rest(two_workers):
    def fn(x):
        if x == 0:
            raise KeyError(x)
        time.sleep(30.0)

    t0 = time.perf_counter()
    with pytest.raises(KeyError):
        P.fork_map(fn, range(4))
    assert time.perf_counter() - t0 < 5.0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "env, calls", [({}, [1]), ({"OPENBLAS_NUM_THREADS": "3"}, []), ({"OMP_NUM_THREADS": "1"}, [])]
)
def test_caller_pin_leaves_a_user_setting_alone(monkeypatch, tmp_path, env, calls):
    recorded = []
    monkeypatch.setattr(P, "_openblas_thread_setter", lambda: recorded.append)
    clear_blas_thread_vars(monkeypatch)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    P.pin_blas_threads()
    assert recorded == calls
    # the CLI applies it once per command, before the command runs
    recorded.clear()
    argv = ["invert", "--image", str(tmp_path / "missing.ppm"), "--out", str(tmp_path / "x.ppm")]
    assert cli.main(argv) == 1
    assert recorded == calls


def test_openblas_setter_is_found_once():
    assert P._openblas_thread_setter() is P._openblas_thread_setter()


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


def test_worker_exception_keeps_its_message(two_workers):
    def fn(x):
        if x == 1:
            raise NonFiniteGradientError(3)
        return x

    with pytest.raises(NonFiniteGradientError) as err:
        P.fork_map(fn, range(3))
    assert str(err.value) == str(NonFiniteGradientError(3))
    assert err.value.step_index == 3


class TestHelper:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_results_in_submission_order(self, monkeypatch, two_workers, cpus):
        monkeypatch.setattr(P, "_usable_cpus", lambda: cpus)
        offset = 7  # a closure, which pickle cannot send
        got = []
        with P.Helper(lambda x: (x + offset, os.getpid())) as helper:
            for x in range(4):
                helper.submit(x)
                got.append(helper.result())
                assert helper.ready()  # a taken result stays ready
        assert [r for r, _ in got] == [x + offset for x in range(4)]
        pids = {pid for _, pid in got}
        assert (pids == {os.getpid()}) == (cpus == 1)
        assert multiprocessing.active_children() == []

    def test_in_process_computes_at_submit(self, monkeypatch, two_workers):
        monkeypatch.setattr(P, "_usable_cpus", lambda: 1)
        calls = []
        with P.Helper(calls.append) as helper:
            assert calls == []
            helper.submit(5)
            assert calls == [5]
            assert helper.ready()
            assert helper.result() is None
        assert calls == [5]

    def test_forked_ready_waits_for_nothing(self, two_workers):
        with P.Helper(lambda x: time.sleep(x) or x) as helper:
            helper.submit(0.5)
            t0 = time.perf_counter()
            assert not helper.ready()
            assert time.perf_counter() - t0 < 0.25
            assert helper.result() == 0.5
            assert helper.ready()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_exception_reaches_the_caller(self, monkeypatch, two_workers, cpus):
        monkeypatch.setattr(P, "_usable_cpus", lambda: cpus)

        def fn(x):
            raise NonFiniteGradientError(x)

        with P.Helper(fn) as helper:
            helper.submit(4)
            with pytest.raises(NonFiniteGradientError) as err:
                helper.result()
        assert str(err.value) == str(NonFiniteGradientError(4))
        assert err.value.step_index == 4
        assert multiprocessing.active_children() == []

    def test_no_process_outlives_the_block(self, two_workers):
        # an item still being computed when the block ends, and a block that raises
        with P.Helper(time.sleep) as helper:
            helper.submit(30.0)
        assert multiprocessing.active_children() == []
        with pytest.raises(KeyError):
            with P.Helper(time.sleep) as helper:
                helper.submit(30.0)
                raise KeyError("caller failed")
        assert multiprocessing.active_children() == []

    def test_a_process_that_dies_is_an_error(self, two_workers):
        with P.Helper(os._exit) as helper:
            helper.submit(3)
            with pytest.raises(RuntimeError, match="exited without a result"):
                helper.result()
        assert multiprocessing.active_children() == []

    def test_daemonic_caller_runs_it_in_process(self, two_workers):
        def run(_):
            with P.Helper(lambda x: os.getpid()) as helper:
                helper.submit(None)
                return helper.result() == os.getpid()

        assert P.fork_map(run, range(2)) == [True, True]

    @pytest.mark.skipif(P._openblas_thread_setter() is None, reason="numpy without OpenBLAS")
    def test_pins_openblas_to_one_thread(self, monkeypatch):
        setter, get_threads = openblas_thread_functions()
        monkeypatch.setattr(P, "_usable_cpus", lambda: 2)
        clear_blas_thread_vars(monkeypatch)
        before = get_threads()
        setter(2)
        try:
            with P.Helper(lambda _: (get_threads(), os.getpid())) as helper:
                helper.submit(None)
                threads, pid = helper.result()
            assert get_threads() == 2
        finally:
            setter(before)
        assert threads == 1 and pid != os.getpid()
