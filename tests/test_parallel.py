import inspect
import multiprocessing
import os
import time

import numpy as np
import pytest

from helpers import one_blas_thread, openblas_thread_functions, run_fresh

from tivis import parallel as P
from tivis.errors import NonFiniteGradientError
from tivis.ppm import write_ppm


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(P, "_usable_cpus", lambda: 2)
    one_blas_thread(monkeypatch)


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


def test_a_worker_that_dies_is_an_error():
    # in a subprocess, so that a map which waits for the dead worker times out
    stdout = run_fresh(_DYING_WORKER, OPENBLAS_NUM_THREADS="1")
    assert stdout == "the helper process exited without a result 0\n"


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


# gives OpenBLAS two threads before tivis is imported, as it starts on two
# CPUs, then prints the threads of this process and of a forked Helper once
# tivis is imported, and those of the tivis command run in this process
_THREAD_PROBE = f"""
import ctypes, os, sys
import numpy as np
{inspect.getsource(openblas_thread_functions)}
set_threads, get_threads = openblas_thread_functions()
set_threads(2)
from tivis import cli, parallel
imported = get_threads()
parallel._usable_cpus = lambda: 64  # a Helper forks for any count below 32
with parallel.Helper(lambda _: (get_threads(), os.getpid())) as helper:
    helper.submit(None)
    threads, pid = helper.result()
assert pid != os.getpid()
code = cli.main(sys.argv[1:])
print(imported, threads, code, get_threads())
"""


def _probe_threads(tmp_path, **blas_vars) -> str:
    write_ppm(np.zeros((4, 4, 3)), tmp_path / "in.ppm")
    argv = ["invert", "--image", str(tmp_path / "in.ppm"), "--out", str(tmp_path / "out.ppm")]
    # the last line comes after the command's own output
    return run_fresh(_THREAD_PROBE, *argv, **blas_vars).splitlines()[-1]


needs_openblas = pytest.mark.skipif(
    openblas_thread_functions() is None, reason="numpy without OpenBLAS"
)


@needs_openblas
def test_importing_tivis_pins_every_process_to_one_thread(tmp_path):
    # the importing process, a forked helper and the tivis command
    assert _probe_threads(tmp_path) == "1 1 0 1"


@needs_openblas
@pytest.mark.parametrize("var", P.BLAS_THREAD_VARS)
def test_a_user_setting_is_never_overridden(tmp_path, var):
    assert _probe_threads(tmp_path, **{var: "3"}) == "2 2 0 2"


def test_a_variable_set_after_import_is_not_read(monkeypatch, two_workers):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")  # a thread per CPU, which forks no helper
    assert P._plan(2) == 2
    assert P.fork_map(lambda _: os.getpid(), range(2)) != [os.getpid()] * 2


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (ValueError, OSError):
        return False


# prints whether the import pinned malloc's thresholds, whether the steps ran
# in a forked process, and the minor page faults per N=1 gradient step; with
# the argument "helper" the steps run in a forked Helper
_FAULT_PROBE = """
import os, resource, sys
import numpy as np
from tivis import nn, parallel
from tivis.training import reference_architecture

model = reference_architecture(7)
image = np.random.default_rng(0).uniform(0, 255, (64, 64, 3))

def faults_per_step(_):
    for _ in range(5):
        nn.confidence_and_input_gradient(model, image, 5)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(100):
        nn.confidence_and_input_gradient(model, image, 5)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return os.getpid(), (after - before) / 100

if sys.argv[1:] == ["helper"]:
    parallel._usable_cpus = lambda: 64  # a Helper forks for any count below 32
    with parallel.Helper(faults_per_step) as helper:
        helper.submit(None)
        pid, faults = helper.result()
else:
    pid, faults = faults_per_step(None)
print(parallel._MALLOC_THRESHOLDS_PINNED, pid != os.getpid(), faults)
"""


@pytest.mark.skipif(not _glibc(), reason="glibc malloc only")
class TestMallocThresholds:
    def test_fresh_process_gradient_step_does_not_page_fault(self):
        # a fresh process: this one's thresholds were lifted by training
        pinned, forked, faults_per_step = run_fresh(_FAULT_PROBE).split()
        assert (pinned, forked) == ("True", "False")
        assert float(faults_per_step) < 10

    def test_forked_helper_gradient_step_does_not_page_fault(self):
        # one BLAS thread, so that the Helper forks with or without OpenBLAS
        stdout = run_fresh(_FAULT_PROBE, "helper", OPENBLAS_NUM_THREADS="1")
        pinned, forked, faults_per_step = stdout.split()
        assert (pinned, forked) == ("True", "True")
        assert float(faults_per_step) < 10

    @pytest.mark.parametrize(
        "var, value",
        [
            ("MALLOC_TRIM_THRESHOLD_", "131072"),
            ("MALLOC_MMAP_THRESHOLD_", "131072"),
            ("MALLOC_TOP_PAD_", "0"),
            ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
        ],
    )
    def test_user_malloc_settings_are_left_alone(self, var, value):
        code = "from tivis import parallel; print(parallel._MALLOC_THRESHOLDS_PINNED)"
        assert run_fresh(code, **{var: value}) == "False\n"


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
        assert [r for r, _ in got] == [x + offset for x in range(4)]
        pids = {pid for _, pid in got}
        assert (pids == {os.getpid()}) == (cpus == 1)
        assert multiprocessing.active_children() == []

    def test_in_process_computes_at_result(self, monkeypatch, two_workers):
        monkeypatch.setattr(P, "_usable_cpus", lambda: 1)
        calls = []
        with P.Helper(lambda x: calls.append(x) or 2 * x) as helper:
            helper.submit(5)
            assert calls == []
            assert helper.result() == 10
            assert calls == [5]
            helper.submit(6)  # a result never taken is never computed
        assert calls == [5]

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
