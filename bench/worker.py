"""One benchmark run of one workload, in a fresh process.

Started by run.py, which fills the model cache first, so the peak RSS and
CPU counters here cover this run alone. Prints the run's environment as a
``# env`` line, then the result as one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import spec  # noqa: E402
import tivis  # noqa: E402
from checks import CheckFailed  # noqa: E402
from refmodel import cache_path  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from tivis.errors import TivisError  # noqa: E402
from tracing import Tracer, layer_probes, module_probes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is repeated a fixed number of times and its median reported; the
# count is fixed so that every run reaches the timed rounds with the same
# allocation history, which the peak-RSS figure depends on
SETUP_REPEATS = 11


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads_defaulted: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "threads_set_by_benchmark": threads_defaulted,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "tivis": tivis.__version__,
    }


def timed_rounds(workload, inputs, seconds: float, rounds: int = 0, tracer=None):
    """Whole rounds until `seconds` have passed and at least `rounds` ran.

    Returns (outputs, per-round wall times, per-round CPU times, operations
    attempted, operations failed, peak RSS at the end of the first round).
    A round that raises fails all its operations.
    """
    outputs, walls, cpus = [], [], []
    first_peak = None
    ops = failed = 0
    rounds = max(rounds, workload.min_rounds)
    start = time.perf_counter()
    index = 0
    while index < rounds or time.perf_counter() - start < seconds:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(inputs, index)
            else:
                with tracer.span("round"):
                    out = workload.traced(inputs, tracer, index)
        except (TivisError, ValueError) as exc:
            print(f"# round {index} failed: {type(exc).__name__}: {exc}", flush=True)
            failed += workload.ops_per_round
        else:
            failed += workload.failures(out)
            outputs.append(out)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        if first_peak is None:
            first_peak = peak_rss_mib()
        ops += workload.ops_per_round
        index += 1
    return outputs, walls, cpus, ops, failed, first_peak


def run(workload_name: str, seed: int, seconds: float, trace: bool, threads_defaulted: bool) -> dict:
    print("# env " + json.dumps(environment(threads_defaulted)), flush=True)
    seed %= 1 << 32
    workload = WORKLOADS[workload_name](seed)

    setup_times = []
    while len(setup_times) < SETUP_REPEATS:
        inputs = None  # the previous inputs are not kept alive across set-ups
        t0 = time.perf_counter()
        inputs = workload.setup()
        setup_times.append(time.perf_counter() - t0)

    # The peak is read after the first round, not at the end: with more than
    # one BLAS thread the high-water mark can step up by ~30 MiB in a later,
    # unpredictable round (allocator and thread-buffer timing), while set-up
    # plus one round repeats to within 0.2%.
    outputs, walls, cpus, ops, failed, peak = timed_rounds(workload, inputs, seconds)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak,
        "setup_s": statistics.median(setup_times),
    }

    traced_outputs = []
    if trace:
        tracer = Tracer()
        traced_outputs, twalls, _, tops, tfailed, _ = timed_rounds(workload, inputs, 0.0, len(walls), tracer)
        ops, failed = ops + tops, failed + tfailed
        untraced_wall = statistics.median(walls)
        traced_wall = statistics.median(twalls)
        rounds = {i for i, span in enumerate(tracer.spans) if span[0] == "round"}
        covered = sum(end - start for _, start, end, parent in tracer.spans if parent in rounds)
        rng = np.random.default_rng(seed)
        metrics = {
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.overhead_pct": 100.0 * (traced_wall - untraced_wall) / untraced_wall,
            "trace.remainder_s": (sum(twalls) - covered) / len(twalls),
            **workload.trace_metrics(inputs, tracer, len(twalls)),
            **layer_probes(inputs.model, rng),
            **module_probes(inputs.model, cache_path(), seed, rng),
        }

    correct = True
    try:
        if outputs:  # the checks speak of the rounds that did not fail
            workload.check(inputs, outputs, traced_outputs)
    except CheckFailed as exc:
        print(f"# check failed: {exc}", flush=True)
        correct = False

    declared = spec.PER_LAYER if trace else spec.END_TO_END
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match spec.py")
    return {
        "correct": correct,
        "attempted": ops,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads-defaulted", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), bool(args.threads_defaulted))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
