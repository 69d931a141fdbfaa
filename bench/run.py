#!/usr/bin/env python3
"""tivis benchmark: run one workload, or every workload with --all.

    python3 bench/run.py --workload visualize-ref --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --all --seed 1

The first run in a checkout trains the reference model into the cache
(about 80 s). Each run then executes in a fresh worker process, so its CPU
and peak-RSS counters cover that run alone. The last line of standard
output is the run's JSON result. --all runs each workload once, prints every
end-to-end metric with its unit, and writes BENCHMARK.json from spec.py.

If no thread variable (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS,
MKL_NUM_THREADS) is set, the worker runs with OPENBLAS_NUM_THREADS=1; a
value the user set is passed on unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refmodel  # noqa: E402
import spec  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> tuple:
    env = dict(os.environ)
    defaulted = not any(var in env for var in THREAD_VARS)
    if defaulted:
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env, defaulted


def ensure_model(env: dict) -> None:
    if not refmodel.cache_path().exists():
        print("training the reference model into the cache ...", file=sys.stderr, flush=True)
        subprocess.run([sys.executable, str(HERE / "refmodel.py")], env=env, check=True)


def worker_command(workload: str, args, defaulted: bool) -> list:
    return [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--threads-defaulted", str(int(defaulted)),
    ]


def run_all(args, env: dict, defaulted: bool) -> int:
    status = 0
    for name in spec.WORKLOADS:
        proc = subprocess.run(worker_command(name, args, defaulted), env=env,
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: worker exited with code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}")
        if not result["correct"] or result["failed"]:
            status = 1
    (HERE.parent / "BENCHMARK.json").write_text(spec.benchmark_json())
    print("wrote BENCHMARK.json")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload once and write BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not (refmodel.PACKAGE / "__init__.py").is_file():
        print(f"error: tivis sources not found under {refmodel.SRC}", file=sys.stderr)
        return 2

    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env, defaulted = worker_env()
    ensure_model(env)
    if args.all:
        return run_all(args, env, defaulted)
    return subprocess.run(worker_command(args.workload, args, defaulted), env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
