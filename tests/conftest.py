import resource
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import golden
from tivis import nn, parallel
from tivis.shapes import generate_dataset
from tivis.training import REFERENCE_SEED, TrainConfig, reference_architecture, train


def pytest_report_header(config):
    # the golden bits depend on the OpenBLAS kernel, and whether helpers fork
    # follows from the BLAS threads and the CPUs
    kernel = parallel.openblas_corename()
    recorded = "yes" if kernel in golden.COLUMNS else f"no (recorded: {', '.join(golden.COLUMNS)})"
    threads = parallel._BLAS_THREADS or "one per CPU"
    return (f"tivis: OpenBLAS kernel {kernel}, golden column: {recorded}, BLAS threads {threads}, "
            f"usable CPUs {parallel._usable_cpus()}, helpers fork: {parallel._plan(2) > 1}")


def pytest_terminal_summary(terminalreporter, config):
    # a memory regression shows in every run: the peak RSS of this process and
    # of its largest waited-for child (ru_maxrss is in KiB on Linux)
    own, child = (resource.getrusage(who).ru_maxrss / 1024
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    peak = f"peak RSS {own:.1f} MiB, largest child {child:.1f} MiB"
    if config.get_verbosity() < 0:  # -q hides the header
        terminalreporter.write_line(f"{pytest_report_header(config)}, {peak}")
    else:
        terminalreporter.write_line(f"tivis: {peak}")


@pytest.fixture(scope="session")
def reference_dataset():
    return generate_dataset(REFERENCE_SEED, 100)


@pytest.fixture(scope="session")
def reference_run(reference_dataset):
    """Train the frozen reference model once per session.

    Returns (TrainResult, TrainConfig, train_seconds).
    """
    config = TrainConfig()
    t0 = time.time()
    result = train(reference_dataset, reference_architecture(REFERENCE_SEED), config)
    return result, config, time.time() - t0


@pytest.fixture(scope="session")
def reference_model(reference_run):
    return reference_run[0].model


@pytest.fixture
def tiny_confident_model():
    """Flatten+dense model whose bias keeps class 1 above any q_target."""
    n = 8
    w = np.zeros((3, 3 * n * n))
    b = np.array([0.0, 12.0, 0.0])
    return nn.Model(
        layers=[nn.Flatten(), nn.Dense(weight=w, bias=b)],
        input_shape=(3, n, n),
        class_names=("a", "b", "c"),
    ).validate()
