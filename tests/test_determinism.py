"""The determinism contract, one test per clause (README, "Determinism")."""

import os
import subprocess
import sys
from pathlib import Path

import golden
import pytest
from helpers import random_small_model

from tivis import nn

# A reference-architecture model with a random head (the trained head would
# need the reference training run), a short visualize from gray 40 and one
# gradient step; prints the step's digest and the run's image_id.
_RUN = """
import hashlib
import numpy as np
from tivis import nn
from tivis.entropy import image_id
from tivis.training import reference_architecture
from tivis.transforms import TransformSchedule, constant_image, parse_transform_list
from tivis.visualizer import OptimConfig, StoppingCriterion, visualize

model = reference_architecture(7)
model.layers[-1].weight = np.random.default_rng(3).normal(0.0, 0.05, model.layers[-1].weight.shape)
image = np.random.default_rng(4).uniform(0.0, 255.0, (64, 64, 3))
q, g = nn.confidence_and_input_gradient(model, image, 2)
schedule = TransformSchedule(
    steps=parse_transform_list("rot:10x36"), battery=parse_transform_list("rot-sweep:45")
)
final, trace = visualize(
    model, 2, constant_image(64, 64, 40.0), schedule,
    OptimConfig(q_target=0.9, step_size=4.0, max_inner_steps=8),
    StoppingCriterion(q_test=0.85, max_outer_iterations=3),
)
step = hashlib.sha256(np.float64(q).tobytes() + g.tobytes()).hexdigest()[:16]
print(step, image_id(final), trace.status, len(trace.records))
"""

# Six gradient steps and one N=8 forward of that model; prints the name of
# the running OpenBLAS kernel and the digest of the bytes.
_KERNEL_PROBE = """
import hashlib
import numpy as np
from tivis import nn
from tivis.parallel import openblas_corename
from tivis.training import reference_architecture

model = reference_architecture(7)
rng = np.random.default_rng(3)
model.layers[-1].weight = rng.normal(0.0, 0.05, model.layers[-1].weight.shape)
images = rng.uniform(0.0, 255.0, (8, 64, 64, 3))
h = hashlib.sha256()
for image in images[:6]:
    q, g = nn.confidence_and_input_gradient(model, image, 2)
    h.update(np.float64(q).tobytes() + g.tobytes())
logits, _ = nn.forward_batch(nn.plan(model), nn.normalize_images(model.pixel_norm, images), grads=None)
h.update(logits.tobytes())
print(openblas_corename(), h.hexdigest()[:16])
"""


def _run(code=_RUN, **env_vars):
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(nn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.split()


def test_same_inputs_give_the_same_bits():
    # two fresh interpreters, and two calls in one
    assert _run() == _run()
    model, image = random_small_model(5)
    first = nn.confidence_and_input_gradient(model, image, 1)
    second = nn.confidence_and_input_gradient(model, image, 1)
    assert first[0] == second[0] and first[1].tobytes() == second[1].tobytes()


def test_bits_do_not_depend_on_the_blas_thread_count():
    one = _run(OPENBLAS_NUM_THREADS="1")
    two = _run(OPENBLAS_NUM_THREADS="2")
    assert one == two
    assert one[3] == "3"  # the run went through three passes and batteries


@pytest.mark.parametrize(
    "kernel, digest",
    # the digests differ because the kernels order a DGEMM's sums differently
    sorted((kernel, column.kernel_probe_digest) for kernel, column in golden.COLUMNS.items()),
)
def test_bits_depend_on_the_blas_kernel(kernel, digest):
    running, got = _run(_KERNEL_PROBE, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1")
    if running != kernel:
        pytest.skip(f"OpenBLAS runs {running}, not the forced {kernel}, on this CPU")
    assert got == digest, f"digest recorded under OpenBLAS kernel {kernel}; this run uses {running}"
