"""Transformation-robust class visualization by iterated gradient ascent.

The outer loop alternates three phases:

1. optimize the current image until the target-class confidence exceeds
   q_target (or the inner step cap is hit),
2. test the optimized image against the transform battery,
3. if the worst battery confidence is still below q_test, apply the next
   scheduled transform and go around again.

Convergence uses the minimum over the battery because robustness is a
worst-case property. The returned image is the optimized, pre-transform
image: it is the exact buffer that passed (or last faced) the battery, so
re-running the battery on it reproduces the recorded confidences.

Each inner pass restarts plain gradient ascent from the transformed image;
no state carries over between passes.

A battery only decides whether to stop: the next pass starts from the
transformed image whatever the battery finds. So the passes run on a
``parallel.Helper``, and the caller submits the next pass before it runs the
battery on the last one. When the battery converges, the next pass's result
is never taken, and the helper drops it; otherwise taking it raises what the
pass raised, where the loop run in sequence would have raised it. A helper
that runs in-process computes a pass only when its result is taken, so it
runs the passes and batteries of that loop in their order. Either way the
records, the status and the image are the bits of that loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteGradientError
from .nn import OBJECTIVES, Model, check_input, gradient_step
from .parallel import Helper
from .transforms import TransformSchedule, TransformSpec, apply_transform, clamp, run_battery

GRADIENT_MODES = ("raw", "l2_normalized")

STATUS_CONVERGED = "converged"
STATUS_ITERATION_CAP = "iteration_cap"
STATUS_INNER_CAP = "inner_cap"


@dataclass(frozen=True)
class OptimConfig:
    q_target: float = 0.99
    step_size: float = 1.0  # display units per step; 0 is legal (no-op steps)
    max_inner_steps: int = 500
    gradient_mode: str = "l2_normalized"
    objective: str = "softmax_confidence"

    def __post_init__(self):
        if not 0.0 < self.q_target < 1.0:
            raise ValueError(f"q_target must be in (0, 1), got {self.q_target}")
        if not (math.isfinite(self.step_size) and self.step_size >= 0):
            raise ValueError(f"step_size must be finite and >= 0, got {self.step_size}")
        if self.max_inner_steps < 1:
            raise ValueError(f"max_inner_steps must be >= 1, got {self.max_inner_steps}")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ValueError(f"gradient_mode must be one of {GRADIENT_MODES}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")


@dataclass(frozen=True)
class StoppingCriterion:
    q_test: float = 0.8
    max_outer_iterations: int = 108

    def __post_init__(self):
        if not 0.0 < self.q_test < 1.0:
            raise ValueError(f"q_test must be in (0, 1), got {self.q_test}")
        if self.max_outer_iterations < 1:
            raise ValueError(f"max_outer_iterations must be >= 1, got {self.max_outer_iterations}")


DEFAULT_REVOLUTIONS = 3  # full passes over the schedule in the default budget


def default_stop(schedule: TransformSchedule, q_test: float = 0.8) -> StoppingCriterion:
    """Outer-iteration budget of DEFAULT_REVOLUTIONS full passes over the schedule."""
    return StoppingCriterion(
        q_test=q_test, max_outer_iterations=DEFAULT_REVOLUTIONS * len(schedule.steps)
    )


@dataclass(frozen=True)
class IterationRecord:
    index: int
    transform: TransformSpec | None  # applied after this iteration; None if last
    inner_steps: int
    q_after: float
    battery_min: float
    battery_mean: float


@dataclass
class RunTrace:
    records: list
    status: str


def optimize_to_confidence(model, image, target_class, config: OptimConfig):
    """Gradient-ascend the image until confidence exceeds config.q_target.

    Returns (optimized image, inner steps used). An image already above the
    target comes back unchanged with 0 steps.
    """
    img, steps, _ = _optimize(model, image, target_class, config)
    return img, steps


def _optimize(model, image, target_class, config: OptimConfig):
    """(image, steps, q) of one pass."""
    # one check per pass; the steps hold the image in the gradient's (3, H, W)
    # layout, and each step operation is elementwise, so the bits are as in (H, W, 3)
    x = np.ascontiguousarray(check_input(model, image).transpose(2, 0, 1))
    target = model.class_index(target_class)
    steps = 0
    while True:
        q, g = gradient_step(model, x, target, config.objective)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(steps)
        if q > config.q_target or steps >= config.max_inner_steps:
            return np.ascontiguousarray(x.transpose(1, 2, 0)), steps, q
        x = clamp(x + config.step_size * _direction(g, config.gradient_mode))
        steps += 1


def _direction(g: np.ndarray, mode: str) -> np.ndarray:
    if mode == "raw":
        return g
    norm = math.sqrt(float(np.sum(g * g)))
    if norm == 0.0:
        return np.zeros_like(g)
    return g / norm


def visualize(
    model: Model,
    target_class,
    init: np.ndarray,
    schedule: TransformSchedule,
    config: OptimConfig,
    stop: StoppingCriterion,
):
    """Full transformation-robust visualization run.

    Returns (image, trace). The image is the last optimized buffer; the
    trace records every outer iteration and the final status.
    """
    if stop.q_test > config.q_target:
        raise ValueError(
            f"q_test ({stop.q_test}) must not exceed q_target ({config.q_target})"
        )
    target = model.class_index(target_class)
    last = stop.max_outer_iterations - 1

    def battery(image):
        confs = np.array([c for _, c in run_battery(model, image, target, schedule.battery)])
        return float(confs.min()), float(confs.mean())

    def next_pass(job):  # (image, spec): a pass from the transformed image, or from image
        image, spec = job
        start = image if spec is None else apply_transform(image, spec)
        return _optimize(model, start, target, config)

    records = []
    with Helper(next_pass) as helper:
        helper.submit((clamp(np.asarray(init, dtype=np.float64)), None))
        for index in range(stop.max_outer_iterations):
            optimized, inner, q = helper.result()
            spec = None
            if index < last:
                spec = schedule.steps[index % len(schedule.steps)]
                helper.submit((optimized, spec))
            bmin, bmean = battery(optimized)
            if bmin >= stop.q_test:
                records.append(IterationRecord(index, None, inner, q, bmin, bmean))
                return optimized, RunTrace(records=records, status=STATUS_CONVERGED)
            records.append(IterationRecord(index, spec, inner, q, bmin, bmean))
    # Not converged: report whether the inner loop or the outer budget bound us.
    status = (
        STATUS_INNER_CAP
        if inner >= config.max_inner_steps and q <= config.q_target
        else STATUS_ITERATION_CAP
    )
    return optimized, RunTrace(records=records, status=status)


def baseline_visualize(model: Model, target_class, init: np.ndarray, config: OptimConfig):
    """Single optimization pass with no transformations (the classic method)."""
    img, _ = optimize_to_confidence(model, clamp(np.asarray(init, dtype=np.float64)), target_class, config)
    return img
