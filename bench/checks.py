"""Correctness checks on workload outputs.

Each check compares an output against an independent computation or a
property the method guarantees, never against a stored copy of an earlier
output, and raises CheckFailed with the reason when it does not hold. The
scalar oracle is ``forward_direct`` from ``tests/helpers.py``: plain loops,
no shared code path with the vectorized engine.
"""

from __future__ import annotations

import math

import numpy as np
from helpers import forward_direct

from tivis import evaluate, forward, input_gradient, run_battery
from tivis.nn import normalize_images
from tivis.transforms import apply_transform

ORACLE_TOL = 1e-9
FD_STEP = 1e-4  # display units along a unit-norm direction
FD_RTOL = 1e-6
FD_TRIES = 20


class CheckFailed(Exception):
    """A workload output violated one of its correctness properties."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def oracle_confidence(model, image, target: int) -> float:
    """Target confidence from the scalar-loop forward pass and a plain softmax."""
    logits = [float(v) for v in forward_direct(model, image)]
    top = max(logits)
    exps = [math.exp(v - top) for v in logits]
    return exps[target] / math.fsum(exps)


def check_oracle(model, image, target: int, recorded: float, what: str) -> None:
    expected = oracle_confidence(model, image, target)
    require(
        abs(expected - recorded) <= ORACLE_TOL,
        f"{what}: recorded {recorded!r}, scalar oracle {expected!r}",
    )


def activation_pattern(model, image) -> list:
    """ReLU masks and max-pool winners: the piece of the piecewise-linear net."""
    x = normalize_images(model.pixel_norm, np.asarray(image, dtype=np.float64)[None])
    pattern = []
    for layer in model.layers:
        x, cache = layer.forward(x)
        if layer.kind == "relu":
            pattern.append(cache)
        elif layer.kind == "maxpool2x2":
            pattern.append(cache[1])
    return pattern


def check_directional_gradient(model, image, target: int, rng) -> None:
    """Central difference of the confidence vs the analytic gradient.

    The network is only piecewise smooth: flat regions of a visualization
    tie in the max pools, where the one-sided derivatives differ. The check
    therefore jitters the image and takes a segment on which no ReLU mask or
    pool winner changes, so the difference quotient is a true derivative.
    """
    for _ in range(FD_TRIES):
        point = image + rng.uniform(-0.5, 0.5, image.shape)
        g = input_gradient(model, point, target).transpose(1, 2, 0)
        r = rng.normal(0.0, 1.0, image.shape)
        direction = r / np.linalg.norm(r)
        if np.any(g):  # half along the gradient, so the derivative is far from 0
            direction = direction + g / np.linalg.norm(g)
            direction /= np.linalg.norm(direction)
        plus, minus = point + FD_STEP * direction, point - FD_STEP * direction
        base = activation_pattern(model, point)
        if all(
            all(np.array_equal(a, b) for a, b in zip(base, activation_pattern(model, p)))
            for p in (plus, minus)
        ):
            break
    else:
        raise CheckFailed(f"no kink-free segment found in {FD_TRIES} draws")
    analytic = float(np.sum(g * direction))
    q_plus = float(forward(model, plus).confidences[target])
    q_minus = float(forward(model, minus).confidences[target])
    numeric = (q_plus - q_minus) / (2.0 * FD_STEP)
    require(
        abs(numeric - analytic) <= FD_RTOL * max(abs(analytic), abs(numeric)),
        f"directional derivative: analytic {analytic!r}, finite difference {numeric!r}",
    )


def check_visualization(model, target: int, image, trace, battery, q_test: float) -> None:
    """A converged run: robust, reproducible battery, oracle-exact confidence."""
    last = trace.records[-1]
    require(trace.status == "converged", f"status {trace.status}, expected converged")
    require(last.battery_min >= q_test, f"battery_min {last.battery_min!r} < q_test {q_test!r}")
    require(
        float(image.min()) >= 0.0 and float(image.max()) <= 255.0,
        f"image leaves [0, 255]: [{image.min()!r}, {image.max()!r}]",
    )
    confs = np.array([c for _, c in run_battery(model, image, target, battery)])
    require(
        float(confs.min()) == last.battery_min and float(confs.mean()) == last.battery_mean,
        f"re-run battery min/mean {float(confs.min())!r}/{float(confs.mean())!r} differ from "
        f"recorded {last.battery_min!r}/{last.battery_mean!r}",
    )
    check_oracle(model, image, target, last.q_after, "final q_after")


def check_sweep(report, gray_levels, map_cells: int) -> None:
    """Records sorted by gray, totals in range, best_init the argmax with ties to the smaller gray."""
    grays = [rec.gray for rec in report.records]
    require(grays == sorted(int(g) for g in gray_levels), f"records not sorted by gray: {grays}")
    cap = math.log2(map_cells)
    totals = []
    for rec in report.records:
        if rec.second_order_total is None:
            continue
        require(
            0.0 <= rec.second_order_total <= cap,
            f"gray {rec.gray}: total {rec.second_order_total!r} outside [0, log2 {map_cells}]",
        )
        totals.append((rec.gray, rec.second_order_total))
    expected = None
    if totals:
        best = max(t for _, t in totals)
        expected = min(g for g, t in totals if t == best)
    require(report.best_init == expected, f"best_init {report.best_init}, argmax gives {expected}")


def check_all_equal(items, what: str) -> None:
    require(all(item == items[0] for item in items[1:]), f"{what} differ between rounds")


def check_training(result, validation) -> None:
    """History agrees with a fresh evaluation, and training made progress."""
    last = result.history[-1]
    acc = evaluate(result.model, validation)
    require(acc == last.val_accuracy, f"evaluate gives {acc!r}, history ends at {last.val_accuracy!r}")
    require(last.train_loss < math.log(6.0), f"final loss {last.train_loss!r} not below ln 6")


def model_bytes(model) -> bytes:
    return b"".join(
        np.ascontiguousarray(arr).tobytes()
        for layer in model.layers
        for arr in (getattr(layer, "weight", None), getattr(layer, "bias", None))
        if arr is not None
    )


def check_battery(model, image, target: int, battery, results) -> None:
    """Confidences are probabilities and exact symmetries give exact results."""
    require(
        [spec for spec, _ in results] == list(battery), "battery results out of battery order"
    )
    for spec, conf in results:
        require(0.0 <= conf <= 1.0, f"{spec.label()}: confidence {conf!r} outside [0, 1]")
        if spec.kind == "rotate" and spec.angle % 90.0 == 0.0:
            k = -int(spec.angle // 90.0)
            expected = forward(model, np.rot90(image, k=k, axes=(0, 1))).confidences[target]
        elif spec.kind == "flip":
            mirrored = image[:, ::-1] if spec.axis == "horizontal" else image[::-1, :]
            expected = forward(model, mirrored).confidences[target]
        else:
            continue
        require(conf == float(expected), f"{spec.label()}: {conf!r}, exact symmetry gives {float(expected)!r}")


def check_battery_entry(model, image, target: int, spec, conf: float) -> None:
    check_oracle(model, apply_transform(image, spec), target, conf, f"battery entry {spec.label()}")
