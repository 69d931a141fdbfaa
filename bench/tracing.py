"""The traced run: spans around calls into each tivis layer, and layer probes.

Spans are recorded from the benchmark's own code around calls to the public
functions of each module; nothing inside the package is wrapped. The
traced visualization replays the outer loop of ``tivis.visualize`` through
``optimize_to_confidence``, ``run_battery`` and ``apply_transform`` so the
three phases can be timed apart, and the workloads check that it returns
the same image as the untraced call.

The probes time single calls to each layer's public functions on fixed
seeded inputs; they report a per-call median.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from tivis import (
    entropy_map,
    evaluate,
    flip,
    forward,
    generate_dataset,
    load_model,
    optimize_to_confidence,
    reference_architecture,
    rotate,
    run_battery,
    scale,
    second_order_entropy,
    to_grayscale,
    train,
    TrainConfig,
)
from tivis.entropy import avg_gray_change, image_id
from tivis.errors import TivisError
from tivis.nn import confidence_and_input_gradient, normalize_images
from tivis.training import validation_split
from tivis.transforms import apply_transform, clamp, constant_image

from spec import BATCH_SIZES, REFERENCE_LAYERS


class Tracer:
    """In-memory spans (name, start, end, parent index) and counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def top_level(self) -> float:
        """Time covered by spans without a parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent is None)


def traced_visualize(tracer: Tracer, model, target: int, init, schedule, config, stop):
    """tivis.visualize with its optimize, battery and transform phases timed apart."""
    current = clamp(np.asarray(init, dtype=np.float64))
    optimized = current
    last = stop.max_outer_iterations - 1
    for index in range(stop.max_outer_iterations):
        with tracer.span("visualizer.optimize"):
            optimized, steps = optimize_to_confidence(model, current, target, config)
        tracer.count("grad_evals", steps + 1)  # one evaluation per step plus the final test
        tracer.count("outer_iters")
        with tracer.span("visualizer.battery"):
            results = run_battery(model, optimized, target, schedule.battery)
        tracer.count("battery_entries", len(results))
        if min(c for _, c in results) >= stop.q_test or index == last:
            break
        with tracer.span("visualizer.transform"):
            current = apply_transform(optimized, schedule.steps[index % len(schedule.steps)])
    return optimized


def traced_sweep(tracer: Tracer, model, target: int, schedule, config, stop, gray_levels, window, stride):
    """tivis.init_sweep traced; returns [(gray, image_id, total)] and best_init."""
    _, h, w = model.input_shape
    rows = []
    for gray in sorted(int(g) for g in gray_levels):
        init = constant_image(h, w, float(gray))
        try:
            final = traced_visualize(tracer, model, target, init, schedule, config, stop)
            with tracer.span("entropy.analytics"):
                total, _ = second_order_entropy(entropy_map(to_grayscale(final), window=window, stride=stride))
                avg_gray_change(init, final)
                ident = image_id(final)
        except (TivisError, ValueError):  # init_sweep records these as error records
            rows.append((gray, None, None))
            continue
        tracer.count("sweep_levels")
        rows.append((gray, ident, total))
    totals = [(g, t) for g, _, t in rows if t is not None]
    best = None
    if totals:
        best_total = max(t for _, t in totals)
        best = min(g for g, t in totals if t == best_total)
    return rows, best


def visualizer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Phase times and counts per round, battery entry and analytics cost per call."""
    per_round = max(rounds, 1)
    metrics = {
        "visualizer.optimize_s": tracer.total("visualizer.optimize") / per_round,
        "visualizer.battery_s": tracer.total("visualizer.battery") / per_round,
        "visualizer.transform_s": tracer.total("visualizer.transform") / per_round,
        "visualizer.grad_evals": tracer.counts["grad_evals"] / per_round,
        "visualizer.outer_iters": tracer.counts["outer_iters"] / per_round,
    }
    if tracer.counts["sweep_levels"]:
        metrics["entropy.sweep_analytics_ms"] = (
            tracer.total("entropy.analytics") / tracer.counts["sweep_levels"] * 1e3
        )
    return metrics


def battery_entry_metric(tracer: Tracer, span_name: str) -> dict:
    entries = tracer.counts["battery_entries"]
    return {"transforms.battery_entry_us": tracer.total(span_name) / entries * 1e6}


# --------------------------------------------------------------------------
# Probes: per-call medians on fixed inputs


def _median_call(fn, reps: int, inner: int = 1) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return float(np.median(times))


def layer_probes(model, rng) -> dict:
    """Forward and backward µs per call of each reference layer at N=1, 8 and 36."""
    if len(model.layers) != len(REFERENCE_LAYERS):
        raise ValueError(f"expected the {len(REFERENCE_LAYERS)}-layer reference architecture")
    reps = {1: 25, 8: 9, 36: 5}
    metrics = {}
    for n in BATCH_SIZES:
        x0 = normalize_images(model.pixel_norm, rng.uniform(0.0, 255.0, (n, 64, 64, 3)))
        dlogits = rng.normal(0.0, 0.1, (n, model.num_classes))
        fwd = defaultdict(list)
        bwd = defaultdict(list)
        for _ in range(reps[n]):
            x = x0
            caches = []
            for name, layer in zip(REFERENCE_LAYERS, model.layers):
                t0 = time.perf_counter()
                x, cache = layer.forward(x)
                fwd[name].append(time.perf_counter() - t0)
                caches.append(cache)
            d = dlogits
            for name, layer, cache in zip(
                reversed(REFERENCE_LAYERS), reversed(model.layers), reversed(caches)
            ):
                t0 = time.perf_counter()
                d, _ = layer.backward(d, cache)
                bwd[name].append(time.perf_counter() - t0)
        for name in REFERENCE_LAYERS:
            metrics[f"nn.{name}.fwd_us.n{n}"] = float(np.median(fwd[name])) * 1e6
            metrics[f"nn.{name}.bwd_us.n{n}"] = float(np.median(bwd[name])) * 1e6
    return metrics


def module_probes(model, model_path, seed: int, rng) -> dict:
    """Per-call times of the public entry points of nn, transforms, entropy,
    training, shapes and model_io."""
    image = np.floor(rng.uniform(0.0, 256.0, (64, 64, 3)))
    target = int(rng.integers(model.num_classes))
    gray = to_grayscale(image)
    m = {}
    m["nn.grad_step_us"] = _median_call(lambda: confidence_and_input_gradient(model, image, target), 15) * 1e6
    m["nn.forward_us"] = _median_call(lambda: forward(model, image), 15) * 1e6
    m["nn.validate_us"] = _median_call(model.validate, 7, inner=50) * 1e6
    m["transforms.rotate_us"] = _median_call(lambda: rotate(image, 10.0), 15) * 1e6
    m["transforms.scale_us"] = _median_call(lambda: scale(image, 0.8), 15) * 1e6
    m["transforms.flip_us"] = _median_call(lambda: flip(image, "h"), 15, inner=20) * 1e6
    m["entropy.map_ms"] = _median_call(lambda: entropy_map(gray), 9) * 1e3
    m["model_io.load_ms"] = _median_call(lambda: load_model(model_path), 9) * 1e3
    m["shapes.generate_s"] = _median_call(lambda: generate_dataset(seed, 100), 3)

    validation = validation_split(generate_dataset(7, 100), TrainConfig())
    m["training.eval_ms"] = _median_call(lambda: evaluate(model, validation), 3) * 1e3
    small = generate_dataset(seed, 20)
    config = TrainConfig(epochs=1, val_fraction=0.05, seed=seed)
    n_train = len(small) - max(1, round(config.val_fraction * len(small)))
    steps = math.ceil(n_train / config.batch_size)
    arch = reference_architecture(seed)
    m["training.step_ms"] = _median_call(lambda: train(small, arch, config), 3) / steps * 1e3
    return m
