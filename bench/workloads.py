"""The four workloads: inputs from the seed, one timed round, its checks.

A workload object is built from the run's seed. ``setup()`` generates the
inputs and loads the cached model (it is timed, and repeated); ``run()`` is
one untraced round through the public API; ``traced()`` is the same round
with spans around each layer call; ``check()`` raises checks.CheckFailed
when an output is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tivis import (
    OptimConfig,
    StoppingCriterion,
    TrainConfig,
    TransformSchedule,
    default_schedule,
    evaluate,
    generate_dataset,
    init_sweep,
    reference_architecture,
    run_battery,
    train,
    visualize,
)
from tivis.entropy import DEFAULT_GRAY_LEVELS, DEFAULT_STRIDE, DEFAULT_WINDOW, image_id
from tivis.reports import sweep_report
from tivis.training import validation_split
from tivis.transforms import constant_image, parse_transform_list

import checks
from refmodel import COUNT_PER_CLASS, REFERENCE_SEED, load_reference_model, reference_dataset
from tracing import Tracer, battery_entry_metric, traced_sweep, traced_visualize, visualizer_metrics

TARGET = "hex_outline"

# Criterion-6 schedule and battery with a smaller step budget (20 inner
# steps, 3 outer iterations instead of 60 and 8): the full budget takes
# about 90 s on a 2-vCPU VM, too long for one run. All 27 levels stay, so
# the sweep is still 27 independent visualizations plus their analytics.
SWEEP_SCHEDULE = "rot:45x8"
SWEEP_BATTERY = "rot-sweep:45"
SWEEP_CONFIG = OptimConfig(step_size=3.0, max_inner_steps=20)
SWEEP_STOP = StoppingCriterion(q_test=0.8, max_outer_iterations=3)

TRAIN_EPOCHS = 1
REFERENCE_ACCURACY = 0.95

BATTERY_TEXT = "rot-sweep:10,scale:0.8,scale:1.25,flip:h,flip:v"
IMAGES_PER_ROUND = 2


def sweep_schedule() -> TransformSchedule:
    return TransformSchedule(
        steps=parse_transform_list(SWEEP_SCHEDULE), battery=parse_transform_list(SWEEP_BATTERY)
    )


def probe_visualization(model) -> dict:
    """Traced one-level sweep at gray 0, for workloads that run no visualization."""
    tracer = Tracer()
    traced_sweep(tracer, model, model.class_index(TARGET), sweep_schedule(), SWEEP_CONFIG,
                 SWEEP_STOP, (0,), DEFAULT_WINDOW, DEFAULT_STRIDE)
    return {**visualizer_metrics(tracer, 1), **battery_entry_metric(tracer, "visualizer.battery")}


@dataclass
class Inputs:
    model: object
    data: dict


class Workload:
    name = ""
    ops_per_round = 1  # operations attempted per round
    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed

    def failures(self, output) -> int:
        """Failed operations inside a round that returned."""
        return 0


class VisualizeRef(Workload):
    """The reference run: hex_outline from black, default schedule and config."""

    name = "visualize-ref"

    def setup(self) -> Inputs:
        model = load_reference_model()
        _, h, w = model.input_shape
        return Inputs(model, {
            "target": model.class_index(TARGET),
            "init": constant_image(h, w, 0.0),
            "schedule": default_schedule(),
            "config": OptimConfig(),
            "stop": StoppingCriterion(q_test=0.8, max_outer_iterations=108),
        })

    def run(self, inp: Inputs, index: int):
        d = inp.data
        return visualize(inp.model, d["target"], d["init"], d["schedule"], d["config"], d["stop"])

    def traced(self, inp: Inputs, tracer: Tracer, index: int):
        d = inp.data
        return traced_visualize(tracer, inp.model, d["target"], d["init"], d["schedule"], d["config"], d["stop"])

    def check(self, inp: Inputs, outputs, traced_outputs) -> None:
        d = inp.data
        ids = [image_id(image) for image, _ in outputs]
        checks.check_all_equal(ids + [image_id(image) for image in traced_outputs], "image_id")
        image, trace = outputs[0]
        checks.check_visualization(inp.model, d["target"], image, trace, d["schedule"].battery, d["stop"].q_test)
        rng = np.random.default_rng(self.seed)  # jitter and direction of the gradient check
        checks.check_directional_gradient(inp.model, image, d["target"], rng)

    def trace_metrics(self, inp: Inputs, tracer: Tracer, rounds: int) -> dict:
        analytics = probe_visualization(inp.model)["entropy.sweep_analytics_ms"]
        return {**visualizer_metrics(tracer, rounds), **battery_entry_metric(tracer, "visualizer.battery"),
                "entropy.sweep_analytics_ms": analytics}


class SweepInit(Workload):
    """init_sweep over the 27 default gray levels at a reduced step budget."""

    name = "sweep-init"
    ops_per_round = len(DEFAULT_GRAY_LEVELS)

    def setup(self) -> Inputs:
        model = load_reference_model()
        rng = np.random.default_rng(self.seed)
        return Inputs(model, {
            "target": model.class_index(TARGET),
            "schedule": sweep_schedule(),
            "levels": DEFAULT_GRAY_LEVELS,
            "recheck": int(rng.choice(DEFAULT_GRAY_LEVELS)),
        })

    def _sweep(self, inp: Inputs, levels):
        d = inp.data
        return init_sweep(inp.model, d["target"], d["schedule"], SWEEP_CONFIG, SWEEP_STOP,
                          gray_levels=levels, window=DEFAULT_WINDOW, stride=DEFAULT_STRIDE)

    def _report(self, inp: Inputs, sweep) -> str:
        return sweep_report(sweep, SWEEP_CONFIG, SWEEP_STOP, inp.data["target"], TARGET,
                            SWEEP_SCHEDULE, SWEEP_BATTERY)

    def run(self, inp: Inputs, index: int):
        sweep = self._sweep(inp, inp.data["levels"])
        return sweep, self._report(inp, sweep)

    def traced(self, inp: Inputs, tracer: Tracer, index: int):
        d = inp.data
        return traced_sweep(tracer, inp.model, d["target"], d["schedule"], SWEEP_CONFIG, SWEEP_STOP,
                            d["levels"], DEFAULT_WINDOW, DEFAULT_STRIDE)

    def failures(self, output) -> int:
        first, _ = output
        if isinstance(first, list):  # traced rows (gray, image_id, total)
            return sum(ident is None for _, ident, _ in first)
        return sum(rec.status == "error" for rec in first.records)

    def check(self, inp: Inputs, outputs, traced_outputs) -> None:
        d = inp.data
        side = (inp.model.input_shape[1] - DEFAULT_WINDOW) // DEFAULT_STRIDE + 1  # square images
        for sweep, _ in outputs:
            checks.check_sweep(sweep, d["levels"], side * side)
        checks.check_all_equal([text for _, text in outputs], "sweep reports")
        sweep = outputs[0][0]
        rows = [(r.gray, r.image_id, r.second_order_total) for r in sweep.records]
        for traced_rows, best in traced_outputs:
            checks.require(traced_rows == rows and best == sweep.best_init,
                           "traced sweep differs from init_sweep")
        # one level re-run on its own must give the record it got inside the sweep
        alone = self._sweep(inp, (d["recheck"],)).records[0]
        inside = next(r for r in sweep.records if r.gray == d["recheck"])
        checks.require(alone == inside, f"gray {d['recheck']} alone gives {alone}, in the sweep {inside}")

    def trace_metrics(self, inp: Inputs, tracer: Tracer, rounds: int) -> dict:
        return {**visualizer_metrics(tracer, rounds), **battery_entry_metric(tracer, "visualizer.battery")}


class TrainRef(Workload):
    """Reference-shaped SGD (100 images per class, batch 8), one epoch per round."""

    name = "train-ref"
    min_rounds = 2  # the weights of two rounds are compared bit for bit

    def setup(self) -> Inputs:
        model = load_reference_model()
        dataset = generate_dataset(self.seed, COUNT_PER_CLASS)
        config = TrainConfig(epochs=TRAIN_EPOCHS, seed=self.seed)
        return Inputs(model, {
            "dataset": dataset,
            "architecture": reference_architecture(self.seed),
            "config": config,
            "validation": validation_split(dataset, config),
        })

    def run(self, inp: Inputs, index: int):
        d = inp.data
        return train(d["dataset"], d["architecture"], d["config"])

    def traced(self, inp: Inputs, tracer: Tracer, index: int):
        with tracer.span("training.train"):
            return self.run(inp, index)

    def check(self, inp: Inputs, outputs, traced_outputs) -> None:
        for result in outputs:
            checks.check_training(result, inp.data["validation"])
        weights = [checks.model_bytes(r.model) for r in list(outputs) + list(traced_outputs)]
        checks.check_all_equal(weights, "final weights")
        reference = validation_split(reference_dataset(), TrainConfig(seed=REFERENCE_SEED))
        acc = evaluate(inp.model, reference)
        checks.require(acc >= REFERENCE_ACCURACY, f"reference model accuracy {acc!r} < {REFERENCE_ACCURACY}")

    def trace_metrics(self, inp: Inputs, tracer: Tracer, rounds: int) -> dict:
        return probe_visualization(inp.model)


class BatteryEval(Workload):
    """run_battery (36 rotations, two scales, two flips) over validation images."""

    name = "battery-eval"
    ops_per_round = IMAGES_PER_ROUND

    def setup(self) -> Inputs:
        model = load_reference_model()
        validation = validation_split(reference_dataset(), TrainConfig(seed=REFERENCE_SEED))
        battery = parse_transform_list(BATTERY_TEXT)
        rng = np.random.default_rng(self.seed)
        return Inputs(model, {
            "validation": validation,
            "order": rng.permutation(len(validation)),
            "battery": battery,
            # (image of the first round, battery entry) checked against the scalar oracle
            "sample": (int(rng.integers(IMAGES_PER_ROUND)), int(rng.integers(len(battery)))),
        })

    def _images(self, inp: Inputs, index: int):
        order = inp.data["order"]
        start = index * IMAGES_PER_ROUND
        return [int(order[(start + i) % len(order)]) for i in range(IMAGES_PER_ROUND)]

    def run(self, inp: Inputs, index: int):
        d = inp.data
        val = d["validation"]
        return [(i, run_battery(inp.model, val.images[i], int(val.labels[i]), d["battery"]))
                for i in self._images(inp, index)]

    def traced(self, inp: Inputs, tracer: Tracer, index: int):
        d = inp.data
        val = d["validation"]
        out = []
        for i in self._images(inp, index):
            with tracer.span("transforms.battery"):
                results = run_battery(inp.model, val.images[i], int(val.labels[i]), d["battery"])
            tracer.count("battery_entries", len(results))
            out.append((i, results))
        return out

    def check(self, inp: Inputs, outputs, traced_outputs) -> None:
        d = inp.data
        val = d["validation"]
        seen = {}
        for output in list(outputs) + list(traced_outputs):
            for i, results in output:
                seen.setdefault(i, results)
                checks.require(results == seen[i], f"image {i}: battery differs between rounds")
        for i, results in seen.items():
            checks.check_battery(inp.model, val.images[i], int(val.labels[i]), d["battery"], results)
        position, entry = d["sample"]
        i, results = outputs[0][position]
        spec, conf = results[entry]
        checks.check_battery_entry(inp.model, val.images[i], int(val.labels[i]), spec, conf)

    def trace_metrics(self, inp: Inputs, tracer: Tracer, rounds: int) -> dict:
        return {**probe_visualization(inp.model), **battery_entry_metric(tracer, "transforms.battery")}


WORKLOADS = {cls.name: cls for cls in (VisualizeRef, SweepInit, TrainRef, BatteryEval)}
