"""Each correctness check of the benchmark rejects a deliberately wrong output.

Run with ``python3 -m pytest bench``; the cases use the small random models
of tests/helpers.py and take seconds.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import random_small_model

import checks
from tivis import ShapeDataset, evaluate, run_battery
from tivis.entropy import InitRecord, SweepReport
from tivis.training import EpochRecord, TrainResult
from tivis.transforms import parse_transform_list
from tivis.visualizer import IterationRecord, RunTrace

BATTERY = parse_transform_list("rot-sweep:30,scale:0.8,scale:1.25,flip:h,flip:v")


def _case(seed):
    model, image = random_small_model(seed)
    return model, image, seed % model.num_classes


def _perturb(results, index, delta=1e-6):
    out = list(results)
    spec, conf = out[index]
    out[index] = (spec, conf + delta)
    return out


@pytest.mark.parametrize("seed", range(3))
def test_battery_check_accepts_engine_output(seed):
    model, image, target = _case(seed)
    results = run_battery(model, image, target, BATTERY)
    checks.check_battery(model, image, target, BATTERY, results)
    spec, conf = results[1]
    checks.check_battery_entry(model, image, target, spec, conf)


@pytest.mark.parametrize("label", ["rot:90", "rot:180", "flip:h", "flip:v"])
def test_battery_check_rejects_perturbed_symmetry(label):
    model, image, target = _case(0)
    results = run_battery(model, image, target, BATTERY)
    index = [spec.label() for spec in BATTERY].index(label)
    with pytest.raises(checks.CheckFailed):
        checks.check_battery(model, image, target, BATTERY, _perturb(results, index))


def test_battery_check_rejects_confidence_outside_unit_interval():
    model, image, target = _case(1)
    results = run_battery(model, image, target, BATTERY)
    with pytest.raises(checks.CheckFailed):
        checks.check_battery(model, image, target, BATTERY, _perturb(results, 1, delta=2.0))


def test_oracle_rejects_perturbed_confidence():
    model, image, target = _case(2)
    spec, conf = run_battery(model, image, target, BATTERY)[1]
    with pytest.raises(checks.CheckFailed):
        checks.check_battery_entry(model, image, target, spec, conf + 1e-6)


def _converged_trace(model, image, target):
    confs = np.array([c for _, c in run_battery(model, image, target, BATTERY)])
    q = checks.oracle_confidence(model, image, target)
    record = IterationRecord(0, None, 0, q, float(confs.min()), float(confs.mean()))
    return RunTrace(records=[record], status="converged"), float(confs.min())


def test_visualization_check_accepts_consistent_trace_and_rejects_perturbed_ones():
    model, image, target = _case(3)
    trace, q_test = _converged_trace(model, image, target)
    checks.check_visualization(model, target, image, trace, BATTERY, q_test)
    last = trace.records[-1]
    for bad in (
        replace(last, q_after=last.q_after + 1e-6),
        replace(last, battery_min=last.battery_min + 1e-12),
        replace(last, battery_mean=last.battery_mean - 1e-12),
    ):
        with pytest.raises(checks.CheckFailed):
            checks.check_visualization(model, target, image, RunTrace([bad], "converged"), BATTERY, q_test)
    with pytest.raises(checks.CheckFailed):
        checks.check_visualization(model, target, image, RunTrace([last], "inner_cap"), BATTERY, q_test)
    with pytest.raises(checks.CheckFailed):
        checks.check_visualization(model, target, image + 300.0, trace, BATTERY, q_test)


@pytest.mark.parametrize("seed", range(3))
def test_directional_gradient_check_passes_on_engine_gradient(seed):
    model, image, target = _case(seed)
    checks.check_directional_gradient(model, image, target, np.random.default_rng(seed))


def _sweep(totals, best):
    records = [
        InitRecord(gray=g, status="inner_cap", image_id="0" * 16, avg_gray_change=1.0, second_order_total=t)
        for g, t in totals
    ]
    return SweepReport(records=records, best_init=best, window=32, stride=16)


LEVELS = (0, 10, 20, 30)
TOTALS = [(0, 2.5), (10, math.log2(9)), (20, 1.0), (30, math.log2(9))]


def test_sweep_check_accepts_argmax_with_smaller_gray_tie():
    checks.check_sweep(_sweep(TOTALS, 10), LEVELS, 9)


def test_sweep_check_rejects_unsorted_records():
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(_sweep([TOTALS[1], TOTALS[0]] + TOTALS[2:], 10), LEVELS, 9)


@pytest.mark.parametrize("best", [30, 0, None])
def test_sweep_check_rejects_wrong_argmax(best):
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(_sweep(TOTALS, best), LEVELS, 9)


def test_sweep_check_rejects_total_above_map_capacity():
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(_sweep(TOTALS[:3] + [(30, 3.2)], 30), LEVELS, 9)


def test_all_equal_rejects_differing_rounds():
    checks.check_all_equal(["a", "a"], "reports")
    with pytest.raises(checks.CheckFailed):
        checks.check_all_equal(["a", "b"], "reports")


def test_training_check_rejects_history_that_disagrees():
    model, image = random_small_model(4)
    rng = np.random.default_rng(4)
    size = image.shape[0]
    dataset = ShapeDataset(
        images=np.floor(rng.uniform(0, 256, (12, size, size, 3))),
        labels=rng.integers(model.num_classes, size=12),
        seed=0,
        class_names=model.class_names,
    )
    acc = evaluate(model, dataset)
    checks.check_training(TrainResult(model, [EpochRecord(0, 1.0, acc)]), dataset)
    for bad in (EpochRecord(0, 1.0, acc + 1 / 12), EpochRecord(0, math.log(6.0), acc)):
        with pytest.raises(checks.CheckFailed):
            checks.check_training(TrainResult(model, [bad]), dataset)
