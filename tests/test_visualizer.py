import multiprocessing
import os
import time

import numpy as np
import pytest

from helpers import conv_relu_dense_model, one_blas_thread, random_small_model

import tivis.visualizer as viz
from tivis import nn, parallel
from tivis.errors import NonFiniteError, NonFiniteGradientError
from tivis.transforms import (
    TransformSchedule,
    TransformSpec,
    constant_image,
    default_schedule,
    parse_transform_list,
    run_battery,
)
from tivis.visualizer import (
    OptimConfig,
    StoppingCriterion,
    baseline_visualize,
    optimize_to_confidence,
    visualize,
)


def _linear_model(n=8, scale=0.02, favored=0):
    """Flatten+dense model whose favored-class row is the negated sum of the others.

    Moving along the favored row raises its logit and lowers the rest, so
    confidence rises monotonically under gradient ascent.
    """
    rng = np.random.default_rng(favored + 40)
    row = np.abs(rng.normal(0.5, 0.2, 3 * n * n)) * scale
    w = np.stack([row, -0.5 * row, -0.5 * row])
    w = np.roll(w, favored, axis=0)
    return nn.Model(
        layers=[nn.Flatten(), nn.Dense(weight=w, bias=np.zeros(3))],
        input_shape=(3, n, n),
        class_names=("a", "b", "c"),
    ).validate()


def _constant_output_model(n=8):
    return nn.Model(
        layers=[nn.Flatten(), nn.Dense(weight=np.zeros((3, 3 * n * n)), bias=np.zeros(3))],
        input_shape=(3, n, n),
        class_names=("a", "b", "c"),
    ).validate()


class TestOptimize:
    def test_already_above_target_returns_unchanged(self, tiny_confident_model):
        img = np.floor(np.random.default_rng(0).uniform(0, 256, (8, 8, 3)))
        out, steps = optimize_to_confidence(tiny_confident_model, img, 1, OptimConfig())
        assert steps == 0
        np.testing.assert_array_equal(out, img)

    def test_zero_step_size_hits_inner_cap_unchanged(self):
        model = _linear_model()
        img = constant_image(8, 8, 100.0)
        out, steps = optimize_to_confidence(
            model, img, 0, OptimConfig(step_size=0.0, max_inner_steps=7)
        )
        assert steps == 7
        np.testing.assert_array_equal(out, img)

    def test_constant_model_zero_gradient_caps(self):
        model = _constant_output_model()
        img = constant_image(8, 8, 50.0)
        out, steps = optimize_to_confidence(model, img, 1, OptimConfig(max_inner_steps=5))
        assert steps == 5
        np.testing.assert_array_equal(out, img)

    def test_linear_model_monotone_and_matches_closed_form(self):
        model = _linear_model()
        init = constant_image(8, 8, 120.0)
        # closed-form direction: the logit gradient is the weight row
        # rescaled by the pixel-norm slope, constant across steps
        g = model.layers[1].weight[0].reshape(3, 8, 8) * nn.pixel_norm_slope("unit_01")
        u = (g / np.sqrt(np.sum(g * g))).transpose(1, 2, 0)
        qs = [float(nn.forward(model, init).confidences[0])]
        for k in range(1, 8):
            out, steps = optimize_to_confidence(
                model, init, 0, OptimConfig(
                    q_target=0.999999999, step_size=2.0, max_inner_steps=k, objective="logit"
                )
            )
            assert steps == k
            np.testing.assert_allclose(out, np.clip(init + 2.0 * k * u, 0, 255), atol=1e-9)
            qs.append(float(nn.forward(model, out).confidences[0]))
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_non_finite_gradient_aborts_with_step_index(self, monkeypatch):
        model = _linear_model()
        calls = {"n": 0}
        real = nn.gradient_step

        def explode(model_, x, target, objective):
            calls["n"] += 1
            if calls["n"] >= 3:
                return 0.5, np.full((3, 8, 8), np.inf)
            return real(model_, x, target, objective)

        monkeypatch.setattr(viz, "gradient_step", explode)
        with pytest.raises(NonFiniteGradientError) as err:
            optimize_to_confidence(model, constant_image(8, 8, 10.0), 0, OptimConfig())
        assert err.value.step_index == 2


class TestVisualize:
    def _schedule(self, battery_text="rot:0"):
        return TransformSchedule(
            steps=(TransformSpec.rotation(10.0),),
            battery=parse_transform_list(battery_text),
        )

    def test_identity_battery_converges_first_iteration(self, tiny_confident_model):
        schedule = self._schedule()
        img = constant_image(8, 8, 30.0)
        out, trace = visualize(
            tiny_confident_model, 1, img, schedule, OptimConfig(), StoppingCriterion()
        )
        assert trace.status == "converged"
        assert len(trace.records) == 1
        assert trace.records[0].transform is None
        np.testing.assert_array_equal(out, img)

    def test_rotation_invariant_model_converges_one_iteration(self):
        # 1x1 conv + global average + dense: confidence depends only on the
        # mean intensity, which rotations change just through corner fill
        n = 16
        conv = nn.Conv2d(weight=np.full((1, 3, 1, 1), 1.0 / 3.0), bias=np.zeros(1))
        dense = nn.Dense(weight=np.array([[3.0], [-3.0]]), bias=np.zeros(2))
        model = nn.Model(
            layers=[conv, nn.GlobalAvgPool(), dense],
            input_shape=(3, n, n),
            class_names=("bright", "dark"),
        ).validate()
        schedule = TransformSchedule(
            steps=(TransformSpec.rotation(10.0),),
            battery=parse_transform_list("rot-sweep:10"),
        )
        config = OptimConfig(step_size=8.0, max_inner_steps=500)
        out, trace = visualize(
            model, "bright", constant_image(n, n, 127.5), schedule, config,
            StoppingCriterion(q_test=0.8, max_outer_iterations=10),
        )
        assert trace.status == "converged"
        assert len(trace.records) == 1
        assert trace.records[0].battery_min >= 0.8

    def test_iteration_cap_status_and_trace_length(self):
        model = _constant_output_model()
        schedule = self._schedule("rot:0")
        out, trace = visualize(
            model, 0, constant_image(8, 8, 80.0), schedule,
            OptimConfig(max_inner_steps=3),
            StoppingCriterion(q_test=0.5, max_outer_iterations=4),
        )
        # zero gradients: every inner pass caps, battery stays at 1/3 < 0.5
        assert trace.status == "inner_cap"
        assert len(trace.records) == 4
        assert trace.records[-1].transform is None
        assert all(r.inner_steps == 3 for r in trace.records)

    def test_q_test_above_q_target_rejected(self, tiny_confident_model):
        with pytest.raises(ValueError, match="q_test"):
            visualize(
                tiny_confident_model, 1, constant_image(8, 8, 0.0), self._schedule(),
                OptimConfig(q_target=0.9), StoppingCriterion(q_test=0.95),
            )

    def test_non_square_input_runs_and_reproduces_its_battery(self, monkeypatch):
        one_blas_thread(monkeypatch)  # so the helper forks when two CPUs are usable
        model, schedule = conv_relu_dense_model(8, 6), default_schedule()
        config, stop = OptimConfig(max_inner_steps=50), StoppingCriterion(max_outer_iterations=4)
        runs = []
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            runs.append(visualize(model, 0, constant_image(8, 6, 128.0), schedule, config, stop))
            assert multiprocessing.active_children() == []
        (alone, alone_trace), (forked, forked_trace) = runs
        assert alone.tobytes() == forked.tobytes()
        assert [repr(r) for r in alone_trace.records] == [repr(r) for r in forked_trace.records]
        assert alone.shape == (8, 6, 3) and len(alone_trace.records) == 4
        confs = np.array([c for _, c in run_battery(model, alone, 0, schedule.battery)])
        last = alone_trace.records[-1]
        assert (last.battery_min, last.battery_mean) == (float(confs.min()), float(confs.mean()))

    def test_trace_bit_reproducible(self):
        model = _linear_model()
        schedule = TransformSchedule(
            steps=parse_transform_list("rot:90,flip:h"),
            battery=parse_transform_list("rot-sweep:90"),
        )
        config = OptimConfig(q_target=0.97, step_size=4.0, max_inner_steps=50)
        stop = StoppingCriterion(q_test=0.9, max_outer_iterations=6)
        init = constant_image(8, 8, 60.0)
        out1, tr1 = visualize(model, 0, init, schedule, config, stop)
        out2, tr2 = visualize(model, 0, init, schedule, config, stop)
        np.testing.assert_array_equal(out1, out2)
        assert tr1.status == tr2.status
        assert [
            (r.index, r.transform, r.inner_steps, r.q_after, r.battery_min, r.battery_mean)
            for r in tr1.records
        ] == [
            (r.index, r.transform, r.inner_steps, r.q_after, r.battery_min, r.battery_mean)
            for r in tr2.records
        ]

    def test_converged_output_reproduces_battery_min(self):
        model = _linear_model()
        schedule = TransformSchedule(
            steps=(TransformSpec.rotation(90.0),),
            battery=parse_transform_list("rot-sweep:90"),
        )
        config = OptimConfig(q_target=0.95, step_size=4.0, max_inner_steps=200)
        stop = StoppingCriterion(q_test=0.6, max_outer_iterations=8)
        out, trace = visualize(model, 0, constant_image(8, 8, 110.0), schedule, config, stop)
        assert trace.status == "converged"
        from tivis.transforms import run_battery

        confs = [c for _, c in run_battery(model, out, 0, schedule.battery)]
        assert min(confs) == trace.records[-1].battery_min

    def test_clamp_invariant_throughout(self):
        model = _linear_model()
        config = OptimConfig(q_target=0.999999, step_size=50.0, max_inner_steps=60)
        out, steps = optimize_to_confidence(model, constant_image(8, 8, 240.0), 0, config)
        assert out.min() >= 0.0 and out.max() <= 255.0


_SPECULATION_SCHEDULE = TransformSchedule(
    steps=parse_transform_list("rot:90,flip:h"),
    battery=parse_transform_list("rot-sweep:90,flip:v"),
)
_STEADY = OptimConfig(q_target=0.95, step_size=6.0, max_inner_steps=40)
# status: (random_small_model seed, config, stop); target class 0
_SPECULATION_CASES = {
    "converged": (6, _STEADY, StoppingCriterion(q_test=0.6, max_outer_iterations=6)),
    "iteration_cap": (0, _STEADY, StoppingCriterion(q_test=0.9, max_outer_iterations=6)),
    "inner_cap": (
        1,
        OptimConfig(q_target=0.999, step_size=2.0, max_inner_steps=5),
        StoppingCriterion(q_test=0.99, max_outer_iterations=4),
    ),
}


class _CallLog:
    """(pid, kind) of each call of the functions it wraps, in call order, kept
    in a file that a forked helper appends to as well."""

    def __init__(self, path):
        self.path = path

    def wrap(self, kind, fn):
        def logged(*args):
            with open(self.path, "a") as f:
                f.write(f"{os.getpid()} {kind}\n")
            return fn(*args)

        return logged

    def calls(self, kind=None):
        lines = self.path.read_text().splitlines() if self.path.exists() else []
        calls = [(int(pid), k) for pid, k in map(str.split, lines)]
        return [c for c in calls if kind in (None, c[1])]

    def take(self):
        """The calls so far; empties the log."""
        calls = self.calls()
        self.path.unlink(missing_ok=True)
        return calls


@pytest.fixture
def call_log(monkeypatch, tmp_path):
    """Wraps the gradient step and the battery to log each call with the pid
    of the process that made it.

    The process runs one BLAS thread, so the helper forks when two CPUs are usable.
    """
    one_blas_thread(monkeypatch)
    log = _CallLog(tmp_path / "calls")
    monkeypatch.setattr(viz, "gradient_step", log.wrap("step", viz.gradient_step))
    monkeypatch.setattr(viz, "run_battery", log.wrap("battery", viz.run_battery))
    return log


def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)


class TestForkedBattery:
    """visualize runs its passes in a forked helper and each battery in the
    caller, beside the next pass."""

    @pytest.mark.parametrize("status", sorted(_SPECULATION_CASES))
    def test_forked_passes_give_the_in_process_bits(self, monkeypatch, call_log, status):
        seed, config, stop = _SPECULATION_CASES[status]
        model, image = random_small_model(seed)
        runs = {}
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            runs[cpus] = visualize(model, 0, image, _SPECULATION_SCHEDULE, config, stop)
            assert multiprocessing.active_children() == []
            calls = call_log.take()
            step_pids = {pid for pid, kind in calls if kind == "step"}
            assert {pid for pid, kind in calls if kind == "battery"} == {os.getpid()}
            if cpus == 1:
                assert step_pids == {os.getpid()}
            else:
                assert len(step_pids) == 1 and os.getpid() not in step_pids, "a step ran in the caller"
        (alone, alone_trace), (forked, forked_trace) = runs[1], runs[2]
        assert alone_trace.status == forked_trace.status == status
        assert alone.tobytes() == forked.tobytes()
        assert [repr(r) for r in alone_trace.records] == [repr(r) for r in forked_trace.records]
        if status == "converged":
            assert len(forked_trace.records) > 1  # a submitted pass was dropped

    @pytest.mark.parametrize("status", sorted(_SPECULATION_CASES))
    def test_in_process_runs_the_sequential_loops_calls(self, monkeypatch, call_log, status):
        # each pass's steps, then its battery; a converged battery leaves the
        # next pass uncomputed
        seed, config, stop = _SPECULATION_CASES[status]
        model, image = random_small_model(seed)
        _use_cpus(monkeypatch, 1)
        _, trace = visualize(model, 0, image, _SPECULATION_SCHEDULE, config, stop)
        assert trace.status == status
        want = [k for r in trace.records for k in ["step"] * (r.inner_steps + 1) + ["battery"]]
        assert call_log.take() == [(os.getpid(), k) for k in want]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failing_pass_after_a_converged_battery_returns(self, monkeypatch, call_log, cpus):
        seed, config, stop = _SPECULATION_CASES["converged"]
        model, image = random_small_model(seed)
        _use_cpus(monkeypatch, 1)
        want_image, want = visualize(model, 0, image, _SPECULATION_SCHEDULE, config, stop)
        sequential_steps = sum(r.inner_steps + 1 for r in want.records)
        call_log.take()

        _use_cpus(monkeypatch, cpus)
        real_battery = viz.run_battery

        def step(*args):  # the log counts the steps of every process, this one's included
            if len(call_log.calls("step")) > sequential_steps:  # the pass after the converged battery
                return 0.5, np.full_like(args[1], np.nan)
            return nn.gradient_step(*args)

        def slow_battery(*args):  # in the caller: the pass fails before it returns
            time.sleep(0.2)
            return real_battery(*args)

        monkeypatch.setattr(viz, "gradient_step", call_log.wrap("step", step))
        monkeypatch.setattr(viz, "run_battery", slow_battery)
        got_image, got = visualize(model, 0, image, _SPECULATION_SCHEDULE, config, stop)
        assert multiprocessing.active_children() == []
        assert got_image.tobytes() == want_image.tobytes()
        assert got.status == "converged" and got.records == want.records
        # forked, the failing pass ran; in-process it was never computed
        assert len(call_log.calls("step")) == sequential_steps + (cpus == 2)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_battery_error_reaches_the_caller(self, monkeypatch, call_log, cpus):
        seed, config, stop = _SPECULATION_CASES["iteration_cap"]
        model, image = random_small_model(seed)
        _use_cpus(monkeypatch, cpus)
        calls = {"n": 0}
        real = viz.run_battery

        def failing(*args):  # runs in the caller
            calls["n"] += 1
            if calls["n"] == 2:
                raise NonFiniteError("layer 4 (dense) produced non-finite values")
            return real(*args)

        monkeypatch.setattr(viz, "run_battery", failing)
        with pytest.raises(NonFiniteError) as err:
            visualize(model, 0, image, _SPECULATION_SCHEDULE, config, stop)
        assert type(err.value) is NonFiniteError
        assert str(err.value) == "layer 4 (dense) produced non-finite values"
        assert multiprocessing.active_children() == []

    def test_failing_pass_before_a_failing_battery_raises_the_battery_error(
        self, monkeypatch, call_log
    ):
        # the sequential loop would have raised the battery's error first
        seed, config, stop = _SPECULATION_CASES["iteration_cap"]
        model, image = random_small_model(seed)
        _use_cpus(monkeypatch, 2)

        def step(*args):
            if len(call_log.calls("step")) > config.max_inner_steps + 1:  # past the first pass
                return 0.5, np.full_like(args[1], np.inf)
            return nn.gradient_step(*args)

        def failing(*args):
            time.sleep(0.2)
            raise NonFiniteError("battery failed")

        monkeypatch.setattr(viz, "gradient_step", call_log.wrap("step", step))
        monkeypatch.setattr(viz, "run_battery", failing)
        with pytest.raises(NonFiniteError, match="battery failed"):
            visualize(model, 0, image, _SPECULATION_SCHEDULE, config, stop)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("status", ["converged", "iteration_cap"])
    def test_a_helper_that_dies_mid_pass(self, monkeypatch, call_log, status):
        # it dies in the pass after the first converged battery, which is not
        # needed, or in the third pass, which is
        seed, config, stop = _SPECULATION_CASES[status]
        model, image = random_small_model(seed)
        _use_cpus(monkeypatch, 1)
        want_image, want = visualize(model, 0, image, _SPECULATION_SCHEDULE, config, stop)
        passes = [r.inner_steps + 1 for r in want.records]
        dies_after = sum(passes) if status == "converged" else sum(passes[:2]) + 1
        call_log.take()

        _use_cpus(monkeypatch, 2)
        caller, real_battery = os.getpid(), viz.run_battery

        def step(*args):
            if len(call_log.calls("step")) > dies_after:
                assert os.getpid() != caller, "a step ran in the caller"
                os._exit(3)
            return nn.gradient_step(*args)

        def slow_battery(*args):  # the helper dies before the battery returns
            time.sleep(0.2)
            return real_battery(*args)

        monkeypatch.setattr(viz, "gradient_step", call_log.wrap("step", step))
        monkeypatch.setattr(viz, "run_battery", slow_battery)
        if status == "converged":
            got_image, got = visualize(model, 0, image, _SPECULATION_SCHEDULE, config, stop)
            assert got_image.tobytes() == want_image.tobytes()
            assert got.status == "converged" and got.records == want.records
        else:
            with pytest.raises(RuntimeError, match="the helper process exited without a result"):
                visualize(model, 0, image, _SPECULATION_SCHEDULE, config, stop)
        assert multiprocessing.active_children() == []
        assert len(call_log.calls("step")) == dies_after + 1  # the last one never returned


class TestBaseline:
    def test_constant_model_returns_init_at_cap(self):
        model = _constant_output_model()
        init = constant_image(8, 8, 70.0)
        out = baseline_visualize(model, 2, init, OptimConfig(max_inner_steps=4))
        np.testing.assert_array_equal(out, init)

    def test_matches_optimize_to_confidence(self):
        model = _linear_model()
        init = constant_image(8, 8, 90.0)
        config = OptimConfig(q_target=0.9, step_size=3.0, max_inner_steps=100)
        a = baseline_visualize(model, 0, init, config)
        b, _ = optimize_to_confidence(model, init, 0, config)
        np.testing.assert_array_equal(a, b)


class TestConfigValidation:
    def test_optim_config_ranges(self):
        with pytest.raises(ValueError):
            OptimConfig(q_target=1.0)
        for step_size in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                OptimConfig(step_size=step_size)
        with pytest.raises(ValueError):
            OptimConfig(gradient_mode="clip")
        with pytest.raises(ValueError):
            OptimConfig(objective="entropy")

    def test_stopping_criterion_ranges(self):
        with pytest.raises(ValueError):
            StoppingCriterion(q_test=0.0)
        with pytest.raises(ValueError):
            StoppingCriterion(max_outer_iterations=0)
