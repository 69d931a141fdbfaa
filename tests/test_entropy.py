import math
import multiprocessing
import os

import numpy as np
import pytest

from helpers import (
    clear_blas_thread_vars,
    conv_relu_dense_model,
    cooccurrence_direct,
    entropy_direct,
    entropy_of_gray_direct,
    luma_direct,
    one_blas_thread,
)

from tivis import entropy as E
from tivis import parallel as P
from tivis.errors import InvalidClassError
from tivis.reports import sweep_report
from tivis.transforms import constant_image
from tivis.visualizer import OptimConfig, StoppingCriterion


def _random_gray(seed, h=16, w=16):
    return np.random.default_rng(seed).integers(0, 256, (h, w))


class TestToGrayscale:
    def test_forced_anchor_values(self):
        img = np.array([[[0, 0, 0], [255, 255, 255], [100, 200, 50]]], dtype=float)
        gray = E.to_grayscale(img)
        assert gray.tolist() == [[0, 255, 153]]

    def test_table_against_integer_oracle(self):
        rng = np.random.default_rng(0)
        triples = rng.integers(0, 256, (200, 3))
        img = triples.reshape(1, -1, 3).astype(float)
        gray = E.to_grayscale(img)[0]
        for (r, g, b), got in zip(triples, gray):
            assert got == luma_direct(r, g, b)

    def test_monotone_in_each_channel(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            base = rng.integers(0, 250, 3).astype(float)
            v0 = E.to_grayscale(base.reshape(1, 1, 3))[0, 0]
            for ch in range(3):
                up = base.copy()
                up[ch] += rng.integers(1, 256 - int(base[ch]))
                v1 = E.to_grayscale(up.reshape(1, 1, 3))[0, 0]
                assert v1 >= v0

    def test_output_range(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 255, (9, 9, 3))
        gray = E.to_grayscale(img)
        assert gray.min() >= 0 and gray.max() <= 255


class TestCooccurrence:
    def test_constant_image_single_bin(self):
        gray = np.full((5, 7), 93)
        co = E.cooccurrence(gray)
        assert co.total == 35
        assert co.counts[93, 93] == 35
        assert co.counts.sum() == 35

    def test_probabilities_sum_to_one_exactly(self):
        co = E.cooccurrence(_random_gray(3))
        assert co.probabilities.sum() == 1.0

    def test_center_spike_hand_enumeration(self):
        gray = np.zeros((3, 3), dtype=int)
        gray[1, 1] = 255
        co = E.cooccurrence(gray)
        # 8 border pixels each see the 255 once: sum 255 -> mean 31.875 -> 32
        # center sees eight zeros -> 0
        assert co.counts[0, 32] == 8
        assert co.counts[255, 0] == 1
        assert co.counts.sum() == 9
        oracle, total = cooccurrence_direct(gray)
        assert oracle == {(0, 32): 8, (255, 0): 1} and total == 9

    def test_checkerboard_matches_bruteforce(self):
        y, x = np.mgrid[0:16, 0:16]
        gray = ((x + y) % 2) * 255
        co = E.cooccurrence(gray)
        oracle, total = cooccurrence_direct(gray)
        assert co.total == total
        dense = np.zeros((256, 256), dtype=np.int64)
        for (i, j), c in oracle.items():
            dense[i, j] = c
        np.testing.assert_array_equal(co.counts, dense)

    def test_random_images_match_bruteforce(self):
        for seed in range(4):
            gray = _random_gray(seed + 10, 12, 14)  # non-square on purpose
            co = E.cooccurrence(gray)
            oracle, total = cooccurrence_direct(gray)
            assert co.total == total == 12 * 14
            for (i, j), c in oracle.items():
                assert co.counts[i, j] == c
            assert co.counts.sum() == sum(oracle.values())

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            E.cooccurrence(np.zeros((2, 5), dtype=int))


class TestEntropy2d:
    def test_degenerate_distribution_zero(self):
        co = E.cooccurrence(np.full((4, 4), 10))
        assert E.entropy2d(co) == 0.0

    def test_single_pair_is_positive_zero(self):
        # -0.0 == 0.0, so only the sign tells them apart
        gray = np.full((64, 64), 40)
        assert math.copysign(1.0, E.entropy2d(E.cooccurrence(gray))) == 1.0
        map_ = E.entropy_map(gray)
        assert map_.values.shape == (3, 3)
        assert (np.copysign(1.0, map_.values) == 1.0).all()
        total, _ = E.second_order_entropy(map_)
        assert math.copysign(1.0, total) == 1.0

    def test_uniform_over_power_of_two_bins_exact(self):
        for k in (1, 3, 6, 8):
            counts = np.zeros((256, 256), dtype=np.int64)
            counts.ravel()[: 2**k] = 5
            co = E.CoMatrix(counts=counts, total=5 * 2**k)
            assert E.entropy2d(co) == float(k)

    def test_random_image_matches_direct_summation(self):
        for seed in range(5):
            gray = _random_gray(seed + 20, 32, 32)
            got = E.entropy2d(E.cooccurrence(gray))
            assert abs(got - entropy_of_gray_direct(gray)) <= 1e-12

    def test_bounds(self):
        for seed in range(3):
            h = E.entropy2d(E.cooccurrence(_random_gray(seed + 30)))
            assert 0.0 <= h <= 16.0


class TestEntropyMap:
    def test_constant_image_all_zero(self):
        emap = E.entropy_map(np.full((32, 32), 40), window=8, stride=8)
        assert emap.values.shape == (4, 4)
        assert np.all(emap.values == 0.0)

    def test_full_window_is_whole_image_entropy(self):
        gray = _random_gray(40, 16, 16)
        emap = E.entropy_map(gray, window=16, stride=7)
        assert emap.values.shape == (1, 1)
        assert emap.values[0, 0] == E.entropy2d(E.cooccurrence(gray))

    def test_grid_dimensions(self):
        emap = E.entropy_map(np.zeros((64, 64), dtype=int), window=32, stride=16)
        assert emap.values.shape == (3, 3)

    def test_flat_vs_noisy_halves_strict_ordering(self):
        rng = np.random.default_rng(41)
        gray = np.zeros((24, 48), dtype=np.int64)
        gray[:, :24] = 77
        gray[:, 24:] = rng.integers(0, 256, (24, 24))
        emap = E.entropy_map(gray, window=8, stride=8)
        flat = emap.values[:, :3]
        noisy = emap.values[:, 3:]
        assert flat.max() < noisy.min()
        # every window agrees with the per-window oracle
        for r in range(emap.values.shape[0]):
            for c in range(emap.values.shape[1]):
                tile = gray[r * 8 : r * 8 + 8, c * 8 : c * 8 + 8]
                assert abs(emap.values[r, c] - entropy_of_gray_direct(tile)) <= 1e-12

    def test_window_too_large_rejected(self):
        with pytest.raises(ValueError, match="window"):
            E.entropy_map(np.zeros((8, 8), dtype=int), window=16, stride=4)


class TestSecondOrder:
    def test_quantization_anchors(self):
        emap = E.EntropyMap(values=np.array([[16.0, 0.0, 8.0]]), window=8, stride=8)
        np.testing.assert_array_equal(E.quantize_map(emap), [[255, 0, 127]])

    def test_constant_map_zero(self):
        emap = E.EntropyMap(values=np.full((4, 4), 5.5), window=8, stride=8)
        total, quantized = E.second_order_entropy(emap)
        assert total == 0.0
        assert np.all(quantized == quantized[0, 0])

    def test_structured_map_beats_flat_map_of_equal_mean(self):
        y, x = np.mgrid[0:9, 0:9]
        rings = (np.sin(np.hypot(x - 4, y - 4) * 1.8) + 1.0) * 6.0
        ring_map = E.EntropyMap(values=rings, window=8, stride=8)
        flat_map = E.EntropyMap(values=np.full((9, 9), rings.mean()), window=8, stride=8)
        ring_total, ring_q = E.second_order_entropy(ring_map)
        flat_total, _ = E.second_order_entropy(flat_map)
        assert ring_total > flat_total
        # oracle agreement on the structured map
        assert abs(ring_total - entropy_of_gray_direct(ring_q)) <= 1e-12
        assert flat_total == 0.0

    def test_small_map_flagged(self):
        emap = E.EntropyMap(values=np.zeros((2, 3)), window=8, stride=8)
        with pytest.raises(E.MapTooSmallError):
            E.second_order_entropy(emap)


class TestAvgGrayChange:
    def test_identical_images_zero(self):
        img = constant_image(8, 8, 123.0)
        assert E.avg_gray_change(img, img) == 0.0

    def test_black_to_white_is_255(self):
        a = constant_image(8, 8, 0.0)
        b = constant_image(8, 8, 255.0)
        assert E.avg_gray_change(a, b) == 255.0

    def test_random_pair_matches_direct_mean(self):
        rng = np.random.default_rng(50)
        a = np.floor(rng.uniform(0, 256, (6, 7, 3)))
        b = np.floor(rng.uniform(0, 256, (6, 7, 3)))
        ga, gb = E.to_grayscale(a), E.to_grayscale(b)
        direct = sum(abs(int(x) - int(y)) for x, y in zip(ga.ravel(), gb.ravel())) / ga.size
        assert abs(E.avg_gray_change(a, b) - direct) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            E.avg_gray_change(constant_image(4, 4, 0), constant_image(5, 5, 0))


class TestInitSweep:
    def _setup(self):
        # rotation-insensitive linear model: mean intensity drives confidence
        from tivis import nn
        from tivis.transforms import TransformSchedule, parse_transform_list

        n = 64
        conv = nn.Conv2d(weight=np.full((1, 3, 1, 1), 1.0 / 3.0), bias=np.zeros(1))
        dense = nn.Dense(weight=np.array([[3.0], [-3.0]]), bias=np.zeros(2))
        model = nn.Model(
            layers=[conv, nn.GlobalAvgPool(), dense],
            input_shape=(3, n, n),
            class_names=("bright", "dark"),
        ).validate()
        schedule = TransformSchedule(
            steps=parse_transform_list("rot:90"),
            battery=parse_transform_list("rot-sweep:90"),
        )
        config = OptimConfig(step_size=16.0, max_inner_steps=60)
        stop = StoppingCriterion(q_test=0.8, max_outer_iterations=3)
        return model, schedule, config, stop

    def test_single_level_report(self):
        model, schedule, config, stop = self._setup()
        report = E.init_sweep(model, 0, schedule, config, stop, gray_levels=(40,))
        assert len(report.records) == 1
        assert report.best_init == 40
        rec = report.records[0]
        assert rec.avg_gray_change is not None and rec.second_order_total is not None

    def test_order_invariance(self):
        model, schedule, config, stop = self._setup()
        levels = (0, 60, 120, 200)
        fwd = E.init_sweep(model, 0, schedule, config, stop, gray_levels=levels)
        rev = E.init_sweep(model, 0, schedule, config, stop, gray_levels=levels[::-1])
        assert fwd.best_init == rev.best_init
        assert [(r.gray, r.second_order_total) for r in fwd.records] == [
            (r.gray, r.second_order_total) for r in rev.records
        ]

    def test_failure_recorded_not_fatal(self, monkeypatch):
        model, schedule, config, stop = self._setup()
        import tivis.visualizer as viz
        real = viz.visualize

        def flaky(model_, target, init, schedule_, config_, stop_):
            if float(init[0, 0, 0]) == 60.0:
                raise ValueError("synthetic failure for gray 60")
            return real(model_, target, init, schedule_, config_, stop_)

        monkeypatch.setattr(viz, "visualize", flaky)
        report = E.init_sweep(model, 0, schedule, config, stop, gray_levels=(60, 120))
        by_gray = {r.gray: r for r in report.records}
        assert by_gray[60].status == "error"
        assert "synthetic failure" in by_gray[60].error
        assert by_gray[120].second_order_total is not None
        assert report.best_init == 120

    def test_argmax_tie_breaks_to_smaller_gray(self):
        # constant-output model: zero gradients leave every init unchanged,
        # so every gray level scores an identical second-order total (0.0)
        # and the tie must resolve to the smallest level
        from tivis import nn
        from tivis.transforms import TransformSchedule, parse_transform_list

        n = 64
        model = nn.Model(
            layers=[nn.Flatten(), nn.Dense(weight=np.zeros((2, 3 * n * n)), bias=np.zeros(2))],
            input_shape=(3, n, n),
            class_names=("a", "b"),
        ).validate()
        schedule = TransformSchedule(
            steps=parse_transform_list("rot:90"),
            battery=parse_transform_list("rot:0"),
        )
        report = E.init_sweep(
            model, 0, schedule,
            OptimConfig(max_inner_steps=1),
            StoppingCriterion(q_test=0.9, max_outer_iterations=1),
            gray_levels=(200, 30, 90),
        )
        totals = [r.second_order_total for r in report.records]
        assert totals == [0.0, 0.0, 0.0]
        assert report.best_init == 30

    def test_empty_levels_rejected(self):
        model, schedule, config, stop = self._setup()
        with pytest.raises(ValueError):
            E.init_sweep(model, 0, schedule, config, stop, gray_levels=())

    @pytest.mark.parametrize("bad", [-1, 256, 300])
    def test_out_of_range_level_rejected_before_any_run(self, monkeypatch, bad):
        model, schedule, config, stop = self._setup()
        import tivis.visualizer as viz

        def never(*args):
            raise AssertionError("visualize ran before the gray levels were checked")

        monkeypatch.setattr(viz, "visualize", never)
        with pytest.raises(ValueError, match=rf"must be in \[0, 255\], got {bad}"):
            E.init_sweep(model, 0, schedule, config, stop, gray_levels=(0, 128, bad))

    def test_repeated_level_rejected_before_any_run(self, monkeypatch):
        model, schedule, config, stop = self._setup()
        import tivis.visualizer as viz

        def never(*args):
            raise AssertionError("visualize ran before the gray levels were checked")

        monkeypatch.setattr(viz, "visualize", never)
        with pytest.raises(ValueError, match=r"^gray level 5 is given more than once$"):
            E.init_sweep(model, 0, schedule, config, stop, gray_levels=(5, 128, 5.0))

    @pytest.mark.parametrize(
        "window, stride, error, message",
        [
            (1, 16, ValueError, "window must be at least 3, got 1"),
            (65, 16, ValueError, "window 65 exceeds image size 64x64"),
            (32, 0, ValueError, "stride must be >= 1, got 0"),
            (48, 16, E.MapTooSmallError, "entropy map is 2x2"),
        ],
    )
    def test_bad_map_settings_rejected_before_any_run(
        self, monkeypatch, window, stride, error, message
    ):
        model, schedule, config, stop = self._setup()
        import tivis.visualizer as viz

        def never(*args):
            raise AssertionError("visualize ran before the entropy settings were checked")

        monkeypatch.setattr(viz, "visualize", never)
        with pytest.raises(error, match=message):
            E.init_sweep(
                model, 0, schedule, config, stop, gray_levels=(0, 128), window=window, stride=stride
            )

    def test_non_square_input_runs_every_level(self):
        # its entropy map fits, and its batteries turn it about ((W-1)/2, (H-1)/2)
        model = conv_relu_dense_model(80, 64)
        _, schedule, _, stop = self._setup()
        config = OptimConfig(max_inner_steps=20)
        report = E.init_sweep(model, 0, schedule, config, stop, gray_levels=(0, 128, 255))
        assert [rec.gray for rec in report.records] == [0, 128, 255]
        assert [rec.error for rec in report.records] == [None, None, None]
        assert all(rec.second_order_total is not None for rec in report.records)

    @pytest.mark.parametrize(
        "target, q_test, error, message",
        [
            (0, 0.995, ValueError, r"^q_test \(0\.995\) must not exceed q_target \(0\.99\)$"),
            ("zzz", 0.8, InvalidClassError, r"^unknown class name 'zzz'$"),
        ],
    )
    def test_run_wide_errors_raise_before_any_step(
        self, monkeypatch, target, q_test, error, message
    ):
        # an error that fails every level is raised once, not recorded per level
        import tivis.visualizer as viz

        model, schedule, _, stop = self._setup()
        steps = []
        step = viz.gradient_step
        monkeypatch.setattr(viz, "gradient_step", lambda *args: steps.append(1) or step(*args))
        monkeypatch.setattr(P, "_usable_cpus", lambda: 1)  # every step in this process
        stop = StoppingCriterion(q_test=q_test, max_outer_iterations=stop.max_outer_iterations)
        with pytest.raises(error, match=message):
            E.init_sweep(model, target, schedule, OptimConfig(), stop, gray_levels=(0, 128, 255))
        assert steps == []

    def test_default_gray_levels_match_contract(self):
        assert len(E.DEFAULT_GRAY_LEVELS) == 27
        assert E.DEFAULT_GRAY_LEVELS[0] == 0
        assert E.DEFAULT_GRAY_LEVELS[-2:] == (250, 255)
        assert all(b - a == 10 for a, b in zip(E.DEFAULT_GRAY_LEVELS[:25], E.DEFAULT_GRAY_LEVELS[1:26]))


class TestParallelSweep:
    """The sweep's levels go through parallel.fork_map; its worker rule is tested here."""

    _setup = TestInitSweep._setup
    levels = (0, 60, 120, 200, 255)

    def _two_workers(self, monkeypatch):
        monkeypatch.setattr(P, "_usable_cpus", lambda: 2)
        one_blas_thread(monkeypatch)
        assert P._plan(len(self.levels)) == 2

    def test_workers_match_one_level_sweeps_and_in_process_report(self, monkeypatch):
        model, schedule, config, stop = self._setup()

        def report(sweep):
            return sweep_report(sweep, config, stop, 0, "bright", "rot:90", "rot-sweep:90")

        self._two_workers(monkeypatch)
        pooled = E.init_sweep(model, 0, schedule, config, stop, gray_levels=self.levels[::-1])
        assert multiprocessing.active_children() == []
        alone = [
            E.init_sweep(model, 0, schedule, config, stop, gray_levels=(g,)).records[0]
            for g in self.levels
        ]
        assert pooled.records == alone
        monkeypatch.setattr(P, "_usable_cpus", lambda: 1)
        assert P._plan(len(self.levels)) == 1
        in_process = E.init_sweep(model, 0, schedule, config, stop, gray_levels=self.levels)
        assert report(pooled) == report(in_process)
        assert pooled.best_init == in_process.best_init

    def test_levels_run_in_worker_processes(self, monkeypatch):
        model, schedule, config, stop = self._setup()
        import tivis.visualizer as viz

        def report_pid(*args):
            raise ValueError(f"pid {os.getpid()}")

        monkeypatch.setattr(viz, "visualize", report_pid)
        self._two_workers(monkeypatch)
        report = E.init_sweep(model, 0, schedule, config, stop, gray_levels=self.levels)
        assert [r.gray for r in report.records] == list(self.levels)
        pids = {int(r.error.split()[1]) for r in report.records}
        assert os.getpid() not in pids
        assert report.best_init is None

    def test_no_worker_outlives_an_unrecorded_failure(self, monkeypatch):
        model, schedule, config, stop = self._setup()
        import tivis.visualizer as viz

        def crash(*args):
            raise RuntimeError("not a recorded failure")

        monkeypatch.setattr(viz, "visualize", crash)
        self._two_workers(monkeypatch)
        with pytest.raises(RuntimeError, match="not a recorded failure"):
            E.init_sweep(model, 0, schedule, config, stop, gray_levels=self.levels)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "cpus, var, value, pin, levels, workers",
        [
            (2, None, None, True, 27, 2),
            (2, None, None, False, 27, 1),  # unpinnable: a BLAS thread per CPU in each worker
            (1, None, None, True, 27, 1),
            (8, None, None, True, 3, 3),  # never more workers than levels
            (2, "OPENBLAS_NUM_THREADS", "1", False, 27, 2),
            (2, "OPENBLAS_NUM_THREADS", "2", True, 27, 1),
            (4, "OMP_NUM_THREADS", "2", True, 27, 2),
            (5, "MKL_NUM_THREADS", "2", True, 27, 2),
            (3, "OMP_NUM_THREADS", "4,2", True, 27, 1),
            (2, "OPENBLAS_NUM_THREADS", "0", True, 27, 1),  # the library default: all CPUs
            (2, "OPENBLAS_NUM_THREADS", "", True, 27, 1),
            (2, "OPENBLAS_NUM_THREADS", "two", True, 27, 1),
        ],
    )
    def test_worker_count_rule(self, monkeypatch, cpus, var, value, pin, levels, workers):
        monkeypatch.setattr(P, "_usable_cpus", lambda: cpus)
        setter = (lambda n: None) if pin else None
        monkeypatch.setattr(P, "_openblas_function", lambda *args: setter)
        clear_blas_thread_vars(monkeypatch)
        if var is not None:
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(P, "_BLAS_THREADS", P._blas_threads())  # as at import
        assert P._plan(levels) == workers

    @pytest.mark.parametrize("blocker", ["no fork", "daemon"])
    def test_no_workers_without_fork_or_in_a_daemon(self, monkeypatch, blocker):
        monkeypatch.setattr(P, "_usable_cpus", lambda: 4)
        one_blas_thread(monkeypatch)
        assert P._plan(27) == 4
        if blocker == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        else:
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert P._plan(27) == 1

    @pytest.mark.parametrize("var", P.BLAS_THREAD_VARS)
    def test_blas_pin_leaves_a_user_setting_alone(self, monkeypatch, var):
        calls = []
        monkeypatch.setattr(P, "_usable_cpus", lambda: 6)
        monkeypatch.setattr(P, "_openblas_function", lambda *args: calls.append)
        clear_blas_thread_vars(monkeypatch)
        monkeypatch.setenv(var, "3")
        monkeypatch.setattr(P, "_BLAS_THREADS", P._blas_threads())  # as at import
        assert P._plan(27) == 2 and calls == []  # three threads per worker, unpinned
        monkeypatch.delenv(var)
        monkeypatch.setattr(P, "_BLAS_THREADS", P._blas_threads())
        assert P._plan(27) == 6 and calls == [1]  # else one, pinned
