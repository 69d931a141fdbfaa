"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. The heavyweight pieces (reference training, the full
visualization runs) are deliberately kept inside this module so the whole
contract is exercised end to end.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    cooccurrence_direct,
    entropy_direct,
    fd_input_gradient,
    luma_direct,
    random_small_model,
)

from tivis import entropy as E
from tivis import nn
from tivis.model_io import load_model, save_model
from tivis.parallel import fork_map
from tivis.ppm import read_ppm, write_ppm
from tivis.probes import ScreenRect, zero_square
from tivis.reports import sweep_report
from tivis.rng import uniform_field
from tivis.shapes import CLASS_NAMES
from tivis.training import validation_split
from tivis.transforms import (
    TransformSchedule,
    clamp,
    constant_image,
    default_schedule,
    flip,
    parse_transform_list,
    rotate,
    run_battery,
    scale,
)
from tivis.visualizer import OptimConfig, StoppingCriterion, baseline_visualize, visualize


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {number} ({name}): FAIL")
        raise
    print(f"\nCRITERION {number} ({name}): PASS")


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness, 50 finite-difference checks"):
        t0 = time.time()
        checked = 0
        for seed in range(50):
            model, image = random_small_model(seed)
            target = seed % model.num_classes
            objective = "softmax_confidence" if seed % 3 else "logit"
            g = nn.input_gradient(model, image, target, objective=objective)
            gfd = fd_input_gradient(model, image, target, objective, h=1e-4)
            mask = np.abs(g) > 1e-8
            if not mask.any():
                continue
            rel = np.abs(g - gfd)[mask] / np.abs(g)[mask]
            assert rel.max() <= 1e-5, f"seed {seed}: max rel err {rel.max():.3e}"
            checked += 1
        elapsed = time.time() - t0
        assert checked >= 45
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_entropy_oracle_equivalence():
    with criterion(2, "co-occurrence entropy vs brute-force oracle"):
        rng = np.random.default_rng(202)
        for _ in range(20):
            gray = rng.integers(0, 256, (32, 32))
            co = E.cooccurrence(gray)
            counts, total = cooccurrence_direct(gray)
            assert co.total == total
            for (i, j), c in counts.items():
                assert co.counts[i, j] == c
            assert co.counts.sum() == sum(counts.values())
            assert abs(E.entropy2d(co) - entropy_direct(counts, total)) <= 1e-12
        # constant image: exactly zero
        assert E.entropy2d(E.cooccurrence(np.full((32, 32), 128))) == 0.0
        # uniform over 2^k bins: exactly k bits
        for k in (2, 5, 9, 12):
            counts = np.zeros((256, 256), dtype=np.int64)
            counts.ravel()[: 2**k] = 3
            assert E.entropy2d(E.CoMatrix(counts=counts, total=3 * 2**k)) == float(k)


def test_criterion_3_bt601_bit_exactness():
    with criterion(3, "BT.601 grayscale, 1000-triple table"):
        anchors = [(0, 0, 0, 0), (255, 255, 255, 255), (100, 200, 50, 153)]
        rng = np.random.default_rng(601)
        triples = [tuple(map(int, rng.integers(0, 256, 3))) for _ in range(997)]
        mismatches = 0
        for r, g, b, expected in anchors:
            got = int(E.to_grayscale(np.array([[[r, g, b]]], dtype=float))[0, 0])
            mismatches += got != expected
        for r, g, b in triples:
            got = int(E.to_grayscale(np.array([[[r, g, b]]], dtype=float))[0, 0])
            mismatches += got != luma_direct(r, g, b)
        assert mismatches == 0


def test_criterion_4_transform_exactness():
    with criterion(4, "transform exactness and energy bound"):
        rng = np.random.default_rng(404)
        for trial in range(5):
            n = int(rng.integers(4, 33))
            img = np.floor(rng.uniform(0, 256, (n, n, 3)))
            np.testing.assert_array_equal(rotate(img, 0), img)
            for k in (1, 2, 3):
                np.testing.assert_array_equal(
                    rotate(img, 90 * k), np.rot90(img, k=-k, axes=(0, 1))
                )
            np.testing.assert_array_equal(
                rotate(img, -90), np.rot90(img, k=1, axes=(0, 1))
            )
            for axis in ("horizontal", "vertical"):
                np.testing.assert_array_equal(flip(flip(img, axis), axis), img)
            hi = img.max()
            for out in (
                rotate(img, 17.21),
                rotate(img, 301.5),
                scale(img, 0.6),
                scale(img, 1.7),
                flip(img, "horizontal"),
            ):
                assert out.min() >= 0.0 and out.max() <= hi


@pytest.mark.slow
def test_criterion_5_desk_scale_central_claim(reference_run, reference_dataset):
    with criterion(5, "transformation-invariant visualization beats baseline"):
        result, config, train_seconds = reference_run
        t0 = time.time()
        assert train_seconds < 600.0, f"training took {train_seconds:.0f}s"
        val_acc = result.history[-1].val_accuracy
        assert val_acc >= 0.95, f"val accuracy {val_acc}"
        # cross-check on the exact held-out split
        from tivis.training import evaluate

        assert evaluate(result.model, validation_split(reference_dataset, config)) == val_acc

        model = result.model
        schedule = default_schedule()  # rot:10x36 steps, 36-rotation battery
        target = CLASS_NAMES.index("hex_outline")

        stop = StoppingCriterion(q_test=0.8, max_outer_iterations=108)
        pair_config = OptimConfig(step_size=2.0)

        def battery_min(img):
            return min(c for _, c in run_battery(model, img, target, schedule.battery))

        def run(r):
            if r is None:  # main seeded run from the black init with default optimization
                init = constant_image(64, 64, 0.0)
                return visualize(model, target, init, schedule, OptimConfig(), stop)
            # paired seeded run: invariant method vs single-pass baseline
            init = clamp(
                constant_image(64, 64, 4.0 * r)
                + uniform_field(1000 + r, (64, 64, 3), 0.0, 10.0)
            )
            invariant_img, _ = visualize(model, target, init, schedule, pair_config, stop)
            baseline_img = baseline_visualize(model, target, init, pair_config)
            return battery_min(invariant_img), battery_min(baseline_img)

        # the main run and the ten pairs are independent runs, spread over
        # forked workers
        (image, trace), *pairs = fork_map(run, [None, *range(10)])
        assert trace.status == "converged"
        assert trace.records[-1].battery_min >= 0.8
        # golden bits of this run, recorded with numpy 2.4.6 and OpenBLAS
        # 0.3.31 (scipy-openblas64); a change to any of them breaks the
        # bit-reproducibility contract
        assert E.image_id(image) == "d2cc1322922c5b01"
        assert trace.records[-1].battery_min == 0.8301733193157064
        assert [rec.inner_steps for rec in trace.records] == [
            494, 172, 255, 319, 319, 295, 297, 298, 212, 196, 59, 192, 211, 152, 96, 98,
            58, 88, 84, 98, 173, 222, 150, 135, 138, 152, 176, 166, 84, 124, 225, 210,
        ]

        wins = sum(inv > base for inv, base in pairs)
        assert wins >= 8, f"invariant beat baseline in only {wins}/10 runs"

        total = train_seconds + (time.time() - t0)
        assert total < 1800.0, f"criterion took {total:.0f}s"


@pytest.mark.slow
def test_criterion_6_sweep_determinism_and_argmax(reference_run):
    with criterion(6, "init-sweep determinism over the 27 gray levels"):
        model = reference_run[0].model
        target = CLASS_NAMES.index("hex_outline")
        # reduced optimization budget: the criterion pins the gray levels,
        # determinism, and the argmax rule, not the run length
        schedule = TransformSchedule(
            steps=parse_transform_list("rot:45x8"),
            battery=parse_transform_list("rot-sweep:45"),
        )
        config = OptimConfig(step_size=3.0, max_inner_steps=60)
        stop = StoppingCriterion(q_test=0.8, max_outer_iterations=8)
        assert len(E.DEFAULT_GRAY_LEVELS) == 27

        reports = []
        for _ in range(2):
            sweep = E.init_sweep(
                model, target, schedule, config, stop,
                gray_levels=E.DEFAULT_GRAY_LEVELS, window=32, stride=16,
            )
            text = sweep_report(
                sweep, config, stop, target, "hex_outline", "rot:45x8", "rot-sweep:45"
            )
            reports.append((sweep, text))
        assert reports[0][1] == reports[1][1], "sweep reports differ between runs"

        sweep = reports[0][0]
        totals = [
            (rec.gray, rec.second_order_total)
            for rec in sweep.records
            if rec.second_order_total is not None
        ]
        assert totals, "no successful sweep records"
        best_total = max(t for _, t in totals)
        expected_best = min(g for g, t in totals if t == best_total)
        assert sweep.best_init == expected_best


def test_criterion_7_screening_contract():
    with criterion(7, "zero-square screening"):
        rng = np.random.default_rng(707)

        def dense_model(norm):
            n = 10
            return nn.Model(
                layers=[nn.Flatten(),
                        nn.Dense(weight=rng.normal(0, 0.1, (3, 3 * n * n)), bias=np.zeros(3))],
                input_shape=(3, n, n),
                class_names=("a", "b", "c"),
                pixel_norm=norm,
            ).validate()

        # exact pixel count for a proper sub-rectangle
        img = np.floor(rng.uniform(1, 255, (10, 10, 3)))
        rect = ScreenRect(2, 3, 5, 4)
        out = zero_square(img, rect, dense_model("unit_01"))
        changed = np.any(out != img, axis=2)
        assert int(changed.sum()) == rect.w * rect.h

        # signed_11: normalized values inside the rect are exactly zero
        signed = dense_model("signed_11")
        out = zero_square(img, rect, signed)
        xnorm = nn.normalize_images("signed_11", out[None])[0]
        assert np.all(xnorm[:, rect.y : rect.y + rect.h, rect.x : rect.x + rect.w] == 0.0)

        # unit_01 full-image screening yields the all-zero normalized input
        out = zero_square(img, ScreenRect(0, 0, 10, 10), dense_model("unit_01"))
        assert np.all(out == 0.0)
        assert np.all(nn.normalize_images("unit_01", out[None]) == 0.0)


def test_criterion_8_serialization_round_trips(tmp_path):
    with criterion(8, "model and PPM serialization round trips"):
        model, _ = random_small_model(808)
        path = tmp_path / "model.gbxm"
        save_model(model, path)
        loaded = load_model(path)
        size = model.input_shape[1]
        for i in range(100):
            img = np.floor(uniform_field(9000 + i, (size, size, 3), 0.0, 256.0))
            a = nn.forward(model, img)
            b = nn.forward(loaded, img)
            np.testing.assert_array_equal(a.logits, b.logits)
            np.testing.assert_array_equal(a.confidences, b.confidences)
            assert a.top_k == b.top_k

        rng = np.random.default_rng(88)
        img = np.floor(rng.uniform(0, 256, (23, 17, 3)))
        ppm_path = tmp_path / "img.ppm"
        write_ppm(img, ppm_path)
        np.testing.assert_array_equal(read_ppm(ppm_path), img)
