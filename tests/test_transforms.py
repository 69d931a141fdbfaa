import warnings

import numpy as np
import pytest
from helpers import rotate_direct, scale_direct
from hypothesis import given, settings
from hypothesis import strategies as st

from tivis import nn
from tivis import transforms as T
from tivis.errors import TivisError


def _random_image(seed, n=16):
    return np.floor(np.random.default_rng(seed).uniform(0, 256, (n, n, 3)))


class TestRotate:
    def test_zero_angle_identity_bit_exact(self):
        img = _random_image(0)
        np.testing.assert_array_equal(T.rotate(img, 0), img)
        np.testing.assert_array_equal(T.rotate(img, 360 - 360), img)

    @pytest.mark.parametrize("k", [1, 2, 3, -1, -2, 4, 7])
    def test_quarter_turns_equal_permutation_oracle(self, k):
        img = _random_image(k + 10)
        got = T.rotate(img, 90 * k % 360)
        expected = np.rot90(img, k=-k, axes=(0, 1))
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("angle", [-1e-14, -1e-20, 1e-20, -0.0])
    def test_tiny_angles_are_the_identity(self, angle):
        # -1e-14 % 360.0 rounds to 360.0, which is the zero turn
        img = _random_image(1)
        assert T.rotate(img, angle).tobytes() == img.tobytes()

    def test_2x2_quarter_turn_permutation(self):
        img = np.zeros((2, 2, 3))
        img[0, 0], img[0, 1], img[1, 0], img[1, 1] = 1, 2, 3, 4
        out = T.rotate(img, 90)
        np.testing.assert_array_equal(out[:, :, 0], [[3, 1], [4, 2]])

    def test_zero_image_fixed_point(self):
        zero = np.zeros((9, 9, 3))
        for angle in (0, 13.7, 90, 222.2):
            np.testing.assert_array_equal(T.rotate(zero, angle), zero)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            T.rotate(np.zeros((4, 6, 3)), 10)

    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="finite"):
            T.rotate(_random_image(2), angle)

    def test_roundtrip_rmse_inside_inscribed_disk(self):
        # smooth radial test image; bound frozen from the oracle run
        # (measured 0.174 on this image family, asserted with margin)
        n = 64
        y, x = np.mgrid[0:n, 0:n]
        smooth = 127 + 100 * np.sin(x / 9.0) * np.cos(y / 11.0)
        img = np.repeat(smooth[:, :, None], 3, axis=2)
        back = T.rotate(T.rotate(img, 33.0), -33.0)
        c = (n - 1) / 2
        disk = (x - c) ** 2 + (y - c) ** 2 <= (0.4 * n) ** 2
        rmse = float(np.sqrt(np.mean((back - img)[disk] ** 2)))
        assert rmse <= 0.35


class TestFlip:
    def test_involution_bit_exact(self):
        img = _random_image(3)
        for axis in ("horizontal", "vertical"):
            np.testing.assert_array_equal(T.flip(T.flip(img, axis), axis), img)

    def test_symmetric_image_unchanged(self):
        img = _random_image(4)
        sym = (img + img[:, ::-1]) / 2.0  # mirror-symmetric about the vertical axis
        np.testing.assert_array_equal(T.flip(sym, "horizontal"), sym)

    def test_two_pixel_swap(self):
        img = np.zeros((1, 2, 3))
        img[0, 0], img[0, 1] = 5, 9
        out = T.flip(img, "horizontal")
        assert out[0, 0, 0] == 9 and out[0, 1, 0] == 5

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            T.flip(_random_image(5), "diagonal")


class TestScale:
    def test_identity_bit_exact(self):
        img = _random_image(6)
        np.testing.assert_array_equal(T.scale(img, 1.0), img)

    def test_half_scale_constant_image_analytic(self):
        # independent scalar oracle: inverse-map each output pixel and apply
        # bilinear weights of a constant image with zero fill
        n, v = 16, 200.0
        img = T.constant_image(n, n, v)
        out = T.scale(img, 0.5)
        c = (n - 1) / 2.0
        for i in range(n):
            for j in range(n):
                sx = (j - c) / 0.5 + c
                sy = (i - c) / 0.5 + c
                w = 0.0
                x0, y0 = int(np.floor(sx)), int(np.floor(sy))
                fx, fy = sx - x0, sy - y0
                for xi, yi, wt in (
                    (x0, y0, (1 - fx) * (1 - fy)),
                    (x0 + 1, y0, fx * (1 - fy)),
                    (x0, y0 + 1, (1 - fx) * fy),
                    (x0 + 1, y0 + 1, fx * fy),
                ):
                    if 0 <= xi < n and 0 <= yi < n:
                        w += wt
                expected = v * w
                assert abs(out[i, j, 0] - expected) <= 1e-9
        # border ring exactly zero, central half exactly v
        assert np.all(out[0] == 0) and np.all(out[:, 0] == 0)
        inner = out[n // 4 + 1 : -n // 4 - 1, n // 4 + 1 : -n // 4 - 1]
        np.testing.assert_allclose(inner, v, atol=1e-9)

    def test_zoom_roundtrip_rmse_central_half(self):
        # bound frozen from the oracle run (measured 0.138, margin applied)
        n = 64
        y, x = np.mgrid[0:n, 0:n]
        smooth = 127 + 100 * np.sin(x / 9.0) * np.cos(y / 11.0)
        img = np.repeat(smooth[:, :, None], 3, axis=2)
        out = T.scale(T.scale(img, 2.0), 0.5)
        half = slice(n // 4, 3 * n // 4)
        rmse = float(np.sqrt(np.mean((out - img)[half, half] ** 2)))
        assert rmse <= 0.30

    @pytest.mark.parametrize("factor", [5e-324, 1e-300])
    def test_tiny_factor_gives_zeros_without_warnings(self, factor):
        # every source coordinate lies far outside the image (an even side
        # has no center pixel), some of them at +-inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = T.scale(_random_image(8), factor)
        assert out.tobytes() == np.zeros(out.shape).tobytes()

    def test_factor_out_of_range(self):
        img = _random_image(7)
        for bad in (0.0, -1.0, 9.0):
            with pytest.raises(ValueError):
                T.scale(img, bad)


def _unclamped_image(seed, n):
    """Values beyond [0, 255] and a fifth of the entries -0.0."""
    rng = np.random.default_rng(seed)
    img = rng.uniform(-80.0, 340.0, (n, n, 3))
    img[rng.random(img.shape) < 0.2] = -0.0
    return img


class TestScalarOracle:
    """rotate and scale have the bits of the scalar bilinear loop."""

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_rotate(self, n):
        angles = [0, 90, 180, 270, -90, 360 - 1e-9]
        angles += np.random.default_rng(n).uniform(-360.0, 360.0, 6).tolist()
        for k, angle in enumerate(angles):
            img = _unclamped_image(100 * n + k, n)
            assert T.rotate(img, angle).tobytes() == rotate_direct(img, angle).tobytes(), angle

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    @pytest.mark.parametrize("factor", [0.01, 0.7, 8.0])
    def test_scale(self, n, factor):
        img = _unclamped_image(n, n)
        assert T.scale(img, factor).tobytes() == scale_direct(img, factor).tobytes()


class TestEnergyBound:
    def test_outputs_within_zero_and_input_max(self):
        for seed in range(5):
            img = _random_image(seed + 30, n=12)
            hi = img.max()
            outputs = [
                T.rotate(img, 37.3),
                T.rotate(img, 205.0),
                T.scale(img, 0.7),
                T.scale(img, 1.9),
                T.flip(img, "vertical"),
            ]
            for out in outputs:
                assert out.min() >= 0.0
                assert out.max() <= hi


class TestSpecsAndSchedules:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            T.TransformSpec.rotation(360.0)
        with pytest.raises(ValueError):
            T.TransformSpec.zoom(0.0)
        with pytest.raises(ValueError):
            T.TransformSpec(kind="warp")

    def test_parse_repeat_and_kinds(self):
        specs = T.parse_transform_list("rot:10x36")
        assert len(specs) == 36
        assert all(s.kind == "rotate" and s.angle == 10.0 for s in specs)
        mixed = T.parse_transform_list("rot:-15,flip:hx2,flip:v,scale:0.9x2")
        assert [s.label() for s in mixed] == [
            "rot:-15", "flip:h", "flip:h", "flip:v", "scale:0.9", "scale:0.9"
        ]

    def test_parse_rotation_sweep(self):
        battery = T.parse_transform_list("rot-sweep:10")
        assert len(battery) == 36
        assert battery[0].angle == 0.0 and battery[-1].angle == 350.0
        assert len(T.parse_transform_list("rot-sweep:0.1")) == T.MAX_TRANSFORMS

    def test_default_schedule_matches_documented_text(self):
        sched = T.default_schedule()
        assert len(sched.steps) == 36
        assert len(sched.battery) == 36

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            T.TransformSchedule(steps=(), battery=(T.TransformSpec.rotation(0),))

    def test_parse_errors(self):
        for bad in (
            "",
            "spin:10",
            "rot:10x0",
            "rot:10x100000000000",
            "rot-sweep:1e-300",
            "rot:10x3600,flip:h",
        ):
            with pytest.raises(ValueError):
                T.parse_transform_list(bad)


class TestRunBattery:
    def _model(self):
        n = 8
        w = np.zeros((2, 3 * n * n))
        w[0, :] = 0.01
        return nn.Model(
            layers=[nn.Flatten(), nn.Dense(weight=w, bias=np.zeros(2))],
            input_shape=(3, n, n),
            class_names=("a", "b"),
        ).validate()

    def test_identity_battery_equals_forward(self):
        model = self._model()
        img = _random_image(40, n=8)
        results = T.run_battery(model, img, 0, (T.TransformSpec.rotation(0),))
        assert len(results) == 1
        expected = nn.forward(model, img).confidences[0]
        assert results[0][1] == expected

    def test_constant_output_model_equal_confidences(self):
        n = 8
        model = nn.Model(
            layers=[nn.Flatten(), nn.Dense(weight=np.zeros((3, 3 * n * n)), bias=np.zeros(3))],
            input_shape=(3, n, n),
            class_names=("a", "b", "c"),
        ).validate()
        img = _random_image(41, n=8)
        results = T.run_battery(model, img, 1, T.parse_transform_list("rot-sweep:45"))
        confs = {c for _, c in results}
        assert len(confs) == 1

    def test_input_not_mutated(self):
        model = self._model()
        img = _random_image(42, n=8)
        before = img.copy()
        T.run_battery(model, img, 0, T.parse_transform_list("rot-sweep:90,flip:h,scale:0.5"))
        np.testing.assert_array_equal(img, before)

    def test_tiny_scale_entries_see_a_zero_image(self):
        model = self._model()
        results = T.run_battery(model, _random_image(43, n=8), 0, T.parse_transform_list("scale:5e-324,scale:1e-300"))
        zero = nn.forward(model, np.zeros((8, 8, 3))).confidences[0]
        assert [c for _, c in results] == [zero, zero]


_SPEC_FRAGMENTS = st.sampled_from(
    ["rot", "rot-sweep", "flip", "scale", "ROT", ":", ",", "x", " ", "h", "v", "horizontal",
     "0", "-0", "1", "10", "-360", "359.9", "1e-300", "1e308", "nan", "inf", "-inf", "3600",
     "3601", "99999999999999999999", "0x10", "1_0"]
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(text=st.one_of(st.text(max_size=30), st.lists(_SPEC_FRAGMENTS, max_size=10).map("".join)))
def test_parse_transform_list_raises_only_tivis_or_value_errors(text):
    try:
        specs = T.parse_transform_list(text)
    except (TivisError, ValueError):
        return
    assert 1 <= len(specs) <= T.MAX_TRANSFORMS
