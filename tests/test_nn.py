import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    blas_kernel_note,
    conv2d_backward_direct,
    conv2d_input_grad_by_windows,
    dense_backward_direct,
    fd_input_gradient,
    forward_direct,
    maxpool2x2_direct,
    random_small_model,
)

from tivis import nn
from tivis.entropy import image_id
from tivis.errors import InvalidClassError, NonFiniteError, ShapeChainError, ShapeMismatchError
from tivis.model_io import LAYER_FORMATS
from tivis.training import reference_architecture
from tivis.transforms import TransformSchedule, constant_image, parse_transform_list, run_battery
from tivis.visualizer import OptimConfig, StoppingCriterion, optimize_to_confidence, visualize


def _zero_head_model(n=6, k=4):
    return nn.Model(
        layers=[nn.Flatten(), nn.Dense(weight=np.zeros((k, 3 * n * n)), bias=np.zeros(k))],
        input_shape=(3, n, n),
        class_names=tuple(f"c{i}" for i in range(k)),
    ).validate()


class TestForward:
    def test_zero_model_uniform_confidences(self):
        model = _zero_head_model(k=4)
        img = np.random.default_rng(0).uniform(0, 255, (6, 6, 3))
        pred = nn.forward(model, img)
        assert np.all(pred.confidences == pred.confidences[0])
        np.testing.assert_allclose(pred.confidences, 0.25, rtol=1e-15)

    def test_identity_1x1_conv_preserves_values(self):
        eye = np.zeros((3, 3, 1, 1))
        for c in range(3):
            eye[c, c, 0, 0] = 1.0
        conv = nn.Conv2d(weight=eye, bias=np.zeros(3))
        x = np.random.default_rng(1).normal(size=(2, 3, 5, 5))
        y, _ = conv.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_logits_match_direct_summation_oracle(self):
        for seed in range(3):
            model, img = random_small_model(seed)
            pred = nn.forward(model, img)
            oracle = forward_direct(model, img)
            assert np.max(np.abs(pred.logits - oracle)) <= 1e-10

    def test_conv_layer_equals_direct_summation_on_20_cases(self):
        from helpers import conv2d_direct

        rng = np.random.default_rng(77)
        for case in range(20):
            ic = int(rng.integers(1, 4))
            oc = int(rng.integers(1, 5))
            kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 2))
            h = int(rng.integers(kh + stride, 10))
            w = int(rng.integers(kw + stride, 10))
            conv = nn.Conv2d(
                weight=rng.normal(0, 1, (oc, ic, kh, kw)),
                bias=rng.normal(0, 1, oc),
                stride=stride,
                padding=padding,
            )
            x = rng.normal(0, 1, (1, ic, h, w))
            y, _ = conv.forward(x)
            oracle = conv2d_direct(x[0], conv.weight, conv.bias, stride, padding)
            assert np.max(np.abs(y[0] - oracle)) <= 1e-10, f"case {case}"

    def test_forward_deterministic(self):
        model, img = random_small_model(17)
        a = nn.forward(model, img)
        b = nn.forward(model, img)
        np.testing.assert_array_equal(a.logits, b.logits)
        np.testing.assert_array_equal(a.confidences, b.confidences)

    def test_top_k_sorted_with_index_tiebreak(self):
        model = _zero_head_model(k=5)
        pred = nn.forward(model, np.zeros((6, 6, 3)))
        assert [i for i, _, _ in pred.top_k] == [0, 1, 2, 3, 4]

    def test_shape_mismatch_rejected_with_diagnostic(self):
        model = _zero_head_model(n=6)
        with pytest.raises(ShapeMismatchError, match=r"\(4, 6, 3\)"):
            nn.forward(model, np.zeros((4, 6, 3)))

    def test_non_finite_weights_rejected(self):
        model = _zero_head_model()
        model.layers[1].weight[0, 0] = np.nan
        with pytest.raises(NonFiniteError, match=r"layer 1 \(dense\) .* in weight"):
            nn.forward(model, np.zeros((6, 6, 3)))
        model.layers[1].weight[0, 0] = 0.0
        model.layers[1].bias[0] = np.inf
        with pytest.raises(NonFiniteError, match=r"layer 1 \(dense\) .* in bias"):
            nn.forward(model, np.zeros((6, 6, 3)))

    def test_shape_chain_violation_names_layer(self):
        bad = nn.Model(
            layers=[nn.Flatten(), nn.Dense(weight=np.zeros((2, 5)), bias=np.zeros(2))],
            input_shape=(3, 4, 4),
            class_names=("a", "b"),
        )
        with pytest.raises(ShapeChainError, match="layer 1"):
            bad.validate()

    @pytest.mark.parametrize("kind", ["conv2d", "dense"])
    def test_bias_shape_must_match_outputs(self, kind):
        if kind == "conv2d":
            head = [nn.Conv2d(weight=np.zeros((3, 3, 4, 4)), bias=np.zeros(1)), nn.Flatten()]
        else:
            head = [nn.Flatten(), nn.Dense(weight=np.zeros((3, 48)), bias=np.zeros(1))]
        bad = nn.Model(layers=head, input_shape=(3, 4, 4), class_names=("a", "b", "c"))
        with pytest.raises(ShapeChainError, match=rf"layer \d \({kind}\): {kind} bias shape \(1,\)"):
            bad.validate()


def _pool_cases():
    """Random, tied, and signed-zero inputs with odd sizes and N up to 3."""
    rng = np.random.default_rng(31)
    for case in range(60):
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                 int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        if case % 3 == 0:
            x = rng.normal(size=shape)
        elif case % 3 == 1:
            x = rng.integers(-1, 2, size=shape).astype(np.float64)  # many ties
        else:
            x = rng.choice([0.0, -0.0, 1.0, -1.0], size=shape)  # ties of +-0.0
        yield x, rng.choice([2.5, -1.0, 0.0, -0.0], size=(shape[0], shape[1], shape[2] // 2, shape[3] // 2))


def _assert_same_bytes(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestMaxPool:
    def test_matches_scalar_oracle_forward_and_backward(self):
        pool = nn.MaxPool2x2()
        for x, dy in _pool_cases():
            y, cache = pool.forward(x)
            want_y, want_idx, want_dx = maxpool2x2_direct(x, dy)
            _assert_same_bytes(y, want_y)
            assert cache[0] == x.shape
            np.testing.assert_array_equal(cache[1], want_idx)
            dx, grads = pool.backward(dy, cache)
            assert grads is None
            _assert_same_bytes(dx, want_dx)

    def test_ties_keep_first_position_and_its_zero_sign(self):
        x = np.array([[[[-0.0, 0.0, 0.0, -0.0], [-0.0, 0.0, 0.0, -0.0]]]])
        y, (_, idx) = nn.MaxPool2x2().forward(x)
        assert idx.tolist() == [[[[0, 0]]]]
        assert np.signbit(y).tolist() == [[[[True, False]]]]
        x = np.array([[[[-1.0, 2.0], [2.0, 2.0]]]])
        dx, _ = nn.MaxPool2x2().backward(np.array([[[[5.0]]]]), nn.MaxPool2x2().forward(x)[1])
        assert dx.tolist() == [[[[0.0, 5.0], [0.0, 0.0]]]]


    def test_fused_relu_pool_equals_relu_then_pool(self):
        relu, pool = nn.Relu(), nn.MaxPool2x2()
        step = nn.ReluMaxPool2x2(pool)
        for x, dy in _pool_cases():
            r, mask = relu.forward(x)
            want_y, cache = pool.forward(r)
            want_dx, _ = relu.backward(pool.backward(dy, cache)[0], mask)
            y, fused = step.forward(x)
            dx, grads = step.backward(dy, fused)
            assert grads is None
            _assert_same_bytes(y, want_y)
            _assert_same_bytes(step.forward(x, None)[0], want_y)
            _assert_same_bytes(fused[1], cache[1])
            _assert_same_bytes(dx, want_dx)


def _contract_layer(kind, rng):
    """A layer of kind and an input batch of two for it."""
    images = rng.normal(size=(2, 3, 7, 6))
    images[0, :, :4] = 0.0  # ties in the pool windows
    if kind == "conv2d":
        conv = nn.Conv2d(weight=rng.normal(size=(4, 3, 3, 3)), bias=rng.normal(size=4), stride=2, padding=1)
        return conv, images
    if kind == "dense":
        return nn.Dense(weight=rng.normal(size=(5, 7)), bias=rng.normal(size=5)), rng.normal(size=(2, 7))
    if kind == "relu+maxpool2x2":
        return nn.ReluMaxPool2x2(nn.MaxPool2x2()), images
    return LAYER_FORMATS[kind][0](), images


class TestLayerContract:
    """Every step has forward(x, grads), backward(dy, cache) -> (dx, None)
    and, with parameters, weight_grads(dy, cache) -> the batch's (dW, db)."""

    @pytest.mark.parametrize("kind", [*LAYER_FORMATS, "relu+maxpool2x2"])
    def test_every_kind_keeps_the_contract(self, kind):
        layer, x = _contract_layer(kind, np.random.default_rng(len(kind)))
        assert layer.kind == kind
        y, cache = layer.forward(x)
        dy = np.random.default_rng(0).normal(size=y.shape)
        dx, none = layer.backward(dy, cache)
        assert none is None and dx.shape == x.shape
        y_only, no_cache = layer.forward(x, None)
        assert no_cache is None
        _assert_same_bytes(y_only, y)
        y_input, input_cache = layer.forward(x, "input")
        _assert_same_bytes(y_input, y)
        _assert_same_bytes(layer.backward(dy, input_cache)[0], dx)
        if hasattr(layer, "weight_grads"):
            dw, db = layer.weight_grads(dy, cache)
            assert dw.shape == layer.weight.shape and db.shape == layer.bias.shape


class TestPlan:
    """plan fuses each Relu that a MaxPool2x2 follows, at the pool's index."""

    def test_reference_plan_fuses_both_relu_pool_pairs(self):
        model = reference_architecture(7)
        steps = nn.plan(model)
        assert [i for i, _ in steps] == [0, 2, 3, 5, 6, 7, 8]
        for i, step in steps:
            if i in (2, 5):
                assert isinstance(step, nn.ReluMaxPool2x2) and step.pool is model.layers[i]
            else:
                assert step is model.layers[i]

    @pytest.mark.parametrize("kinds", [("maxpool2x2", "relu"), ("maxpool2x2",), ("relu",)])
    def test_pool_then_relu_and_lone_layers_stay_unfused(self, kinds):
        layers = [nn.Relu() if kind == "relu" else nn.MaxPool2x2() for kind in kinds]
        steps = nn.plan(nn.Model(layers, (3, 8, 8), ()))
        assert [i for i, _ in steps] == list(range(len(layers)))
        assert all(step is layer for (_, step), layer in zip(steps, layers))


class TestForwardOnly:
    """forward_batch without caches skips the pool winners, not a bit."""

    @staticmethod
    def _pool_without_relu_model(seed, size=9):
        # conv, pool, ReLU: the pool is not fused, and the odd side drops a
        # row and a column
        rng = np.random.default_rng(seed)
        feat = 3 * ((size - 2) // 2) ** 2
        return nn.Model(
            layers=[
                nn.Conv2d(weight=rng.normal(0, 0.4, (3, 3, 3, 3)), bias=rng.normal(0, 0.2, 3)),
                nn.MaxPool2x2(),
                nn.Relu(),
                nn.Flatten(),
                nn.Dense(weight=rng.normal(0, 0.5, (4, feat)), bias=rng.normal(0, 0.2, 4)),
            ],
            input_shape=(3, size, size),
            class_names=("a", "b", "c", "d"),
        ).validate()

    def _models(self):
        yield reference_architecture(7)
        for seed in range(2):
            yield self._pool_without_relu_model(seed)
        for seed in range(9):  # all three variants, odd and even sides
            yield random_small_model(seed)[0]

    @staticmethod
    def _step_outputs(model, x, grads):
        """forward_batch's output after each layer of model."""
        prefixes = (nn.Model(model.layers[:k], model.input_shape, model.class_names)
                    for k in range(1, len(model.layers) + 1))
        return [nn.forward_batch(nn.plan(prefix), x, grads)[0] for prefix in prefixes]

    def test_every_output_equals_the_cached_pass(self):
        kinds = set()
        for k, model in enumerate(self._models()):
            kinds.update(layer.kind for layer in model.layers)
            _, h, w = model.input_shape
            images = np.random.default_rng(k).uniform(0, 255, (3, h, w, 3))
            images[:, : h // 2] = 0.0  # ties in the pool windows
            x = nn.normalize_images(model.pixel_norm, images)
            _, caches = nn.forward_batch(nn.plan(model), x)
            assert caches and nn.forward_batch(nn.plan(model), x, grads=None)[1] == []
            for fast, cached in zip(self._step_outputs(model, x, None), self._step_outputs(model, x, "weights")):
                _assert_same_bytes(fast, cached)
        assert {"maxpool2x2", "avgpool_global", "relu"} <= kinds

    def test_pool_steps_keep_signed_zeros(self):
        for layers in ([nn.Relu(), nn.MaxPool2x2()], [nn.MaxPool2x2(), nn.Relu()], [nn.MaxPool2x2()]):
            steps = nn.plan(nn.Model(layers, (3, 8, 8), ()))
            for x, _ in _pool_cases():
                _assert_same_bytes(nn.forward_batch(steps, x, grads=None)[0],
                                   nn.forward_batch(steps, x)[0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("layer, kind", [(0, "conv2d"), (4, "dense")])
    def test_non_finite_names_the_same_layer(self, layer, kind):
        model = self._pool_without_relu_model(3)
        model.layers[layer].weight[:] = 1e308
        x = nn.normalize_images(model.pixel_norm, np.full((1, 9, 9, 3), 255.0))
        for grads in ("weights", "input", None):
            with pytest.raises(NonFiniteError, match=rf"^layer {layer} \({kind}\) produced"):
                nn.forward_batch(nn.plan(model), x, grads=grads)


class TestNonFiniteChecks:
    """Only conv2d, dense and avgpool_global outputs are checked finite."""

    def _overflowing_conv_model(self):
        # every pre-activation of a white image sums at least 12 products of
        # -1e308 and 1.0: -inf, which the ReLU maps to 0
        conv = nn.Conv2d(weight=np.full((2, 3, 3, 3), -1e308), bias=np.zeros(2), padding=1)
        dense = nn.Dense(weight=np.ones((3, 32)), bias=np.zeros(3))
        return nn.Model(
            layers=[conv, nn.Relu(), nn.MaxPool2x2(), nn.Flatten(), dense],
            input_shape=(3, 8, 8),
            class_names=("a", "b", "c"),
        ).validate()

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_minus_inf_pre_activation_is_caught_at_the_conv(self):
        model = self._overflowing_conv_model()
        image = np.full((8, 8, 3), 255.0)
        x = nn.normalize_images(model.pixel_norm, image[None])
        for i, layer in enumerate(model.layers):
            x, _ = layer.forward(x)
            assert np.all(x == -np.inf) if i == 0 else np.all(np.isfinite(x))
        schedule = TransformSchedule(steps=parse_transform_list("rot:10"),
                                     battery=parse_transform_list("rot:0,flip:h"))
        calls = [
            lambda: nn.forward(model, image),
            lambda: nn.confidence_and_input_gradient(model, image, 0),
            lambda: run_battery(model, image, 0, schedule.battery),
            lambda: visualize(model, 0, image, schedule, OptimConfig(), StoppingCriterion()),
        ]
        for call in calls:
            with pytest.raises(NonFiniteError, match=r"^layer 0 \(conv2d\) produced non-finite values$"):
                call()


class TestBackward:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_matches_scalar_oracle(self, stride, padding, n):
        rng = np.random.default_rng(100 * stride + 10 * padding + n)
        for case in range(3):
            ic, oc = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            h, w = int(rng.integers(kh + stride, 8)), int(rng.integers(kw + stride, 8))
            conv = nn.Conv2d(
                weight=rng.normal(size=(oc, ic, kh, kw)),
                bias=rng.normal(size=oc),
                stride=stride,
                padding=padding,
            )
            x = rng.normal(size=(n, ic, h, w))
            y, cache = conv.forward(x)
            dy = rng.normal(size=y.shape)
            dx, _ = conv.backward(dy, cache)
            dw, db = conv.weight_grads(dy, cache)
            want_dx, want_dw, want_db = conv2d_backward_direct(x, conv.weight, stride, padding, dy)
            for got, want in ((dx, want_dx), (dw, want_dw), (db, want_db)):
                assert got.shape == want.shape, f"case {case}"
                assert np.max(np.abs(got - want)) <= 1e-10, f"case {case}"

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3, 5])
    def test_conv_input_grad_has_the_window_loop_bits(self, stride, padding, n):
        rng = np.random.default_rng(1000 + 100 * stride + 10 * padding + n)
        for case in range(4):
            ic, oc = int(rng.integers(1, 13)), int(rng.integers(1, 25))
            kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            h, w = int(rng.integers(kh + stride, 20)), int(rng.integers(kw + stride, 20))
            conv = nn.Conv2d(weight=rng.normal(size=(oc, ic, kh, kw)), bias=np.zeros(oc),
                             stride=stride, padding=padding)
            x = rng.normal(size=(n, ic, h, w))
            y, cache = conv.forward(x)
            # zeros and negative zeros as a ReLU mask and a pool leave them
            dy = rng.normal(size=y.shape) * rng.choice([0.0, -0.0, 1.0], size=y.shape)
            dx, _ = conv.backward(dy, cache)
            want = conv2d_input_grad_by_windows(conv.weight, stride, padding, x.shape, dy)
            _assert_same_bytes(dx, want)

    def test_conv_backward_at_a_large_stride_peaks_below_2_mb(self):
        # dy padded to ho + kh rows made the strided buffer 6.2 MB; the
        # stride * ic * wp values of its one row are the floor, 1.5 MB
        rng = np.random.default_rng(16)
        conv = nn.Conv2d(weight=rng.normal(size=(12, 3, 3, 3)), bias=np.zeros(12), stride=1000)
        y, cache = conv.forward(rng.normal(size=(1, 3, 64, 64)), "input")
        dy = rng.normal(size=y.shape)
        conv.backward(dy, cache)
        tracemalloc.start()
        try:
            conv.backward(dy, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("n", [1, 3])
    def test_dense_matches_scalar_oracle(self, n):
        rng = np.random.default_rng(40 + n)
        dense = nn.Dense(weight=rng.normal(size=(4, 7)), bias=rng.normal(size=4))
        x = rng.normal(size=(n, 7))
        y, cache = dense.forward(x)
        dy = rng.normal(size=y.shape)
        dx, _ = dense.backward(dy, cache)
        dw, db = dense.weight_grads(dy, cache)
        want_dx, want_dw, want_db = dense_backward_direct(x, dense.weight, dy)
        for got, want in ((dx, want_dx), (dw, want_dw), (db, want_db)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_driver_weight_grads_match_each_step_and_skip_input_gradient(self):
        rng = np.random.default_rng(13)
        for seed in range(6):
            model, img = random_small_model(300 + seed)
            x = nn.normalize_images(model.pixel_norm, np.stack([img, img[::-1]]))
            logits, caches = nn.forward_batch(nn.plan(model), x)
            d = rng.normal(size=logits.shape)
            dx, grads = nn.backward_batch(caches, d, param_grads=True)
            assert dx is None
            want = []
            for layer, cache in reversed(caches):
                if hasattr(layer, "weight_grads"):
                    want.append((layer, layer.weight_grads(d, cache)))
                d, _ = layer.backward(d, cache)
            assert [layer for layer, _ in grads] == [layer for layer, _ in want]
            for (_, (dw, db)), (_, (want_dw, want_db)) in zip(grads, want):
                _assert_same_bytes(dw, want_dw)
                _assert_same_bytes(db, want_db)


class TestInputGradientCaches:
    """forward_batch(..., "input") caches only what the input gradient reads."""

    def test_gradient_step_peaks_below_2_5_mb(self):
        # with the conv layers' im2col columns cached it peaked at 3.6 MB
        model = reference_architecture(7)
        x = np.random.default_rng(0).uniform(0, 255, (3, 64, 64))
        nn.gradient_step(model, x, 2, "softmax_confidence")
        tracemalloc.start()
        try:
            nn.gradient_step(model, x, 2, "softmax_confidence")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_input_caches_give_the_weight_caches_bits(self):
        rng = np.random.default_rng(14)
        for seed in range(9):  # all three variants
            model, img = random_small_model(seed)
            x = nn.normalize_images(model.pixel_norm, np.stack([img, img[::-1]]))
            logits, caches = nn.forward_batch(nn.plan(model), x, "input")
            want_logits, want_caches = nn.forward_batch(nn.plan(model), x, "weights")
            _assert_same_bytes(logits, want_logits)
            for step, cache in caches:
                if step.kind == "conv2d":
                    assert len(cache) == 1  # the input shape, without the columns
            d = rng.normal(size=logits.shape)
            _assert_same_bytes(nn.backward_batch(caches, d)[0], nn.backward_batch(want_caches, d)[0])

    def test_conv_forward_alone_keeps_the_weight_gradient_cache(self):
        rng = np.random.default_rng(15)
        conv = nn.Conv2d(weight=rng.normal(size=(4, 3, 3, 3)), bias=rng.normal(size=4), padding=1)
        x = rng.normal(size=(2, 3, 6, 7))
        y, cache = conv.forward(x)
        dy = rng.normal(size=y.shape)
        dx, _ = conv.backward(dy, cache)
        dw, db = conv.weight_grads(dy, cache)
        want_dx, want_dw, want_db = conv2d_backward_direct(x, conv.weight, 1, 1, dy)
        for got, want in ((dx, want_dx), (dw, want_dw), (db, want_db)):
            assert np.max(np.abs(got - want)) <= 1e-10
        y_input, cache_input = conv.forward(x, "input")
        _assert_same_bytes(y_input, y)
        assert cache_input == (x.shape,)
        _assert_same_bytes(conv.backward(dy, cache_input)[0], dx)


class TestSoftmax:
    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            z = rng.normal(0, 10, size=rng.integers(2, 9))
            assert abs(nn.softmax(z).sum() - 1.0) <= 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = rng.normal(0, 5, size=6)
            c = rng.normal(0, 50)
            assert np.max(np.abs(nn.softmax(z) - nn.softmax(z + c))) <= 1e-12

    def test_equal_logits_give_exact_uniform(self):
        conf = nn.softmax(np.zeros(8))
        assert np.all(conf == conf[0])


class TestInputGradient:
    def test_constant_model_zero_gradient(self):
        model = _zero_head_model()
        g = nn.input_gradient(model, np.full((6, 6, 3), 100.0), 1)
        np.testing.assert_array_equal(g, np.zeros((3, 6, 6)))

    @pytest.mark.parametrize("objective", ["softmax_confidence", "logit"])
    def test_matches_finite_differences(self, objective):
        for seed in (5, 6):
            model, img = random_small_model(seed)
            target = seed % model.num_classes
            g = nn.input_gradient(model, img, target, objective=objective)
            gfd = fd_input_gradient(model, img, target, objective)
            mask = np.abs(g) > 1e-8
            assert mask.any()
            rel = np.abs(g - gfd)[mask] / np.abs(g)[mask]
            assert rel.max() <= 1e-5

    def test_single_dense_logit_gradient_is_weight_row(self):
        n, k = 4, 3
        rng = np.random.default_rng(9)
        w = rng.normal(size=(k, 3 * n * n))
        model = nn.Model(
            layers=[nn.Flatten(), nn.Dense(weight=w, bias=np.zeros(k))],
            input_shape=(3, n, n),
            class_names=("a", "b", "c"),
        ).validate()
        img = np.floor(rng.uniform(0, 256, (n, n, 3)))
        g = nn.input_gradient(model, img, 2, objective="logit")
        expected = w[2].reshape(3, n, n) * nn.pixel_norm_slope(model.pixel_norm)
        np.testing.assert_array_equal(g, expected)

    def test_invalid_class_rejected(self):
        model = _zero_head_model(k=4)
        with pytest.raises(InvalidClassError):
            nn.input_gradient(model, np.zeros((6, 6, 3)), 4)
        with pytest.raises(InvalidClassError):
            model.class_index("nope")

    def test_signed_norm_slope_chain_rule(self):
        # identical weights, different pixel_norm: gradients differ by the
        # normalization slopes and the input mapping only
        n = 4
        w = np.random.default_rng(10).normal(size=(2, 3 * n * n))
        def build(norm):
            return nn.Model(
                layers=[nn.Flatten(), nn.Dense(weight=w, bias=np.zeros(2))],
                input_shape=(3, n, n),
                class_names=("a", "b"),
                pixel_norm=norm,
            ).validate()
        img = np.full((n, n, 3), 60.0)
        g01 = nn.input_gradient(build("unit_01"), img, 0, objective="logit")
        g11 = nn.input_gradient(build("signed_11"), img, 0, objective="logit")
        np.testing.assert_allclose(g11, g01 * 2.0, rtol=1e-15)


class TestGradientProperty:
    def test_fifty_random_triples_against_finite_differences(self):
        # module-scale version of the acceptance property (smaller count)
        for seed in range(10):
            model, img = random_small_model(100 + seed)
            target = seed % model.num_classes
            g = nn.input_gradient(model, img, target)
            gfd = fd_input_gradient(model, img, target, "softmax_confidence")
            mask = np.abs(g) > 1e-8
            if not mask.any():
                continue
            rel = np.abs(g - gfd)[mask] / np.abs(g)[mask]
            assert rel.max() <= 1e-5, f"seed {seed}"


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (ValueError, OSError):
        return False


_FRESH_PROCESS_STEPS = """
import resource
import numpy as np
from tivis import nn
from tivis.training import reference_architecture

model = reference_architecture(7)
image = np.random.default_rng(0).uniform(0, 255, (64, 64, 3))
for _ in range(5):
    nn.confidence_and_input_gradient(model, image, 5)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    nn.confidence_and_input_gradient(model, image, 5)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(nn._MALLOC_THRESHOLDS_PINNED, (after - before) / 100)
"""


def _run_fresh(code, **env_vars):
    """Run code in a new interpreter whose malloc settings are glibc's defaults plus env_vars."""
    user_malloc = nn._MALLOC_ENV_VARS + ("GLIBC_TUNABLES",)
    env = {k: v for k, v in os.environ.items() if k not in user_malloc}
    src = str(Path(nn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.split()


@pytest.mark.skipif(not _glibc(), reason="glibc malloc only")
class TestMallocThresholds:
    def test_fresh_process_gradient_step_does_not_page_fault(self):
        # a fresh process: this one's thresholds were lifted by training
        pinned, faults_per_step = _run_fresh(_FRESH_PROCESS_STEPS)
        assert pinned == "True"
        assert float(faults_per_step) < 10

    @pytest.mark.parametrize(
        "var, value",
        [
            ("MALLOC_TRIM_THRESHOLD_", "131072"),
            ("MALLOC_MMAP_THRESHOLD_", "131072"),
            ("MALLOC_TOP_PAD_", "0"),
            ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
        ],
    )
    def test_user_malloc_settings_are_left_alone(self, var, value):
        code = "from tivis import nn; print(nn._MALLOC_THRESHOLDS_PINNED)"
        assert _run_fresh(code, **{var: value}) == ["False"]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _step_bytes(model, images, target):
    """q, g and the forward logits of every image, in order."""
    out = []
    for image in images:
        q, g = nn.confidence_and_input_gradient(model, image, target)
        out += [np.float64(q), g, nn.forward(model, image).logits]
    return out


def _reference_with_random_head():
    model = reference_architecture(7)
    rng = np.random.default_rng(71)
    head = model.layers[-1]
    head.weight = rng.normal(0.0, 0.05, head.weight.shape)
    head.bias = rng.normal(0.0, 0.1, head.bias.shape)
    return model, rng


class TestBitCanary:
    """sha256 digests of gradient-step bytes recorded before the drivers
    fused each ReLU into its pool; a changed digest means a layer no longer
    computes the same bits."""

    def test_reference_architecture_step(self):
        model, rng = _reference_with_random_head()
        images = [np.floor(rng.uniform(0, 256, (64, 64, 3))) for _ in range(2)]
        images.append(constant_image(64, 64, 0.0))  # every pool window tied
        assert _digest(_step_bytes(model, images, 5)) == "820219b89769ef9b", blas_kernel_note()

    @pytest.mark.parametrize(
        "seed, digest",
        # variant: conv-relu-pool with an odd side, a ReLU with no pool and
        # padding 0, stride 2 into a global average
        [(3, "b15a2f2c1b284b7c"), (0, "cab4bc48cde08809"), (1, "5a3f17caff875b3c"), (5, "c71b6623389c9874")],
    )
    def test_random_small_model_steps(self, seed, digest):
        model, image = random_small_model(seed)
        rng = np.random.default_rng(seed)
        images = [image] + [np.floor(rng.uniform(0, 256, image.shape)) for _ in range(3)]
        assert _digest(_step_bytes(model, images, seed % model.num_classes)) == digest, blas_kernel_note()

    def test_forty_step_optimization_image_id(self):
        model, _ = _reference_with_random_head()
        config = OptimConfig(q_target=0.999999, max_inner_steps=40)
        image, steps = optimize_to_confidence(model, constant_image(64, 64, 0.0), 2, config)
        assert steps == 40
        assert image_id(image) == "3a3ed164e42500a1", blas_kernel_note()
