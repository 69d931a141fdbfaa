import numpy as np
import pytest

from helpers import fd_input_gradient, forward_direct, maxpool2x2_direct, random_small_model

from tivis import nn
from tivis.errors import InvalidClassError, NonFiniteError, ShapeChainError, ShapeMismatchError


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


class TestMaxPool:
    @staticmethod
    def _assert_bits_equal(a, b):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))

    def test_matches_scalar_oracle_forward_and_backward(self):
        pool = nn.MaxPool2x2()
        for x, dy in _pool_cases():
            y, cache = pool.forward(x)
            want_y, want_idx, want_dx = maxpool2x2_direct(x, dy)
            self._assert_bits_equal(y, want_y)
            assert cache[0] == x.shape
            np.testing.assert_array_equal(cache[1], want_idx)
            dx, grads = pool.backward(dy, cache)
            assert grads is None
            self._assert_bits_equal(dx, want_dx)

    def test_ties_keep_first_position_and_its_zero_sign(self):
        x = np.array([[[[-0.0, 0.0, 0.0, -0.0], [-0.0, 0.0, 0.0, -0.0]]]])
        y, (_, idx) = nn.MaxPool2x2().forward(x)
        assert idx.tolist() == [[[[0, 0]]]]
        assert np.signbit(y).tolist() == [[[[True, False]]]]
        x = np.array([[[[-1.0, 2.0], [2.0, 2.0]]]])
        dx, _ = nn.MaxPool2x2().backward(np.array([[[[5.0]]]]), nn.MaxPool2x2().forward(x)[1])
        assert dx.tolist() == [[[[0.0, 5.0], [0.0, 0.0]]]]


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
