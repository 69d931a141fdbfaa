import math

import numpy as np
import pytest

from tivis.errors import TrainingDivergedError
from tivis.nn import forward_batch, normalize_images
from tivis.shapes import ShapeDataset, generate_dataset
from tivis.training import (
    TrainConfig,
    _cross_entropy_and_dlogits,
    evaluate,
    reference_architecture,
    train,
    training_split,
)


def _small_dataset(seed=3, per_class=8):
    return generate_dataset(seed, per_class)


def _all_zero_model():
    model = reference_architecture(0)
    for layer in model.layers:
        if layer.kind in ("conv2d", "dense"):
            layer.weight = np.zeros_like(layer.weight)
            layer.bias = np.zeros_like(layer.bias)
    return model


def test_zero_learning_rate_leaves_weights_unchanged():
    ds = _small_dataset()
    arch = reference_architecture(1)
    before = [(l.weight.copy(), l.bias.copy()) for l in arch.layers if l.kind in ("conv2d", "dense")]
    cfg = TrainConfig(epochs=2, learning_rate=0.0, batch_size=8, seed=1)
    result = train(ds, arch, cfg)
    after = [(l.weight, l.bias) for l in result.model.layers if l.kind in ("conv2d", "dense")]
    for (w0, b0), (w1, b1) in zip(before, after):
        np.testing.assert_array_equal(w0, w1)
        np.testing.assert_array_equal(b0, b1)
    assert evaluate(result.model, ds) == evaluate(arch, ds)


def test_untrained_zero_model_accuracy_is_one_sixth():
    ds = _small_dataset(seed=6, per_class=10)
    acc = evaluate(_all_zero_model(), ds)
    assert acc == pytest.approx(1.0 / 6.0, abs=0)


def test_single_class_dataset_reaches_perfect_accuracy():
    full = _small_dataset(seed=2, per_class=12)
    keep = full.labels == 2
    ds = ShapeDataset(images=full.images[keep], labels=full.labels[keep], seed=2)
    cfg = TrainConfig(epochs=3, learning_rate=0.1, batch_size=8, seed=2)
    result = train(ds, reference_architecture(2), cfg)
    assert evaluate(result.model, ds) == 1.0


def test_initial_cross_entropy_is_ln6():
    ds = _small_dataset(seed=4, per_class=6)
    model = reference_architecture(4)
    xnorm = normalize_images(model.pixel_norm, ds.images)
    logits, _ = forward_batch(model, xnorm, keep_caches=False)
    loss, _ = _cross_entropy_and_dlogits(logits, ds.labels)
    assert abs(loss - math.log(6)) <= 0.05
    assert abs(loss - math.log(6)) <= 1e-12  # zero head makes it exact


def test_training_deterministic_bit_exact():
    ds = _small_dataset(seed=5, per_class=8)
    cfg = TrainConfig(epochs=2, learning_rate=0.1, batch_size=8, seed=5)
    r1 = train(ds, reference_architecture(5), cfg)
    r2 = train(ds, reference_architecture(5), cfg)
    for l1, l2 in zip(r1.model.layers, r2.model.layers):
        if l1.kind in ("conv2d", "dense"):
            np.testing.assert_array_equal(l1.weight, l2.weight)
            np.testing.assert_array_equal(l1.bias, l2.bias)
    assert [(h.train_loss, h.val_accuracy) for h in r1.history] == [
        (h.train_loss, h.val_accuracy) for h in r2.history
    ]


def test_divergence_reports_epoch():
    ds = _small_dataset(seed=8, per_class=4)
    arch = reference_architecture(8)
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as err:
        train(ds, arch, TrainConfig(epochs=3, learning_rate=1e150, batch_size=8, seed=8))
    assert err.value.epoch >= 0


def test_train_does_not_mutate_input_model():
    ds = _small_dataset(seed=9, per_class=4)
    arch = reference_architecture(9)
    w0 = arch.layers[0].weight.copy()
    train(ds, arch, TrainConfig(epochs=1, learning_rate=0.1, batch_size=8, seed=9))
    np.testing.assert_array_equal(arch.layers[0].weight, w0)


def test_config_validation():
    for learning_rate in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=learning_rate)
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_memorizing_model_perfect_on_train_set():
    # a model trained hard on a tiny set memorizes its own training split
    ds = _small_dataset(seed=10, per_class=4)
    cfg = TrainConfig(epochs=40, learning_rate=0.1, batch_size=8, seed=10)
    result = train(ds, reference_architecture(10), cfg)
    assert evaluate(result.model, training_split(ds, cfg)) == 1.0


@pytest.mark.slow
class TestReferenceRun:
    def test_validation_accuracy_target(self, reference_run):
        result, config, seconds = reference_run
        assert result.history[-1].val_accuracy >= 0.95
        assert seconds < 600

    def test_loss_finite_every_epoch(self, reference_run):
        result, _, _ = reference_run
        assert all(np.isfinite(h.train_loss) for h in result.history)
        assert len(result.history) == 30
