"""Plain SGD training of the small classifier.

Deterministic by construction: weight init, the train/val split, and the
per-epoch shuffle each use their own stream derived from the config seed,
and the update loop is sequential. Identical (seed, config) pairs produce
bit-identical final weights.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError, TrainingDivergedError
from .nn import Conv2d, Dense, Flatten, MaxPool2x2, Model, Relu
from .nn import backward_batch, forward_batch, normalize_images, softmax
from .rng import Xoshiro256, derive_seed
from .shapes import CLASS_NAMES, ShapeDataset

_STREAM_SPLIT = 1
_STREAM_SHUFFLE = 2
_STREAM_INIT = 3

_EVAL_CHUNK = 32  # images per forward pass when measuring accuracy

# Reference run recorded for reproducibility: seed 7, 100 samples per class,
# the architecture below, and the default TrainConfig reach >= 0.95
# validation accuracy (see tests/test_acceptance.py).
REFERENCE_SEED = 7


@dataclass
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 0.1
    batch_size: int = 8
    seed: int = REFERENCE_SEED
    val_fraction: float = 0.2

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        # learning_rate 0 is legal and means "no update" by contract
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_accuracy: float


@dataclass
class TrainResult:
    model: Model
    history: list  # of EpochRecord


def reference_architecture(seed: int = REFERENCE_SEED, image_size: int = 64) -> Model:
    """Two conv-relu-pool stages, a third 2x2 pool, flatten, dense; 6 classes.

    Hidden weights are uniform in [-a, a] with a = sqrt(1/fan_in); the
    classifier head starts at zero so the untrained model outputs equal
    logits (initial cross-entropy is exactly ln 6 on a balanced set).
    """
    conv1 = Conv2d(weight=_uniform_init(seed, 0, (12, 3, 3, 3)), bias=np.zeros(12), padding=1)
    conv2 = Conv2d(weight=_uniform_init(seed, 1, (24, 12, 3, 3)), bias=np.zeros(24), padding=1)
    grid = image_size // 8  # three 2x2 pools
    head = Dense(
        weight=np.zeros((len(CLASS_NAMES), grid * grid * 24)),
        bias=np.zeros(len(CLASS_NAMES)),
    )
    stages = [conv1, Relu(), MaxPool2x2(), conv2, Relu(), MaxPool2x2(), MaxPool2x2()]
    return Model(
        layers=stages + [Flatten(), head],
        input_shape=(3, image_size, image_size),
        class_names=CLASS_NAMES,
        pixel_norm="unit_01",
    ).validate()


def _uniform_init(seed: int, layer_index: int, shape: tuple) -> np.ndarray:
    fan_in = int(np.prod(shape[1:]))
    bound = (1.0 / fan_in) ** 0.5
    rng = Xoshiro256(derive_seed(seed, _STREAM_INIT, layer_index))
    flat = np.empty(int(np.prod(shape)))
    for i in range(flat.size):
        flat[i] = rng.uniform(-bound, bound)
    return flat.reshape(shape)


def _cross_entropy_and_dlogits(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch and d(loss)/d(logits)."""
    n = logits.shape[0]
    zmax = logits.max(axis=1, keepdims=True)
    z = logits - zmax
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(np.mean(logsumexp[:, 0] - z[np.arange(n), labels]))
    probs = softmax(logits)
    dlogits = probs
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def train(dataset: ShapeDataset, model: Model, config: TrainConfig) -> TrainResult:
    """SGD with a fixed learning rate; returns the trained model and log."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    xnorm = _model_inputs(model, dataset)
    labels = dataset.labels
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise ValueError(f"dataset labels must lie in [0, {model.num_classes})")
    model = copy.deepcopy(model)

    val_idx, train_idx = _split_indices(len(dataset), config)

    history = []
    for epoch in range(config.epochs):
        perm = list(train_idx)
        Xoshiro256(derive_seed(config.seed, _STREAM_SHUFFLE, epoch)).shuffle(perm)
        total_loss = 0.0
        try:
            for start in range(0, len(perm), config.batch_size):
                batch = np.asarray(perm[start : start + config.batch_size])
                xb = xnorm[batch]
                yb = labels[batch]
                logits, caches = forward_batch(model, xb)
                loss, d = _cross_entropy_and_dlogits(logits, yb)
                total_loss += loss * len(batch)
                for layer, (dw, db) in backward_batch(caches, d, param_grads=True)[1]:
                    layer.weight -= config.learning_rate * dw
                    layer.bias -= config.learning_rate * db
        except NonFiniteError as exc:  # blown-up weights surface mid-epoch
            raise TrainingDivergedError(epoch) from exc
        epoch_loss = total_loss / len(perm)
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch)
        val_acc = _accuracy(model, xnorm[val_idx], labels[val_idx])
        history.append(EpochRecord(epoch=epoch, train_loss=epoch_loss, val_accuracy=val_acc))
    return TrainResult(model=model, history=history)


def _accuracy(model: Model, xnorm: np.ndarray, labels: np.ndarray) -> float:
    correct = 0
    for start in range(0, len(labels), _EVAL_CHUNK):
        batch = slice(start, start + _EVAL_CHUNK)
        logits, _ = forward_batch(model, xnorm[batch], keep_caches=False)
        # argmax breaks ties toward the smaller class index
        correct += int(np.sum(np.argmax(logits, axis=1) == labels[batch]))
    return correct / len(labels)


def evaluate(model: Model, dataset: ShapeDataset) -> float:
    """Top-1 accuracy of the model on the whole dataset."""
    return _accuracy(model, _model_inputs(model, dataset), dataset.labels)


def _model_inputs(model: Model, dataset: ShapeDataset) -> np.ndarray:
    """The dataset's images normalized for the model, after validating both."""
    model.validate()
    h, w = dataset.images.shape[1:3]
    if model.input_shape != (3, h, w):
        raise ShapeMismatchError(
            f"model input {model.input_shape} does not match dataset images (3, {h}, {w})"
        )
    return normalize_images(model.pixel_norm, dataset.images)


def validation_split(dataset: ShapeDataset, config: TrainConfig) -> ShapeDataset:
    """The validation subset exactly as train() carved it out."""
    return _subset(dataset, config, validation=True)


def training_split(dataset: ShapeDataset, config: TrainConfig) -> ShapeDataset:
    """The training subset complementing validation_split."""
    return _subset(dataset, config, validation=False)


def _split_indices(n: int, config: TrainConfig):
    """(validation, training) index arrays of the seeded split of n samples."""
    order = list(range(n))
    Xoshiro256(derive_seed(config.seed, _STREAM_SPLIT)).shuffle(order)
    n_val = max(1, round(config.val_fraction * n))
    if n_val >= n:
        raise ValueError("val_fraction leaves no training samples")
    return np.asarray(order[:n_val]), np.asarray(order[n_val:])


def _subset(dataset: ShapeDataset, config: TrainConfig, validation: bool) -> ShapeDataset:
    val_idx, train_idx = _split_indices(len(dataset), config)
    idx = val_idx if validation else train_idx
    return ShapeDataset(
        images=dataset.images[idx],
        labels=dataset.labels[idx],
        seed=dataset.seed,
        class_names=dataset.class_names,
    )
