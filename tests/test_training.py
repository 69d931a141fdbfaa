import hashlib
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

import golden
from helpers import one_blas_thread, training_split

from tivis import parallel, training
from tivis.errors import TrainingDivergedError
from tivis.model_io import save_model
from tivis.nn import PIXEL_NORMS, forward_batch, normalize_images, plan
from tivis.shapes import ShapeDataset, generate_dataset
from tivis.training import (
    _EVAL_CHUNK,
    TrainConfig,
    _cross_entropy_and_dlogits,
    evaluate,
    reference_architecture,
    train,
    validation_split,
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
    logits, _ = forward_batch(plan(model), xnorm, grads=None)
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


@pytest.mark.parametrize("run", [evaluate, lambda model, ds: train(ds, model, TrainConfig(epochs=1))])
def test_train_and_evaluate_reject_the_same_datasets(run):
    model = reference_architecture(1)
    ds = _small_dataset(per_class=1)
    empty = ShapeDataset(images=ds.images[:0], labels=ds.labels[:0], seed=3)
    with pytest.raises(ValueError, match="dataset is empty"):
        run(model, empty)
    for bad in (model.num_classes, -1):
        labels = ds.labels.copy()
        labels[-1] = bad
        with pytest.raises(ValueError, match=r"dataset labels must lie in \[0, 6\)"):
            run(model, ShapeDataset(images=ds.images, labels=labels, seed=3))


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


@pytest.fixture
def shard_pids(monkeypatch, tmp_path):
    """Wraps each shard to log the pid of each job; returns a reader that
    empties the log.

    The process runs one BLAS thread, so the helpers fork when two CPUs are usable.
    """
    one_blas_thread(monkeypatch)
    log = tmp_path / "shard_pids"
    real = training._shard

    def logged(*args):
        step = real(*args)

        def run(job):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return step(job)

        return run

    monkeypatch.setattr(training, "_shard", logged)

    def read():
        pids = {int(pid) for pid in log.read_text().split()}
        log.unlink()
        return pids

    return read


class TestTrunkOnHelpers:
    """train and evaluate run each batch's trunk as two shards on two helpers."""

    @staticmethod
    def _run(monkeypatch, shard_pids, cpus, fn):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
        out = fn()
        assert multiprocessing.active_children() == []
        pids = shard_pids()
        if cpus == 1:
            assert pids == {os.getpid()}
        else:
            assert len(pids) >= 2 and os.getpid() not in pids
        return out

    def test_helpers_give_the_in_process_bits(self, monkeypatch, shard_pids):
        ds = _small_dataset(seed=11, per_class=4)
        cfg = TrainConfig(epochs=2, learning_rate=0.1, batch_size=3, seed=11)
        # a last batch of one sample, which one shard runs alone, and a last
        # validation chunk that splits unevenly
        assert len(training_split(ds, cfg)) % 3 == 1
        assert len(validation_split(ds, cfg)) % _EVAL_CHUNK % 2 == 1

        # each shard normalizes its own rows, under either convention
        for pixel_norm in PIXEL_NORMS:
            model = reference_architecture(11)
            model.pixel_norm = pixel_norm

            def run():
                result = train(ds, model, cfg)
                return result, evaluate(result.model, ds)

            (alone, alone_acc), (forked, forked_acc) = (
                self._run(monkeypatch, shard_pids, cpus, run) for cpus in (1, 2)
            )
            for a, b in zip(alone.model.layers, forked.model.layers):
                if a.kind in ("conv2d", "dense"):
                    assert a.weight.tobytes() == b.weight.tobytes()
                    assert a.bias.tobytes() == b.bias.tobytes()
            assert [repr(h) for h in alone.history] == [repr(h) for h in forked.history]
            assert alone_acc == forked_acc

    def test_divergence_raises_at_the_same_epoch(self, monkeypatch, shard_pids):
        ds = _small_dataset(seed=8, per_class=4)
        cfg = TrainConfig(epochs=3, learning_rate=1e150, batch_size=8, seed=8)

        def run():
            with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as err:
                train(ds, reference_architecture(8), cfg)
            return err.value.epoch

        alone, forked = (self._run(monkeypatch, shard_pids, cpus, run) for cpus in (1, 2))
        assert alone == forked

    def test_head_overflow_names_the_dense_layer(self, monkeypatch, shard_pids):
        # the head is the plan's slice from the Dense on, so its error names
        # the model's layer index, not the slice's
        ds = _small_dataset(seed=8, per_class=4)
        model = reference_architecture(8)
        model.layers[8].weight[:] = 1e308

        def run():
            with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as err:
                train(ds, model, TrainConfig(epochs=1, batch_size=8, seed=8))
            return err.value

        for cpus in (1, 2):
            diverged = self._run(monkeypatch, shard_pids, cpus, run)
            assert diverged.epoch == 0
            assert str(diverged.__cause__) == "layer 8 (dense) produced non-finite values"


@pytest.mark.parametrize("pixel_norm", PIXEL_NORMS)
def test_normalized_rows_are_the_rows_of_the_normalized_dataset(pixel_norm):
    # a shard normalizes only the rows of its job; elementwise, so each row
    # keeps the bits it has in the whole dataset normalized at once, and the
    # uint8 rows the bits of their float64 copy
    images = _small_dataset(seed=12, per_class=2).images
    assert images.dtype == np.uint8
    whole = normalize_images(pixel_norm, images)
    for rows in (np.array([5]), np.array([7, 0, 11, 3]), np.arange(len(images))):
        normalized = normalize_images(pixel_norm, images[rows]).tobytes()
        assert normalized == whole[rows].tobytes()
        assert normalized == normalize_images(pixel_norm, images[rows].astype(np.float64)).tobytes()


def test_uint8_and_float64_images_train_to_the_same_bits(monkeypatch, tmp_path):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
    ds = _small_dataset(seed=14, per_class=4)
    wide = ShapeDataset(images=ds.images.astype(np.float64), labels=ds.labels, seed=ds.seed)
    cfg = TrainConfig(epochs=2, batch_size=5, seed=14)
    results = [train(dataset, reference_architecture(14), cfg) for dataset in (ds, wide)]
    for name, result in zip(("uint8", "float64"), results):
        save_model(result.model, tmp_path / name)
    assert (tmp_path / "uint8").read_bytes() == (tmp_path / "float64").read_bytes()
    assert [repr(h) for h in results[0].history] == [repr(h) for h in results[1].history]
    assert evaluate(results[0].model, ds) == evaluate(results[0].model, wide)


def test_no_call_normalizes_more_than_one_shard_job(monkeypatch):
    # in-process helpers, so every call is seen here
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
    real, counts = training.normalize_images, []

    def counted(pixel_norm, images):
        counts[-1].append(len(images))
        return real(pixel_norm, images)

    monkeypatch.setattr(training, "normalize_images", counted)
    ds = _small_dataset(seed=13, per_class=8)
    cfg = TrainConfig(epochs=1, batch_size=8, seed=13)
    counts.append([])
    model = train(ds, reference_architecture(13), cfg).model
    counts.append([])
    evaluate(model, ds)
    in_train, in_evaluate = counts
    # a shard normalizes its rows one at a time; never the dataset
    assert in_train and set(in_train) == {1}
    assert set(in_evaluate) == {1}
    assert sum(in_evaluate) == len(ds)


def test_every_trunk_pass_runs_one_row(monkeypatch):
    # in-process helpers, so every call is seen here; only the head, which
    # starts at the Dense, runs a whole batch or accuracy chunk
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
    calls = []

    def wrap(name, first_step):
        real = getattr(training, name)

        def recorded(seq, x, *args, **kwargs):
            calls[-1].append((first_step(seq).kind == "dense", len(x)))
            return real(seq, x, *args, **kwargs)

        monkeypatch.setattr(training, name, recorded)

    wrap("forward_batch", lambda steps: steps[0][1])
    wrap("backward_batch", lambda caches: caches[0][0])
    ds = _small_dataset(seed=15, per_class=8)
    cfg = TrainConfig(epochs=1, batch_size=8, seed=15)
    calls.append([])
    model = train(ds, reference_architecture(15), cfg).model
    calls.append([])
    evaluate(model, ds)
    for seen in calls:
        assert {rows for head, rows in seen if not head} == {1}
        assert max(rows for head, rows in seen if head) > 1
    # evaluate: one trunk pass per image and one head pass per chunk
    assert calls[1].count((False, 1)) == len(ds)
    assert calls[1].count((True, _EVAL_CHUNK)) == len(ds) // _EVAL_CHUNK


def test_evaluate_peaks_below_six_megabytes(monkeypatch):
    # one row's trunk temporaries, not a 16-row accuracy job's (about 37 MB)
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
    ds = generate_dataset(5, 8)
    model = reference_architecture(5)
    tracemalloc.start()
    try:
        evaluate(model, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


def test_train_makes_no_copy_of_the_dataset(monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
    ds = generate_dataset(5, 20)
    model = reference_architecture(5)
    tracemalloc.start()
    try:
        train(ds, model, TrainConfig(epochs=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ds.images.nbytes / 2


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

    def test_trained_model_bytes_are_golden(self, reference_run, tmp_path):
        path = tmp_path / "reference.gbxm"
        save_model(reference_run[0].model, path)
        # a change breaks the bit-reproducibility contract
        want = golden.column().reference_model_sha256
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want
