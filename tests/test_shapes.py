import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import golden

from tivis import parallel
from tivis.errors import PpmTruncatedError
from tivis.model_io import save_model
from tivis.ppm import write_ppm
from tivis.shapes import (
    CLASS_NAMES,
    MAX_COUNT_PER_CLASS,
    ShapeDataset,
    generate_dataset,
    load_dataset,
    render_shape,
    save_dataset,
    shape_params,
)
from tivis.training import TrainConfig, reference_architecture, train


def test_same_seed_bit_identical():
    a = generate_dataset(1, 10)
    b = generate_dataset(1, 10)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_reference_dataset_bits_are_golden(reference_dataset):
    # the reference training's inputs; a change breaks the reference model's bits
    digest = hashlib.sha256(reference_dataset.images.tobytes()).hexdigest()
    assert digest == golden.REFERENCE_DATASET_SHA256


def test_different_seed_differs():
    a = generate_dataset(1, 3)
    b = generate_dataset(2, 3)
    assert not np.array_equal(a.images, b.images)


def test_exact_balance():
    ds = generate_dataset(5, 100)
    assert len(ds) == 600
    for k in range(6):
        assert int(np.sum(ds.labels == k)) == 100


def test_count_validation():
    with pytest.raises(ValueError):
        generate_dataset(1, 0)
    with pytest.raises(ValueError, match=rf"\[1, {MAX_COUNT_PER_CLASS}\]"):
        generate_dataset(1, MAX_COUNT_PER_CLASS + 1)


def test_images_are_uint8_rows_of_render_shape():
    # load_dataset keeps the dtype (test_persistence_round_trip)
    for seed in (2, 31):
        ds = generate_dataset(seed, 3)
        assert ds.images.dtype == np.uint8
        for pos, label in enumerate(ds.labels):
            rendered = render_shape(shape_params(seed, int(label), pos % 3))
            assert np.array_equal(ds.images[pos], rendered)
        assert sorted(set(ds.labels.tolist())) == list(range(len(CLASS_NAMES)))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_peak_below_half_a_byte_per_value():
    # one uint8 gray plane is a third of a byte per value; a full (N, H, W, 3)
    # uint8 array alone would be one
    ds, peak = _peak_bytes(lambda: generate_dataset(1, 20))
    assert peak < ds.images.size / 2


def test_load_peak_below_two_bytes_per_value(tmp_path):
    # the uint8 array is one byte per value; a float64 one alone would be 8
    save_dataset(generate_dataset(1, 20), tmp_path / "ds")
    loaded, peak = _peak_bytes(lambda: load_dataset(tmp_path / "ds"))
    assert peak < 2 * loaded.images.size


def test_generated_images_are_read_only():
    ds = generate_dataset(1, 2)
    with pytest.raises(ValueError, match="read-only"):
        ds.images[0, 0, 0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        ds.images[3] += 1


def test_gray_plane_and_full_array_train_to_the_same_bits(monkeypatch, tmp_path):
    # training reads rows through the view; a full copy gives the same model bytes
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
    ds = generate_dataset(16, 4)
    full = ShapeDataset(images=np.array(ds.images), labels=ds.labels, seed=ds.seed)
    assert full.images.flags.writeable and full.images.strides[-1] == 1
    cfg = TrainConfig(epochs=1, batch_size=5, seed=16)
    for name, dataset in (("plane", ds), ("full", full)):
        save_model(train(dataset, reference_architecture(16), cfg).model, tmp_path / name)
    assert (tmp_path / "plane").read_bytes() == (tmp_path / "full").read_bytes()


def test_images_are_two_level_integer_buffers():
    ds = generate_dataset(3, 4)
    for img in ds.images[:8]:
        levels = np.unique(img)
        assert len(levels) == 2
        assert np.all(levels == np.floor(levels))
        assert levels.min() >= 0 and levels.max() <= 255


def test_disk_matches_point_in_disk_oracle():
    disk_class = CLASS_NAMES.index("disk")
    for i in range(10):
        p = shape_params(7, disk_class, i)
        img = render_shape(p)
        # strict interior / exterior bands avoid boundary rounding concerns
        for y in range(img.shape[0]):
            for x in range(img.shape[1]):
                d = math.hypot(x - p.cx, y - p.cy)
                if d <= p.radius - 1.0:
                    assert img[y, x, 0] == p.fg, (i, x, y)
                elif d >= p.radius + 1.0:
                    assert img[y, x, 0] == p.bg, (i, x, y)


def test_disk_membership_is_exact_distance_test():
    disk_class = CLASS_NAMES.index("disk")
    p = shape_params(11, disk_class, 0)
    img = render_shape(p)
    for y in range(img.shape[0]):
        for x in range(img.shape[1]):
            dx, dy = x - p.cx, y - p.cy
            inside = dx * dx + dy * dy <= p.radius * p.radius
            assert img[y, x, 0] == (p.fg if inside else p.bg)


def test_shapes_fit_inside_canvas():
    ds = generate_dataset(9, 20)
    border = np.concatenate(
        [ds.images[:, 0, :, 0].ravel(), ds.images[:, -1, :, 0].ravel(),
         ds.images[:, :, 0, 0].ravel(), ds.images[:, :, -1, 0].ravel()]
    )
    # borders are all background (< foreground floor of 150)
    assert border.max() < 150


def test_persistence_round_trip(tmp_path):
    ds = generate_dataset(4, 3)
    save_dataset(ds, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(loaded.images, ds.images)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    assert loaded.images.dtype == ds.images.dtype
    assert loaded.images.tobytes() == ds.images.tobytes()
    assert loaded.class_names == ds.class_names
    assert loaded.seed == ds.seed


def test_image_of_another_size_names_its_manifest_line(tmp_path):
    save_dataset(generate_dataset(4, 1), tmp_path / "ds")
    write_ppm(np.zeros((8, 8, 3)), tmp_path / "ds" / "sample_00002.ppm")
    # lines 1-3 are the header, seed and classes; sample_00002 is on line 6
    with pytest.raises(ValueError, match=r"^manifest line 6: image sample_00002\.ppm has shape "
                                         r"\(8, 8, 3\), the first image \(64, 64, 3\)$"):
        load_dataset(tmp_path / "ds")


def test_bad_image_file_raises_its_ppm_error(tmp_path):
    # load_dataset reads the uint8 payload through the same checks as read_ppm,
    # and names the manifest line and the file of a corrupt one
    save_dataset(generate_dataset(4, 1), tmp_path / "ds")
    (tmp_path / "ds" / "sample_00001.ppm").write_bytes(b"P6\n64 64\n255\n" + bytes(5))
    with pytest.raises(
        PpmTruncatedError,
        match=r"^manifest line 5: sample_00001\.ppm: pixel data is 5 bytes, header promises 12288$",
    ):
        load_dataset(tmp_path / "ds")
