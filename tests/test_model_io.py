import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_small_model, uniform_field, write_model_file

from tivis import nn
from tivis.errors import (
    BadMagicError,
    BlobLengthError,
    ModelFormatError,
    ShapeChainError,
    TivisError,
)
from tivis.model_io import load_model, save_model


def test_round_trip_bit_exact(tmp_path):
    model, _ = random_small_model(21)
    path = tmp_path / "m.gbxm"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.pixel_norm == model.pixel_norm
    assert loaded.input_shape == tuple(model.input_shape)
    assert loaded.class_names == tuple(model.class_names)
    assert len(loaded.layers) == len(model.layers)
    for a, b in zip(model.layers, loaded.layers):
        assert a.kind == b.kind
        if a.kind == "conv2d":
            assert (a.stride, a.padding) == (b.stride, b.padding)
        if a.kind in ("conv2d", "dense"):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)


def test_round_trip_identical_predictions(tmp_path):
    model, _ = random_small_model(22)
    path = tmp_path / "m.gbxm"
    save_model(model, path)
    loaded = load_model(path)
    size = model.input_shape[1]
    for i in range(20):
        img = np.floor(uniform_field(500 + i, (size, size, 3), 0.0, 256.0))
        a = nn.forward(model, img)
        b = nn.forward(loaded, img)
        np.testing.assert_array_equal(a.logits, b.logits)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.gbxm"
    path.write_bytes(b"NOPE" + b"\x01" + (8).to_bytes(8, "little") + b"whatever")
    with pytest.raises(BadMagicError):
        load_model(path)


def test_truncated_blob(tmp_path):
    model, _ = random_small_model(23)
    path = tmp_path / "m.gbxm"
    save_model(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])  # drop two trailing float64 values
    with pytest.raises(BlobLengthError):
        load_model(path)


def test_manifest_shape_mismatch_names_layer(tmp_path):
    # manifest declares dense(10, 5) but stores 49 values instead of 50
    blob = np.arange(49, dtype="<f8").tobytes()
    manifest = (
        "pixel_norm unit_01\n"
        "input_shape 3 4 4\n"
        "classes a b c d e f g h i j\n"
        f"layer dense out=10 in=5 w=0:{49 * 8} b=0:0\n"
        f"blob_bytes {len(blob)}\n"
    ).encode()
    path = tmp_path / "m.gbxm"
    write_model_file(path, manifest, blob)
    with pytest.raises(ShapeChainError, match=r"layer 0 \(dense\)"):
        load_model(path)


def test_loaded_model_revalidates_shape_chain(tmp_path):
    model, _ = random_small_model(24)
    path = tmp_path / "m.gbxm"
    save_model(model, path)
    raw = path.read_bytes()
    # corrupt the declared input shape; weights no longer chain
    mutated = raw.replace(b"input_shape 3", b"input_shape 9", 1)
    mlen = int.from_bytes(mutated[5:13], "little")
    path.write_bytes(mutated[:5] + mlen.to_bytes(8, "little") + mutated[13:])
    with pytest.raises(ShapeChainError):
        load_model(path)


def test_save_rejects_whitespace_class_names(tmp_path):
    model, _ = random_small_model(25)
    model.class_names = ("ok", "not ok")
    model.layers[-1].weight = model.layers[-1].weight[:2]
    model.layers[-1].bias = model.layers[-1].bias[:2]
    with pytest.raises(ValueError, match="whitespace"):
        save_model(model, tmp_path / "m.gbxm")


@pytest.mark.parametrize(
    "layer_line",
    [
        "layer conv2d out=3",  # missing keys
        "layer flatten foo=1",  # unknown key
        "layer dense out=2 out=2 in=48 w=0:768 b=768:16",  # repeated key
        "layer dense out=x in=48 w=0:768 b=768:16",  # non-integer dimension
        "layer conv2d out=2 in=3 kh=1 kw=1 stride=1 pad=1.5 w=0:48 b=48:16",  # non-integer pad
        "layer dense out=-2 in=48 w=0:768 b=768:16",  # negative dimension
        "layer dense out=2 in=48 w=0-768 b=768:16",  # malformed span
        "layer dense out=2 in=48 w=+0:768 b=768:16",  # signed span offset
        "layer dense out=2 in=48 w=-0:768 b=768:16",  # negative zero span offset
        "layer dense out=2 in=48 w=0_0:768 b=768:16",  # underscore in span offset
        "layer dense out=2 in=48 w=0:76_8 b=768:16",  # underscore in span length
        "layer pool9",  # unknown kind
    ],
)
def test_malformed_layer_line_names_manifest_line(tmp_path, layer_line):
    blob = bytes(784)
    manifest = (
        "pixel_norm unit_01\n"
        "input_shape 3 4 4\n"
        "classes a b\n"
        "layer flatten\n"
        f"{layer_line}\n"
        f"blob_bytes {len(blob)}\n"
    ).encode()
    path = tmp_path / "m.gbxm"
    write_model_file(path, manifest, blob)
    with pytest.raises(ModelFormatError, match=r"^manifest line 5: "):
        load_model(path)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("saved") / "m.gbxm"
    save_model(random_small_model(21)[0], path)
    return path


_FRAGMENTS = st.one_of(
    st.binary(max_size=6),
    st.sampled_from(
        [b" ", b"\n", b"=", b":", b"-1", b"0", b"99999999999999999999", b"layer ", b"conv2d",
         b"dense", b"flatten", b"out=", b"in=", b"pad=", b"stride=", b"w=", b"b=", b"classes"]
    ),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_manifest_raises_only_tivis_or_value_errors(saved_model, data):
    raw = saved_model.read_bytes()
    mlen = int.from_bytes(raw[5:13], "little")
    manifest, blob = raw[13 : 13 + mlen], raw[13 + mlen :]
    start = data.draw(st.integers(0, mlen), label="start")
    end = data.draw(st.integers(start, min(mlen, start + 12)), label="end")
    insert = b"".join(data.draw(st.lists(_FRAGMENTS, max_size=3), label="insert"))
    mutated = manifest[:start] + insert + manifest[end:]
    path = saved_model.with_name("mutated.gbxm")
    write_model_file(path, mutated, blob)
    try:
        load_model(path)
    except (TivisError, ValueError):
        pass


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip") / "m.gbxm"


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_save_then_load_is_bit_exact(model_path, seed):
    model, image = random_small_model(seed)
    save_model(model, model_path)
    saved = model_path.read_bytes()
    loaded = load_model(model_path)
    assert (loaded.pixel_norm, loaded.input_shape, loaded.class_names) == (
        model.pixel_norm, tuple(model.input_shape), tuple(model.class_names)
    )
    assert [layer.kind for layer in loaded.layers] == [layer.kind for layer in model.layers]
    for a, b in zip(model.layers, loaded.layers):
        for name, value in vars(a).items():
            if isinstance(value, np.ndarray):
                assert getattr(b, name).dtype == np.float64
                assert getattr(b, name).tobytes() == value.tobytes()
            else:
                assert getattr(b, name) == value
    assert nn.forward(loaded, image).logits.tobytes() == nn.forward(model, image).logits.tobytes()
    save_model(loaded, model_path)
    assert model_path.read_bytes() == saved
