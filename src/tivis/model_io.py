"""Model file format: save and load.

Byte layout (all multi-byte integers little-endian):

    offset 0   4 bytes   magic b"GBXM"
    offset 4   1 byte    format version, currently 1
    offset 5   8 bytes   uint64: manifest length L in bytes
    offset 13  L bytes   manifest, UTF-8 text (described below)
    offset 13+L          weight blob: raw little-endian IEEE-754 float64

Manifest: one declaration per line, space-separated tokens.

    pixel_norm <unit_01|signed_11>
    input_shape 3 <H> <W>
    classes <name> <name> ...          names contain no whitespace
    layer conv2d out=<oc> in=<ic> kh=<kh> kw=<kw> stride=<s> pad=<p> \
          w=<byte offset>:<byte length> b=<byte offset>:<byte length>
    layer relu
    layer maxpool2x2
    layer avgpool_global
    layer flatten
    layer dense out=<o> in=<i> w=<byte offset>:<byte length> \
          b=<byte offset>:<byte length>
    blob_bytes <total blob length>

A layer line carries exactly the keys shown for its kind, each once, in
any order; the table LAYER_FORMATS below defines them. Every integer is a
plain non-negative decimal. Offsets index into the weight blob. Weight
arrays are stored in C order: conv2d as (out, in, kh, kw), dense as
(out, in). The round trip is bit-exact: load(save(m)) reproduces every
weight and every field.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadMagicError, BlobLengthError, ModelFormatError, ShapeChainError
from .nn import Conv2d, Dense, Flatten, GlobalAvgPool, MaxPool2x2, Model, Relu

MAGIC = b"GBXM"
VERSION = 1


# The layer format: kind -> (layer class, keys of the weight dimensions in
# order, {key: field} of the extra integer fields). A kind with weight
# dimensions also carries the spans w= and b=, after the other keys.
LAYER_FORMATS = {
    "conv2d": (Conv2d, ("out", "in", "kh", "kw"), {"stride": "stride", "pad": "padding"}),
    "relu": (Relu, (), {}),
    "maxpool2x2": (MaxPool2x2, (), {}),
    "avgpool_global": (GlobalAvgPool, (), {}),
    "flatten": (Flatten, (), {}),
    "dense": (Dense, ("out", "in"), {}),
}


def save_model(model: Model, path) -> None:
    model.validate()
    for name in model.class_names:
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"class name {name!r} must be a non-empty whitespace-free token")
    blobs = []
    lines = [
        f"pixel_norm {model.pixel_norm}",
        "input_shape " + " ".join(str(d) for d in model.input_shape),
        "classes " + " ".join(model.class_names),
    ]
    offset = 0

    def push(arr: np.ndarray) -> str:
        nonlocal offset
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        start = offset
        offset += len(raw)
        blobs.append(raw)
        return f"{start}:{len(raw)}"

    for layer in model.layers:
        _, dims, ints = LAYER_FORMATS[layer.kind]
        values = dict(zip(dims, layer.weight.shape)) if dims else {}
        values.update((key, getattr(layer, name)) for key, name in ints.items())
        if dims:
            values.update(w=push(layer.weight), b=push(layer.bias))
        lines.append(" ".join([f"layer {layer.kind}"] + [f"{k}={v}" for k, v in values.items()]))
    lines.append(f"blob_bytes {offset}")
    manifest = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(bytes([VERSION]))
        f.write(len(manifest).to_bytes(8, "little"))
        f.write(manifest)
        for raw in blobs:
            f.write(raw)


def load_model(path) -> Model:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise BadMagicError(f"expected magic {MAGIC!r}, got {data[:4]!r}")
    if len(data) < 13:
        raise ModelFormatError("file too short for header")
    version = data[4]
    if version != VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    mlen = int.from_bytes(data[5:13], "little")
    if len(data) < 13 + mlen:
        raise ModelFormatError("file too short for declared manifest length")
    manifest = data[13 : 13 + mlen].decode("utf-8")
    blob = data[13 + mlen :]
    return _parse_manifest(manifest, blob).validate()


def _parse_manifest(manifest: str, blob: bytes) -> Model:
    pixel_norm = None
    input_shape = None
    class_names = None
    declared_blob = None
    layers = []
    for lineno, line in enumerate(manifest.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "pixel_norm":
            pixel_norm = _one_token(tokens, lineno)
        elif key == "input_shape":
            input_shape = tuple(_int_token(t, lineno) for t in tokens[1:])
        elif key == "classes":
            class_names = tuple(tokens[1:])
        elif key == "blob_bytes":
            declared_blob = _int_token(_one_token(tokens, lineno), lineno)
        elif key == "layer":
            layers.append(_parse_layer(tokens[1:], blob, len(layers), lineno))
        else:
            raise ModelFormatError(f"manifest line {lineno}: unknown declaration {key!r}")
    if pixel_norm is None or input_shape is None or class_names is None:
        raise ModelFormatError("manifest is missing pixel_norm, input_shape, or classes")
    if declared_blob is None:
        raise ModelFormatError("manifest is missing blob_bytes")
    if declared_blob != len(blob):
        raise BlobLengthError(
            f"manifest declares {declared_blob} blob bytes but file carries {len(blob)}"
        )
    return Model(
        layers=layers,
        input_shape=input_shape,
        class_names=class_names,
        pixel_norm=pixel_norm,
    )


def _one_token(tokens, lineno):
    if len(tokens) != 2:
        raise ModelFormatError(f"manifest line {lineno}: expected exactly one value")
    return tokens[1]


def _int_token(text, lineno):
    if not (text.isascii() and text.isdigit()):
        raise ModelFormatError(f"manifest line {lineno}: bad integer {text!r}")
    return int(text)


def _parse_layer(tokens, blob, index, lineno):
    if not tokens:
        raise ModelFormatError(f"manifest line {lineno}: empty layer declaration")
    kind = tokens[0]
    if kind not in LAYER_FORMATS:
        raise ModelFormatError(f"manifest line {lineno}: unknown layer kind {kind!r}")
    cls, dims, ints = LAYER_FORMATS[kind]
    keys = [*dims, *ints, *(("w", "b") if dims else ())]
    params = dict(tok.partition("=")[::2] for tok in tokens[1:])  # "key=value" -> key: value
    if len(params) != len(tokens) - 1 or sorted(params) != sorted(keys):
        raise ModelFormatError(
            f"manifest line {lineno}: {kind} takes {' '.join(keys) or 'no parameters'}, "
            f"got {' '.join(tokens[1:])!r}"
        )
    fields = {name: _int_token(params[key], lineno) for key, name in ints.items()}
    if dims:
        shape = tuple(_int_token(params[key], lineno) for key in dims)
        where = f"manifest line {lineno}: layer {index} ({kind})"
        fields["weight"] = _read_array(blob, params["w"], shape, where, lineno, "weight")
        fields["bias"] = _read_array(blob, params["b"], shape[:1], where, lineno, "bias")
    return cls(**fields)


def _read_array(blob, span, shape, where, lineno, name):
    try:
        off_text, len_text = span.split(":")
    except ValueError:
        raise ModelFormatError(f"{where}: bad {name} span {span!r}") from None
    off, nbytes = _int_token(off_text, lineno), _int_token(len_text, lineno)
    if off + nbytes > len(blob):
        raise BlobLengthError(
            f"{where}: {name} span {off}:{nbytes} exceeds blob of {len(blob)} bytes"
        )
    expected = math.prod(shape) * 8
    if nbytes != expected:
        raise ShapeChainError(
            f"{where}: {name} declares shape {shape} ({expected} bytes) but stores {nbytes} bytes"
        )
    return np.frombuffer(blob[off : off + nbytes], dtype="<f8").reshape(shape).copy()
