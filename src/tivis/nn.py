"""Minimal convolutional network engine.

Forward inference, softmax confidences, and hand-written per-layer backward
passes that yield analytic gradients of a chosen objective with respect to
the input image. Everything runs in double precision on plain numpy arrays;
activations use (N, C, H, W) layout, images use (H, W, 3) display units in
[0, 255].

A model declares a ``pixel_norm`` convention that maps display units to the
network's input range:

* ``unit_01``   - x / 255, range [0, 1], normalized zero at display 0
* ``signed_11`` - x / 127.5 - 1, range [-1, 1], normalized zero at 127.5

Input gradients are computed with respect to the normalized input and then
rescaled to display units through the pixel_norm slope, so callers can take
optimization steps directly in display space.

All functions are pure: they never mutate their arguments and two calls
with identical inputs produce bit-identical outputs.

Importing the module sets glibc's malloc thresholds once; see
``_pin_malloc_thresholds``.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidClassError,
    NonFiniteError,
    ShapeChainError,
    ShapeMismatchError,
)

# mallopt parameter numbers from glibc's malloc.h, and the environment
# variables through which a user sets malloc parameters themselves
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MALLOC_ENV_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")


def _pin_malloc_thresholds() -> bool:
    """Start glibc's malloc at the thresholds a warmed-up process reaches.

    glibc lifts its mmap threshold to the largest freed mmapped block (at
    most 32 MiB on 64-bit) and its trim threshold to twice that. A fresh
    process that only runs N=1 gradient steps lifts them to about 1.8 MB,
    so glibc returns each step's 3.6 MB of temporaries to the OS and the
    next step page-faults them back in. Pinning both at that ceiling costs
    a process that frees a large array nothing: it ends up there anyway.

    Does nothing off glibc, or when the user has set a malloc parameter
    through the environment. Returns whether the thresholds were set.
    """
    try:
        libc_version = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (ValueError, OSError):  # no such name: not glibc
        return False
    if not libc_version.startswith("glibc"):
        return False
    if any(var in os.environ for var in _MALLOC_ENV_VARS):
        return False
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_threshold = 32 << 20
    return bool(
        mallopt(_M_MMAP_THRESHOLD, mmap_threshold)
        and mallopt(_M_TRIM_THRESHOLD, 2 * mmap_threshold)
    )


_MALLOC_THRESHOLDS_PINNED = _pin_malloc_thresholds()

# environment variables through which a user sets the BLAS thread count (the
# first wins, as in OpenBLAS), and OpenBLAS's thread-count setter as numpy's
# bundled scipy-openblas and a plain build export it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")


def user_blas_threads() -> int | None:
    """The BLAS thread count the user set through the environment.

    None when no variable is set. A value that is not a positive count
    (empty, 0, text) leaves OpenBLAS at its default of one thread per CPU,
    and reads as 0.
    """
    for var in BLAS_THREAD_VARS:
        if var in os.environ:
            try:
                return max(int(os.environ[var].split(",")[0]), 0)
            except ValueError:
                return 0
    return None


def openblas_thread_setter():
    """OpenBLAS's set-num-threads function as loaded by numpy, or None.

    dlsym on numpy's linalg extension also searches the libraries it links,
    which is where the BLAS numpy uses lives.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in _OPENBLAS_SETTERS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes = (ctypes.c_int,)
            setter.restype = None
            return setter
    return None


def pin_blas_to_one_thread() -> bool:
    """Run the loaded OpenBLAS on one thread, unless the user set a count.

    Called in each worker process of a parallel sweep: with the default of
    one BLAS thread per CPU, workers on every CPU would oversubscribe them.
    Returns whether the count was set.
    """
    if user_blas_threads() is not None:
        return False
    setter = openblas_thread_setter()
    if setter is None:
        return False
    setter(1)
    return True


PIXEL_NORMS = ("unit_01", "signed_11")

OBJECTIVES = ("softmax_confidence", "logit")


def pixel_norm_slope(pixel_norm: str) -> float:
    """d(normalized)/d(display) for the given convention."""
    if pixel_norm == "unit_01":
        return 1.0 / 255.0
    if pixel_norm == "signed_11":
        return 1.0 / 127.5
    raise ValueError(f"unknown pixel_norm {pixel_norm!r}")


def zero_display_value(pixel_norm: str) -> float:
    """Display value whose normalized value is exactly 0."""
    if pixel_norm == "unit_01":
        return 0.0
    if pixel_norm == "signed_11":
        return 127.5
    raise ValueError(f"unknown pixel_norm {pixel_norm!r}")


def normalize_images(pixel_norm: str, images: np.ndarray) -> np.ndarray:
    """(N, H, W, 3) display units -> (N, 3, H, W) normalized float64."""
    x = np.ascontiguousarray(np.transpose(images, (0, 3, 1, 2)), dtype=np.float64)
    if pixel_norm == "unit_01":
        return x / 255.0
    if pixel_norm == "signed_11":
        return x / 127.5 - 1.0
    raise ValueError(f"unknown pixel_norm {pixel_norm!r}")


# --------------------------------------------------------------------------
# Layers
#
# Each layer implements:
#   out_shape(shape)      per-sample shape propagation, used for validation
#   forward(x) -> (y, cache)
#   backward(dy, cache, param_grads=True) -> (dx, grads)
#                         grads is (dW, db) for layers with parameters when
#                         param_grads is true, None otherwise
# Batched activations: images (N, C, H, W), vectors (N, D).


@dataclass
class Conv2d:
    weight: np.ndarray  # (out_ch, in_ch, kh, kw)
    bias: np.ndarray  # (out_ch,)
    stride: int = 1
    padding: int = 0
    kind: str = field(default="conv2d", init=False, repr=False)

    def out_shape(self, shape):
        if len(shape) != 3:
            raise ShapeChainError(f"conv2d expects (C, H, W) input, got {shape}")
        c, h, w = shape
        oc, ic, kh, kw = self.weight.shape
        if c != ic:
            raise ShapeChainError(f"conv2d expects {ic} input channels, got {c}")
        if self.bias.shape != (oc,):
            raise ShapeChainError(f"conv2d bias shape {self.bias.shape} does not match {oc} outputs")
        if self.stride < 1:
            raise ShapeChainError(f"conv2d stride must be >= 1, got {self.stride}")
        ho = (h + 2 * self.padding - kh) // self.stride + 1
        wo = (w + 2 * self.padding - kw) // self.stride + 1
        if ho < 1 or wo < 1:
            raise ShapeChainError(
                f"conv2d kernel {kh}x{kw} does not fit input {h}x{w} "
                f"with padding {self.padding}"
            )
        return (oc, ho, wo)

    def forward(self, x):
        n, c, h, w = x.shape
        oc, ic, kh, kw = self.weight.shape
        s, p = self.stride, self.padding
        ho = (h + 2 * p - kh) // s + 1
        wo = (w + 2 * p - kw) // s + 1
        if p:
            xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
            xp[:, :, p : p + h, p : p + w] = x
        else:
            xp = x
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
        win = win[:, :, ::s, ::s][:, :, :ho, :wo]
        # columns (N, C*kh*kw, Ho*Wo); this axis order keeps the copy reading
        # contiguous rows of the padded input
        cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(
            n, ic * kh * kw, ho * wo
        )
        wmat = self.weight.reshape(oc, -1)
        y = np.matmul(wmat, cols)
        y += self.bias[:, None]
        return y.reshape(n, oc, ho, wo), (x.shape, cols)

    def backward(self, dy, cache, param_grads=True):
        xshape, cols = cache
        n, c, h, w = xshape
        oc, ic, kh, kw = self.weight.shape
        s, p = self.stride, self.padding
        ho, wo = dy.shape[2], dy.shape[3]
        dy3 = dy.reshape(n, oc, ho * wo)
        wmat = self.weight.reshape(oc, -1)
        dcols = np.matmul(wmat.T, dy3)  # (N, IC*kh*kw, Ho*Wo)
        dxp = np.zeros((n, c, h + 2 * p, w + 2 * p))
        dcols6 = dcols.reshape(n, ic, kh, kw, ho, wo)
        for ki in range(kh):
            for kj in range(kw):
                dxp[:, :, ki : ki + s * ho : s, kj : kj + s * wo : s] += dcols6[
                    :, :, ki, kj
                ]
        dx = dxp[:, :, p : p + h, p : p + w] if p else dxp
        if not param_grads:
            return dx, None
        dw = np.matmul(dy3, cols.transpose(0, 2, 1)).sum(axis=0)
        return dx, (dw.reshape(self.weight.shape), dy.sum(axis=(0, 2, 3)))


@dataclass
class Relu:
    kind: str = field(default="relu", init=False, repr=False)

    def out_shape(self, shape):
        return shape

    def forward(self, x):
        return np.maximum(x, 0.0), x > 0

    def backward(self, dy, cache, param_grads=True):
        return dy * cache, None


@dataclass
class MaxPool2x2:
    """Non-overlapping 2x2 max pooling; a trailing odd row/column is dropped."""

    kind: str = field(default="maxpool2x2", init=False, repr=False)

    def out_shape(self, shape):
        if len(shape) != 3:
            raise ShapeChainError(f"maxpool2x2 expects (C, H, W) input, got {shape}")
        c, h, w = shape
        if h < 2 or w < 2:
            raise ShapeChainError(f"maxpool2x2 needs at least 2x2 input, got {h}x{w}")
        return (c, h // 2, w // 2)

    def forward(self, x):
        h, w = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
        q0, q1, q2, q3 = (x[:, :, i:h:2, j:w:2] for i in (0, 1) for j in (0, 1))
        # np.maximum returns its second argument on a tie, so this order keeps
        # the first tied position's value, sign of zero included
        y = np.maximum(np.maximum(q3, q2), np.maximum(q1, q0))
        # winner index in (0,0) (0,1) (1,0) (1,1) order; ties go to the first
        idx = np.where(q0 == y, 0, np.where(q1 == y, 1, np.where(q2 == y, 2, 3)))
        return y, (x.shape, idx)

    def backward(self, dy, cache, param_grads=True):
        xshape, idx = cache
        h, w = xshape[2] // 2 * 2, xshape[3] // 2 * 2
        dx = np.zeros(xshape)
        for k in range(4):
            dx[:, :, k // 2 : h : 2, k % 2 : w : 2] = np.where(idx == k, dy, 0.0)
        return dx, None


@dataclass
class GlobalAvgPool:
    kind: str = field(default="avgpool_global", init=False, repr=False)

    def out_shape(self, shape):
        if len(shape) != 3:
            raise ShapeChainError(f"avgpool_global expects (C, H, W) input, got {shape}")
        return (shape[0],)

    def forward(self, x):
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, dy, cache, param_grads=True):
        n, c, h, w = cache
        dx = np.broadcast_to(dy[:, :, None, None], (n, c, h, w)) / (h * w)
        return np.ascontiguousarray(dx), None


@dataclass
class Flatten:
    kind: str = field(default="flatten", init=False, repr=False)

    def out_shape(self, shape):
        return (int(np.prod(shape)),)

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy, cache, param_grads=True):
        return dy.reshape(cache), None


@dataclass
class Dense:
    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    kind: str = field(default="dense", init=False, repr=False)

    def out_shape(self, shape):
        if len(shape) != 1:
            raise ShapeChainError(f"dense expects a flat input, got {shape}")
        out_dim, in_dim = self.weight.shape
        if shape[0] != in_dim:
            raise ShapeChainError(f"dense expects input dim {in_dim}, got {shape[0]}")
        if self.bias.shape != (out_dim,):
            raise ShapeChainError(f"dense bias shape {self.bias.shape} does not match {out_dim} outputs")
        return (out_dim,)

    def forward(self, x):
        return x @ self.weight.T + self.bias, x

    def backward(self, dy, cache, param_grads=True):
        dx = dy @ self.weight
        if not param_grads:
            return dx, None
        return dx, (dy.T @ cache, dy.sum(axis=0))


# --------------------------------------------------------------------------
# Model


@dataclass
class Model:
    layers: list
    input_shape: tuple  # (3, H, W)
    class_names: tuple
    pixel_norm: str = "unit_01"

    def validate(self):
        """Check the shape chain, the class count, and weight finiteness."""
        if self.pixel_norm not in PIXEL_NORMS:
            raise ValueError(f"unknown pixel_norm {self.pixel_norm!r}")
        if len(self.input_shape) != 3 or self.input_shape[0] != 3:
            raise ShapeChainError(f"input_shape must be (3, H, W), got {self.input_shape}")
        shape = tuple(self.input_shape)
        for i, layer in enumerate(self.layers):
            try:
                shape = layer.out_shape(shape)
            except ShapeChainError as exc:
                raise ShapeChainError(f"layer {i} ({layer.kind}): {exc}") from None
            for name, arr in vars(layer).items():
                if isinstance(arr, np.ndarray) and not np.all(np.isfinite(arr)):
                    raise NonFiniteError(
                        f"layer {i} ({layer.kind}) has non-finite values in {name}"
                    )
        if shape != (len(self.class_names),):
            raise ShapeChainError(
                f"final output shape {shape} does not match "
                f"{len(self.class_names)} class names"
            )
        return self

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def class_index(self, name_or_index) -> int:
        """Resolve a class name or integer index, with validation."""
        if isinstance(name_or_index, (int, np.integer)):
            idx = int(name_or_index)
            if not 0 <= idx < self.num_classes:
                raise InvalidClassError(
                    f"class index {idx} out of range [0, {self.num_classes})"
                )
            return idx
        try:
            return self.class_names.index(name_or_index)
        except ValueError:
            raise InvalidClassError(f"unknown class name {name_or_index!r}") from None


@dataclass
class Prediction:
    logits: np.ndarray  # (K,)
    confidences: np.ndarray  # (K,), softmax of logits
    top_k: list  # full ranking of (class_index, class_name, confidence)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# --------------------------------------------------------------------------
# Forward / backward drivers


def _input_batch(model: Model, image: np.ndarray) -> np.ndarray:
    """Validate the model and one (H, W, 3) display image; return it as a normalized batch."""
    model.validate()
    image = np.asarray(image, dtype=np.float64)
    c, h, w = model.input_shape
    if image.ndim != 3 or image.shape != (h, w, c):
        raise ShapeMismatchError(
            f"image shape {tuple(image.shape)} does not match model input "
            f"(H, W, C) = ({h}, {w}, {c})"
        )
    if not np.all(np.isfinite(image)):
        raise NonFiniteError("image contains non-finite values")
    return normalize_images(model.pixel_norm, image[None])


def forward_batch(model: Model, xnorm: np.ndarray, keep_caches: bool = True):
    """Run normalized (N, 3, H, W) input through the layers.

    Returns (logits, caches); every intermediate activation is checked
    finite so the non-finite case is caught at the layer that produced it.
    """
    x = xnorm
    caches = []
    for i, layer in enumerate(model.layers):
        x, cache = layer.forward(x)
        if not np.all(np.isfinite(x)):
            raise NonFiniteError(f"layer {i} ({layer.kind}) produced non-finite values")
        caches.append(cache if keep_caches else None)
    return x, caches


def forward(model: Model, image: np.ndarray) -> Prediction:
    """Classify one (H, W, 3) display-unit image."""
    logits, _ = forward_batch(model, _input_batch(model, image), keep_caches=False)
    logits = logits[0]
    conf = softmax(logits)
    order = np.argsort(-conf, kind="stable")  # ties break toward smaller index
    top = [(int(i), model.class_names[int(i)], float(conf[int(i)])) for i in order]
    return Prediction(logits=logits, confidences=conf, top_k=top)


def input_gradient(
    model: Model,
    image: np.ndarray,
    target_class: int,
    objective: str = "softmax_confidence",
) -> np.ndarray:
    """d(objective)/d(input), shape (3, H, W), in display units.

    The objective is either the post-softmax confidence of the target class
    or its raw logit. The backward pass is run with the model parameters
    fixed and computes no weight gradients; only the input gradient is
    returned.
    """
    _, g = confidence_and_input_gradient(model, image, target_class, objective)
    return g


def confidence_and_input_gradient(
    model: Model,
    image: np.ndarray,
    target_class: int,
    objective: str = "softmax_confidence",
):
    """One shared forward pass returning (confidence, input gradient).

    Optimization loops need both values at the current image; computing
    them together halves the cost over calling forward and input_gradient
    separately.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    x = _input_batch(model, image)
    target = model.class_index(target_class)
    logits, caches = forward_batch(model, x)
    conf = softmax(logits[0])
    q = float(conf[target])
    dlogits = np.zeros_like(logits)
    if objective == "softmax_confidence":
        # d conf_t / d logit_j = conf_t * (delta_tj - conf_j)
        dlogits[0] = conf[target] * (-conf)
        dlogits[0, target] += conf[target]
    else:
        dlogits[0, target] = 1.0
    d = dlogits
    for layer, cache in zip(reversed(model.layers), reversed(caches)):
        d, _ = layer.backward(d, cache, param_grads=False)
    g = d[0] * pixel_norm_slope(model.pixel_norm)
    return q, g
