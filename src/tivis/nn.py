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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidClassError, NonFiniteError, ShapeChainError, ShapeMismatchError

# pixel_norm -> (display units per normalized unit, display value whose
# normalized value is exactly 0)
_PIXEL_NORM_TABLE = {"unit_01": (255.0, 0.0), "signed_11": (127.5, 127.5)}

PIXEL_NORMS = tuple(_PIXEL_NORM_TABLE)

OBJECTIVES = ("softmax_confidence", "logit")

# the largest image side, of the input or of a conv's padded input, that a
# model may declare: it bounds the arrays a model file can make a run build
MAX_SIDE = 1024

# the most values per image of any array a pass builds: 32 channels of
# MAX_SIDE x MAX_SIDE, 256 MiB of float64. Only a conv builds arrays larger
# than its input and its weights, so Conv2d.out_shape checks each of its own:
# the padded input, the im2col columns, the output and backward's buffers
MAX_VALUES = 32 * MAX_SIDE * MAX_SIDE


def _pixel_norm(pixel_norm: str) -> tuple:
    try:
        return _PIXEL_NORM_TABLE[pixel_norm]
    except KeyError:
        raise ValueError(f"unknown pixel_norm {pixel_norm!r}") from None


def pixel_norm_slope(pixel_norm: str) -> float:
    """d(normalized)/d(display) for the given convention."""
    return 1.0 / _pixel_norm(pixel_norm)[0]


def zero_display_value(pixel_norm: str) -> float:
    """Display value whose normalized value is exactly 0."""
    return _pixel_norm(pixel_norm)[1]


def normalize_images(pixel_norm: str, images: np.ndarray) -> np.ndarray:
    """(N, H, W, 3) display units -> (N, 3, H, W) normalized float64."""
    x = np.ascontiguousarray(np.transpose(images, (0, 3, 1, 2)), dtype=np.float64)
    return _normalize(pixel_norm, x)


def _normalize(pixel_norm: str, x: np.ndarray) -> np.ndarray:
    """Display units -> normalized, elementwise, in any layout."""
    scale, zero = _pixel_norm(pixel_norm)
    y = x / scale
    if zero:
        y -= zero / scale
    return y


# --------------------------------------------------------------------------
# Layers
#
# Each layer, and ReluMaxPool2x2, plan's one step for a Relu then a
# MaxPool2x2, implements:
#   out_shape(shape)      per-sample shape propagation, used for validation
#   forward(x, grads="weights") -> (y, cache)
#                         "weights" caches all that backward and weight_grads
#                         read; None caches nothing, so the cache is None and
#                         the pools skip their winners
#   backward(dy, cache) -> (dx, None), the input gradient alone
# Layers with parameters also implement weight_grads(dy, cache) -> (dW, db),
# the batch's sums, shaped like weight and bias.
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
        hp, wp = h + 2 * self.padding, w + 2 * self.padding
        if max(hp, wp) > MAX_SIDE:
            raise ShapeChainError(f"conv2d padded input {hp}x{wp} exceeds the side limit {MAX_SIDE}")
        ho = (hp - kh) // self.stride + 1
        wo = (wp - kw) // self.stride + 1
        if ho < 1 or wo < 1:
            raise ShapeChainError(
                f"conv2d kernel {kh}x{kw} does not fit input {h}x{w} "
                f"with padding {self.padding}"
            )
        # the flat rows of backward's buffers: dy padded, the taps' columns
        # and the strided input gradient
        rows = _col2im_rows(h, ho, kh, self.stride, self.padding)
        flat = max(oc, kh * kw * ic, self.stride * ic) * rows * wp
        for what, values in (
            ("padded input", ic * hp * wp),
            ("im2col columns", ic * kh * kw * ho * wo),
            ("output", oc * ho * wo),
            ("input-gradient buffer", flat),
        ):
            if values > MAX_VALUES:
                raise ShapeChainError(
                    f"conv2d {what} of {values} values per image exceeds the limit {MAX_VALUES}"
                )
        return (oc, ho, wo)

    def forward(self, x, grads="weights"):
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
        # columns (N, C*kh*kw, Ho*Wo), one strided tap slice of the padded
        # input at a time
        cols = np.empty((n, c, kh, kw, ho, wo), dtype=xp.dtype)
        for ki in range(kh):
            for kj in range(kw):
                cols[:, :, ki, kj] = xp[:, :, ki : ki + s * ho : s, kj : kj + s * wo : s]
        cols = cols.reshape(n, ic * kh * kw, ho * wo)
        wmat = self.weight.reshape(oc, -1)
        y = np.matmul(wmat, cols)
        y += self.bias[:, None]
        y = y.reshape(n, oc, ho, wo)
        return y, ((x.shape, cols) if grads else None)

    def backward(self, dy, cache):
        n, _, h, w = cache[0]
        oc, ic, kh, kw = self.weight.shape
        s, p = self.stride, self.padding
        ho, wo = dy.shape[2], dy.shape[3]
        rows, wp = _col2im_rows(h, ho, kh, s, p), w + 2 * p
        # col2im on flat rows of the padded width wp: with dy padded by zero
        # columns to wp and zero rows below, output (i, j) of tap (ki, kj)
        # lands at flat s * (i * wp + j) + ki * wp + kj of its channel's block
        # of s * rows * wp. The dcols rows run (tap, channel), so each tap adds
        # one flat slice across all channels of a sample, in (ki, kj) order;
        # what spills into the next channel's block comes from the padding and
        # is +-0.0, and a sum that starts at +0.0 never becomes -0.0, so every
        # bit is as the 2-D window loop had it
        dyp = np.zeros((n, oc, rows, wp))
        dyp[:, :, :ho, :wo] = dy
        wt = self.weight.transpose(2, 3, 1, 0).reshape(kh * kw * ic, oc)  # rows (tap, channel)
        block = ic * rows * wp
        dcols = np.matmul(wt, dyp.reshape(n, oc, rows * wp)).reshape(n, kh * kw, block)
        del dyp  # freed before dxf is allocated, which lowers a training step's peak memory
        dxf = np.zeros((n, s * block))
        for k in range(kh * kw):
            at = k // kw * wp + k % kw
            dxf[:, at::s] += dcols[:, k, : (s * block - at + s - 1) // s]
        return dxf.reshape(n, ic, s * rows, wp)[:, :, p : p + h, p : p + w], None

    def weight_grads(self, dy, cache):
        """The batch's (dW, db), without the input gradient."""
        n, oc = dy.shape[:2]
        dw = np.matmul(dy.reshape(n, oc, -1), cache[1].transpose(0, 2, 1)).sum(axis=0)
        return dw.reshape(self.weight.shape), dy.sum(axis=(0, 2, 3))


def _col2im_rows(h: int, ho: int, kh: int, s: int, p: int) -> int:
    """The rows dy is padded to for Conv2d.backward's flat col2im: enough that
    the s * rows input-gradient rows hold every tap's last row, s * (ho - 1) +
    kh - 1, and the input's, p + h - 1."""
    return max(ho - 1 + -(-kh // s), -(-(h + p) // s))


@dataclass
class Relu:
    kind: str = field(default="relu", init=False, repr=False)

    def out_shape(self, shape):
        return shape

    def forward(self, x, grads="weights"):
        return np.maximum(x, 0.0), (x > 0 if grads else None)

    def backward(self, dy, cache):
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

    def forward(self, x, grads="weights"):
        q0, q1, q2, q3 = _quadrants(x)
        # np.maximum returns its second argument on a tie, so this order keeps
        # the first tied position's value, sign of zero included
        y = np.maximum(np.maximum(q3, q2), np.maximum(q1, q0))
        if not grads:
            return y, None
        # winner index in (0,0) (0,1) (1,0) (1,1) order, ties to the first:
        # the count of leading quadrants that miss the maximum
        n0 = q0 != y
        n1 = n0 & (q1 != y)
        n2 = n1 & (q2 != y)
        idx = n0.view(np.uint8) + n1.view(np.uint8)
        idx += n2.view(np.uint8)
        return y, (x.shape, idx)

    def backward(self, dy, cache):
        xshape, idx = cache
        # the four quadrant writes cover an even input whole
        dx = np.zeros(xshape) if xshape[2] % 2 or xshape[3] % 2 else np.empty(xshape)
        # where(idx == k, dy, +0.0) bit for bit, without its branches: the
        # integer product of dy's bit pattern with 1 or 0
        bits = dy.view(np.int64)
        for k, quadrant in enumerate(_quadrants(dx.view(np.int64))):
            np.multiply(bits, (idx == k).view(np.uint8), out=quadrant)
        return dx, None


@dataclass
class ReluMaxPool2x2:
    """A Relu and then pool as one plan step, with that pair's bits: relu(max)
    is max(relu), and a window with no positive element gets +0.0 from
    maximum(., 0.0) and winner 0, where the pair's tie of zeros puts it."""

    pool: MaxPool2x2
    kind: str = field(default="relu+maxpool2x2", init=False, repr=False)

    def forward(self, x, grads="weights"):
        m, cache = self.pool.forward(x, grads)
        y = np.maximum(m, 0.0)
        if not grads:
            return y, None
        mask = m > 0
        return y, (cache[0], cache[1] * mask, mask)

    def backward(self, dy, cache):
        return self.pool.backward(dy * cache[2], cache[:2])


def _quadrants(x):
    """The four strided 2x2-window positions of (N, C, H, W) x, in (0,0) (0,1)
    (1,0) (1,1) order, each (N, C, H // 2, W // 2)."""
    h, w = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
    return [x[:, :, i:h:2, j:w:2] for i in (0, 1) for j in (0, 1)]


@dataclass
class GlobalAvgPool:
    kind: str = field(default="avgpool_global", init=False, repr=False)

    def out_shape(self, shape):
        if len(shape) != 3:
            raise ShapeChainError(f"avgpool_global expects (C, H, W) input, got {shape}")
        return (shape[0],)

    def forward(self, x, grads="weights"):
        return x.mean(axis=(2, 3)), (x.shape if grads else None)

    def backward(self, dy, cache):
        n, c, h, w = cache
        dx = np.broadcast_to(dy[:, :, None, None], (n, c, h, w)) / (h * w)
        return np.ascontiguousarray(dx), None


@dataclass
class Flatten:
    kind: str = field(default="flatten", init=False, repr=False)

    def out_shape(self, shape):
        return (int(np.prod(shape)),)

    def forward(self, x, grads="weights"):
        return x.reshape(x.shape[0], -1), (x.shape if grads else None)

    def backward(self, dy, cache):
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

    def forward(self, x, grads="weights"):
        return x @ self.weight.T + self.bias, (x if grads else None)

    def backward(self, dy, cache):
        return dy @ self.weight, None

    def weight_grads(self, dy, cache):
        """The batch's (dW, db), without the input gradient."""
        return dy.T @ cache, dy.sum(axis=0)


# --------------------------------------------------------------------------
# Model


@dataclass
class Model:
    layers: list
    input_shape: tuple  # (3, H, W)
    class_names: tuple
    pixel_norm: str = "unit_01"

    def validate(self):
        """Check the shape chain, the class count and names, and weight finiteness."""
        if self.pixel_norm not in PIXEL_NORMS:
            raise ValueError(f"unknown pixel_norm {self.pixel_norm!r}")
        if len(self.input_shape) != 3 or self.input_shape[0] != 3:
            raise ShapeChainError(f"input_shape must be (3, H, W), got {self.input_shape}")
        if max(self.input_shape[1:]) > MAX_SIDE:
            raise ShapeChainError(f"input_shape {self.input_shape} exceeds the side limit {MAX_SIDE}")
        if min(self.input_shape[1:]) < 1:
            raise ShapeChainError(f"input_shape {self.input_shape} has a side below 1")
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
                f"final output shape {shape} does not match {len(self.class_names)} class names"
            )
        for i, name in enumerate(self.class_names):
            if name in self.class_names[:i]:
                raise ValueError(f"class name {name!r} is given more than once")
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


# ReLU, the pools and flatten map finite input to finite output, so checking
# only these layers' outputs still names the layer that first went non-finite
_UNBOUNDED_KINDS = ("conv2d", "dense", "avgpool_global")


def check_input(model: Model, image: np.ndarray) -> np.ndarray:
    """Validate the model and one (H, W, 3) display image; return it as float64."""
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
    return image


def plan(model: Model) -> list:
    """model's layers as the (layer index, step) pairs a pass runs: a Relu
    followed by a MaxPool2x2 is one ReluMaxPool2x2 step at the pool's index.
    A plan holds the layers themselves, so it follows a change to their weights
    but not to model.layers: each gradient step and forward call builds its
    own, and training one per run."""
    steps = []
    for i, layer in enumerate(model.layers):
        if layer.kind == "maxpool2x2" and steps and steps[-1][1].kind == "relu":
            steps[-1] = (i, ReluMaxPool2x2(layer))
        else:
            steps.append((i, layer))
    return steps


def forward_batch(steps: list, x: np.ndarray, grads: str | None = "weights"):
    """Run x through steps, a plan or a slice of one: (output, caches), one
    (step, cache) per step for backward_batch; grads=None keeps no caches."""
    caches = []
    for i, step in steps:
        x, cache = step.forward(x, grads)
        if grads:
            caches.append((step, cache))
        if step.kind in _UNBOUNDED_KINDS and not np.all(np.isfinite(x)):
            raise NonFiniteError(f"layer {i} ({step.kind}) produced non-finite values")
    return x, caches


def backward_batch(caches: list, d: np.ndarray, param_grads: bool = False):
    """Back-propagate d, the gradient at the output, through forward_batch's caches.

    Returns (dx, grads): the input gradient and []; or, with param_grads,
    None and the (layer, layer.weight_grads) of each layer with parameters,
    top first, without computing the first step's input gradient.
    """
    grads = []
    for k, (step, cache) in reversed(list(enumerate(caches))):
        if param_grads and hasattr(step, "weight_grads"):
            grads.append((step, step.weight_grads(d, cache)))
        if param_grads and k == 0:
            return None, grads
        d, _ = step.backward(d, cache)
    return d, grads


def _logits(model: Model, image: np.ndarray) -> np.ndarray:
    xnorm = normalize_images(model.pixel_norm, image[None])
    return forward_batch(plan(model), xnorm, grads=None)[0][0]


def forward(model: Model, image: np.ndarray) -> Prediction:
    """Classify one (H, W, 3) display-unit image."""
    logits = _logits(model, check_input(model, image))
    conf = softmax(logits)
    order = np.argsort(-conf, kind="stable")  # ties break toward smaller index
    top = [(int(i), model.class_names[int(i)], float(conf[int(i)])) for i in order]
    return Prediction(logits=logits, confidences=conf, top_k=top)


def confidence(model: Model, image: np.ndarray, target: int) -> float:
    """Softmax confidence of class target at one (H, W, 3) display image;
    unchecked, for callers that ran check_input and class_index."""
    return float(softmax(_logits(model, image))[target])


def gradient_step(model: Model, x: np.ndarray, target: int, objective: str):
    """(confidence, input gradient) at a (3, H, W) display-unit image x;
    unchecked, like confidence."""
    logits, caches = forward_batch(plan(model), _normalize(model.pixel_norm, x)[None])
    conf = softmax(logits[0])
    dlogits = np.zeros_like(logits)
    if objective == "softmax_confidence":
        # d conf_t / d logit_j = conf_t * (delta_tj - conf_j)
        dlogits[0] = conf[target] * (-conf)
        dlogits[0, target] += conf[target]
    else:
        dlogits[0, target] = 1.0
    d, _ = backward_batch(caches, dlogits)
    return float(conf[target]), d[0] * pixel_norm_slope(model.pixel_norm)


def input_gradient(
    model: Model,
    image: np.ndarray,
    target_class: int,
    objective: str = "softmax_confidence",
) -> np.ndarray:
    """d(objective)/d(input), shape (3, H, W), in display units.

    The objective is either the post-softmax confidence of the target class
    or its raw logit; no weight gradient is computed.
    """
    return confidence_and_input_gradient(model, image, target_class, objective)[1]


def confidence_and_input_gradient(
    model: Model,
    image: np.ndarray,
    target_class: int,
    objective: str = "softmax_confidence",
):
    """(confidence, input gradient) from one shared forward pass."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    image = check_input(model, image)
    target = model.class_index(target_class)
    return gradient_step(model, np.ascontiguousarray(image.transpose(2, 0, 1)), target, objective)
