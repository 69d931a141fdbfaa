"""Independent oracles and deterministic random test models.

The oracles here deliberately avoid the library's vectorized code paths:
convolution is a naive 6-nested loop, co-occurrence counting walks pixels
one by one, entropies are plain Python summations. They exist so the fast
implementations can be checked against something that is obviously the
textbook definition.
"""

from __future__ import annotations

import ctypes
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from tivis import nn
from tivis import parallel
from tivis.parallel import BLAS_THREAD_VARS, openblas_corename
from tivis.rng import _F53, _GOLDEN, _MASK, _MIX1, _MIX2
from tivis.shapes import ShapeDataset
from tivis.training import _split_indices


def blas_kernel_note() -> str:
    """Failure message for an assertion of golden bits, which were recorded
    under OpenBLAS's SkylakeX kernel: another kernel orders a DGEMM's sums
    differently, and gives other bits."""
    return f"golden bits recorded under OpenBLAS kernel SkylakeX; this run uses {openblas_corename()}"


# --------------------------------------------------------------------------
# Direct-summation network oracle (single sample, scalar loops)


def conv2d_direct(x, weight, bias, stride, padding):
    """Naive convolution: six nested loops, no vectorization."""
    c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    xp = np.zeros((c, h + 2 * padding, w + 2 * padding))
    xp[:, padding : padding + h, padding : padding + w] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((oc, ho, wo))
    for o in range(oc):
        for i in range(ho):
            for j in range(wo):
                acc = float(bias[o])
                for ci in range(ic):
                    for ki in range(kh):
                        for kj in range(kw):
                            acc += weight[o, ci, ki, kj] * xp[ci, i * stride + ki, j * stride + kj]
                out[o, i, j] = acc
    return out


def conv2d_backward_direct(x, weight, stride, padding, dy):
    """Naive convolution backward of an (N, C, H, W) batch: (dx, dw, db).

    Each output gradient dy[b, o, i, j] is spread back over the window that
    output was summed from: into dx through the weights, into dw through
    the (zero-padded) inputs, and into db directly.
    """
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    ho, wo = dy.shape[2], dy.shape[3]
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + w] = x
    dxp = np.zeros(xp.shape)
    dw = np.zeros(weight.shape)
    db = np.zeros(oc)
    for b in range(n):
        for o in range(oc):
            for i in range(ho):
                for j in range(wo):
                    g = float(dy[b, o, i, j])
                    db[o] += g
                    for ci in range(ic):
                        for ki in range(kh):
                            for kj in range(kw):
                                r, q = i * stride + ki, j * stride + kj
                                dw[o, ci, ki, kj] += g * xp[b, ci, r, q]
                                dxp[b, ci, r, q] += g * weight[o, ci, ki, kj]
    return dxp[:, :, padding : padding + h, padding : padding + w], dw, db


def conv2d_input_grad_by_windows(weight, stride, padding, xshape, dy):
    """Conv input gradient with each tap's columns added into its 2-D window.

    The columns come from one matmul over the Ho*Wo outputs, and the taps
    are added into a zeroed padded input in (ki, kj) order: the summation
    order whose bits Conv2d.backward must keep.
    """
    n, c, h, w = xshape
    oc, ic, kh, kw = weight.shape
    ho, wo = dy.shape[2], dy.shape[3]
    dcols = np.matmul(weight.reshape(oc, -1).T, dy.reshape(n, oc, ho * wo))
    dcols = dcols.reshape(n, ic, kh, kw, ho, wo)
    s, p = stride, padding
    dxp = np.zeros((n, c, h + 2 * p, w + 2 * p))
    for ki in range(kh):
        for kj in range(kw):
            dxp[:, :, ki : ki + s * ho : s, kj : kj + s * wo : s] += dcols[:, :, ki, kj]
    return dxp[:, :, p : p + h, p : p + w]


def dense_backward_direct(x, weight, dy):
    """Naive dense backward of an (N, D) batch by scalar loops: (dx, dw, db)."""
    n, in_dim = x.shape
    out_dim = weight.shape[0]
    dx = np.zeros((n, in_dim))
    dw = np.zeros((out_dim, in_dim))
    db = np.zeros(out_dim)
    for b in range(n):
        for o in range(out_dim):
            g = float(dy[b, o])
            db[o] += g
            for i in range(in_dim):
                dx[b, i] += g * weight[o, i]
                dw[o, i] += g * x[b, i]
    return dx, dw, db


def maxpool2x2_direct(x, dy=None):
    """2x2 max pooling of (N, C, H, W) by scalar loops; returns (y, idx, dx).

    A window's winner is its first maximal element in (0,0) (0,1) (1,0)
    (1,1) order, and idx holds that position. y is the winning element
    itself, so a -0.0 winner stays -0.0. dx routes dy to the winners and is
    zero elsewhere, including a trailing odd row or column; it is None
    when dy is.
    """
    n, c, h, w = x.shape
    y = np.zeros((n, c, h // 2, w // 2))
    idx = np.zeros(y.shape, dtype=np.int64)
    dx = None if dy is None else np.zeros(x.shape)
    for b, ci, i, j in np.ndindex(y.shape):
        window = [x[b, ci, 2 * i + k // 2, 2 * j + k % 2] for k in range(4)]
        best = 0
        for k in range(1, 4):
            if window[k] > window[best]:
                best = k
        y[b, ci, i, j] = window[best]
        idx[b, ci, i, j] = best
        if dx is not None:
            dx[b, ci, 2 * i + best // 2, 2 * j + best % 2] = dy[b, ci, i, j]
    return y, idx, dx


def forward_direct(model, image):
    """Full forward pass via scalar loops; returns logits for one image."""
    h_img, w_img = image.shape[:2]
    x = np.empty((3, h_img, w_img))
    for ch in range(3):
        for i in range(h_img):
            for j in range(w_img):
                v = float(image[i, j, ch])
                x[ch, i, j] = v / 255.0 if model.pixel_norm == "unit_01" else v / 127.5 - 1.0
    for layer in model.layers:
        if layer.kind == "conv2d":
            x = conv2d_direct(x, layer.weight, layer.bias, layer.stride, layer.padding)
        elif layer.kind == "relu":
            x = np.where(x > 0, x, 0.0)
        elif layer.kind == "maxpool2x2":
            x = maxpool2x2_direct(x[None])[0][0]
        elif layer.kind == "avgpool_global":
            c = x.shape[0]
            x = np.array([float(np.sum(x[ci])) / x[ci].size for ci in range(c)])
        elif layer.kind == "flatten":
            x = x.reshape(-1)
        elif layer.kind == "dense":
            o, i_dim = layer.weight.shape
            out = np.zeros(o)
            for oi in range(o):
                acc = float(layer.bias[oi])
                for ii in range(i_dim):
                    acc += layer.weight[oi, ii] * x[ii]
                out[oi] = acc
            x = out
        else:
            raise AssertionError(f"oracle does not know layer kind {layer.kind}")
    return x


# --------------------------------------------------------------------------
# Bilinear resampling oracle (scalar loops)


def bilinear_direct(image, source):
    """Inverse-mapped bilinear resampling of an (h, w, 3) image.

    source(i, j) gives the real (x, y) coordinates that output row i,
    column j samples. Each channel sums the four corners in (x0, y0)
    (x0+1, y0) (x0, y0+1) (x0+1, y0+1) order, skipping any corner outside
    the image, into a sum that starts at 0.0; the sum is clamped to
    [0, 255].
    """
    h, w = image.shape[:2]
    out = np.zeros(image.shape)
    for i, j in np.ndindex(h, w):
        sx, sy = source(i, j)
        x0, y0 = math.floor(sx), math.floor(sy)
        fx, fy = sx - x0, sy - y0
        corners = (
            (x0, y0, (1.0 - fx) * (1.0 - fy)),
            (x0 + 1, y0, fx * (1.0 - fy)),
            (x0, y0 + 1, (1.0 - fx) * fy),
            (x0 + 1, y0 + 1, fx * fy),
        )
        for ch in range(3):
            acc = 0.0
            for xi, yi, weight in corners:
                if 0 <= xi < w and 0 <= yi < h:
                    acc += weight * float(image[yi, xi, ch])
            out[i, j, ch] = min(max(acc, 0.0), 255.0)
    return out


def rotate_direct(image, angle):
    """transforms.rotate by bilinear_direct: output (i, j) samples the point
    that rotating it by -angle about the center reaches; the sine and cosine
    of quarter turns are exact."""
    a = float(angle) % 360.0  # 360.0 for a tiny negative angle
    exact = {0.0: (1.0, 0.0), 90.0: (0.0, 1.0), 180.0: (-1.0, 0.0), 270.0: (0.0, -1.0), 360.0: (1.0, 0.0)}
    c, s = exact[a] if a in exact else (math.cos(math.radians(a)), math.sin(math.radians(a)))
    cx, cy = (image.shape[1] - 1) / 2.0, (image.shape[0] - 1) / 2.0

    def source(i, j):
        dx, dy = j - cx, i - cy
        return c * dx + s * dy + cx, -s * dx + c * dy + cy

    return bilinear_direct(image, source)


def scale_direct(image, factor):
    """transforms.scale by bilinear_direct: output (i, j) samples the point
    at 1 / factor of its offset from the center."""
    cx, cy = (image.shape[1] - 1) / 2.0, (image.shape[0] - 1) / 2.0

    def source(i, j):
        return (j - cx) / factor + cx, (i - cy) / factor + cy

    return bilinear_direct(image, source)


# --------------------------------------------------------------------------
# Finite-difference input-gradient oracle


def fd_input_gradient(model, image, target, objective, h=1e-4):
    """Central finite differences in normalized units, rescaled to display."""
    x = nn.normalize_images(model.pixel_norm, np.asarray(image, dtype=np.float64)[None])

    def objective_at(xn):
        logits, _ = nn.forward_batch(nn.plan(model), xn, grads=None)
        if objective == "logit":
            return float(logits[0, target])
        return float(nn.softmax(logits[0])[target])

    grad = np.zeros(x.shape[1:])
    for idx in np.ndindex(grad.shape):
        xp = x.copy()
        xp[(0,) + idx] += h
        xm = x.copy()
        xm[(0,) + idx] -= h
        grad[idx] = (objective_at(xp) - objective_at(xm)) / (2.0 * h)
    return grad * nn.pixel_norm_slope(model.pixel_norm)


def relu_and_pool_margins(model, image):
    """Smallest |pre-activation| at ReLUs and top-2 gap in pool windows.

    Finite differences are only trustworthy away from the kinks of relu and
    maxpool; seeded cases whose margins are below a safe threshold get
    resampled (standard practice for gradient checks).
    """
    x = nn.normalize_images(model.pixel_norm, np.asarray(image, dtype=np.float64)[None])
    margin = np.inf
    for layer in model.layers:
        if layer.kind == "relu":
            margin = min(margin, float(np.min(np.abs(x))))
        if layer.kind == "maxpool2x2":
            n, c, h, w = x.shape
            win = x[:, :, : h // 2 * 2, : w // 2 * 2].reshape(
                n, c, h // 2, 2, w // 2, 2
            ).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
            top2 = np.sort(win, axis=-1)[..., -2:]
            margin = min(margin, float(np.min(top2[..., 1] - top2[..., 0])))
        x, _ = layer.forward(x)
    return margin


# --------------------------------------------------------------------------
# Random small models for gradient and equivalence checks


def random_small_model(seed):
    """Deterministic small random model + image with safe kink margins."""
    base = seed
    while True:
        model, image = _draw_model(base)
        if relu_and_pool_margins(model, image) > 1e-3:
            return model, image
        base += 1000


def conv_relu_dense_model(height: int, width: int, seed: int = 0):
    """A conv-relu-flatten-dense model of (3, height, width) input and 3 classes."""
    rng = np.random.default_rng(seed)
    conv = nn.Conv2d(weight=rng.normal(0, 0.1, (2, 3, 3, 3)), bias=np.zeros(2), padding=1)
    dense = nn.Dense(weight=rng.normal(0, 0.01, (3, 2 * height * width)), bias=np.zeros(3))
    return nn.Model(
        layers=[conv, nn.Relu(), nn.Flatten(), dense],
        input_shape=(3, height, width),
        class_names=("a", "b", "c"),
    ).validate()


def _draw_model(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(6, 11))
    k = int(rng.integers(3, 6))
    pixel_norm = "unit_01" if rng.integers(2) == 0 else "signed_11"
    variant = int(rng.integers(3))
    layers = []
    if variant == 0:
        c1 = int(rng.integers(2, 5))
        layers += [
            nn.Conv2d(weight=rng.normal(0, 0.4, (c1, 3, 3, 3)), bias=rng.normal(0, 0.2, c1), padding=1),
            nn.Relu(),
            nn.MaxPool2x2(),
            nn.Flatten(),
        ]
        feat = c1 * (size // 2) ** 2
    elif variant == 1:
        c1 = int(rng.integers(2, 5))
        c2 = int(rng.integers(2, 5))
        layers += [
            nn.Conv2d(weight=rng.normal(0, 0.4, (c1, 3, 3, 3)), bias=rng.normal(0, 0.2, c1)),
            nn.Relu(),
            nn.Conv2d(weight=rng.normal(0, 0.4, (c2, c1, 1, 1)), bias=rng.normal(0, 0.2, c2)),
            nn.Relu(),
            nn.Flatten(),
        ]
        feat = c2 * (size - 2) ** 2
    else:
        c1 = int(rng.integers(3, 6))
        layers += [
            nn.Conv2d(weight=rng.normal(0, 0.4, (c1, 3, 2, 2)), bias=rng.normal(0, 0.2, c1), stride=2),
            nn.Relu(),
            nn.GlobalAvgPool(),
        ]
        feat = c1
    layers.append(nn.Dense(weight=rng.normal(0, 0.5, (k, feat)), bias=rng.normal(0, 0.2, k)))
    model = nn.Model(
        layers=layers,
        input_shape=(3, size, size),
        class_names=tuple(f"c{i}" for i in range(k)),
        pixel_norm=pixel_norm,
    ).validate()
    image = np.floor(rng.uniform(0, 256, (size, size, 3)))
    return model, image


# --------------------------------------------------------------------------
# Entropy oracles (pure Python loops)


def cooccurrence_direct(gray):
    """Per-pixel co-occurrence counting with replicate padding, as a dict."""
    gray = np.asarray(gray, dtype=int)
    h, w = gray.shape
    counts = {}
    for i in range(h):
        for j in range(w):
            total = 0
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    ii = min(max(i + di, 0), h - 1)
                    jj = min(max(j + dj, 0), w - 1)
                    total += int(gray[ii, jj])
            mean = total / 8.0
            jv = math.floor(mean + 0.5)  # round half away from zero (nonnegative)
            key = (int(gray[i, j]), jv)
            counts[key] = counts.get(key, 0) + 1
    return counts, h * w


def entropy_direct(counts, total):
    """Plain-Python Shannon entropy in bits from a count mapping."""
    acc = 0.0
    for c in counts.values():
        p = c / total
        acc -= p * math.log2(p)
    return acc


def entropy_of_gray_direct(gray):
    counts, total = cooccurrence_direct(gray)
    return entropy_direct(counts, total)


def luma_direct(r, g, b):
    """Integer BT.601 luma for integer channel values."""
    return (30 * int(r) + 59 * int(g) + 11 * int(b)) // 100


def write_model_file(path, manifest: bytes, blob: bytes = b"") -> None:
    """Write a GBXM file around a hand-made manifest, bypassing save_model."""
    path.write_bytes(b"GBXM" + bytes([1]) + len(manifest).to_bytes(8, "little") + manifest + blob)


# --------------------------------------------------------------------------
# BLAS thread control for the fork_map tests


def clear_blas_thread_vars(monkeypatch):
    """Unset every BLAS thread variable for the test."""
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)


def one_blas_thread(monkeypatch):
    """Give the process the import-time count of one BLAS thread, so that
    helpers fork when two CPUs are usable."""
    monkeypatch.setattr(parallel, "_BLAS_THREADS", 1)


def openblas_thread_functions():
    """(set, get) of the loaded OpenBLAS's thread count, or None without OpenBLAS.

    It needs only ctypes and numpy, so a subprocess can run its source
    before it imports tivis.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if setter is not None:
            getter = getattr(lib, f"{prefix}get_num_threads{suffix}")
            getter.restype = ctypes.c_int
            return setter, getter
    return None


def run_fresh(code: str, *argv: str, **env_vars: str) -> str:
    """The stdout of code run in a new interpreter with argv, asserting that
    it exits 0. Its environment is this one without the variables through
    which a user sets the BLAS threads or malloc, plus env_vars, and with
    tivis importable, so the import makes its own settings unless env_vars
    makes one."""
    user_settings = BLAS_THREAD_VARS + parallel._MALLOC_ENV_VARS + ("GLIBC_TUNABLES",)
    env = {k: v for k, v in os.environ.items() if k not in user_settings}
    src = str(Path(parallel.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**env, **env_vars},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# --------------------------------------------------------------------------
# Seeded test data


def uniform_field(seed: int, shape: tuple, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Deterministic array of uniform doubles in [lo, hi), counter-based.

    Element ``i`` (C order) is splitmix64 output ``i`` of the seed's stream,
    computed with vectorized uint64 arithmetic, so large fields are cheap.
    """
    n = int(np.prod(shape)) if shape else 1
    idx = np.arange(1, n + 1, dtype=np.uint64)
    z = (np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    u = (z >> np.uint64(11)).astype(np.float64) * _F53
    return (lo + (hi - lo) * u).reshape(shape)


def training_split(dataset: ShapeDataset, config) -> ShapeDataset:
    """The training subset that train() carves out beside validation_split."""
    _, idx = _split_indices(len(dataset), config)
    return dataclasses.replace(dataset, images=dataset.images[idx], labels=dataset.labels[idx])
