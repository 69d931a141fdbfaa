"""Image-information analytics used to rank visualization initializations.

The pipeline: convert to 8-bit grayscale (BT.601 integer luma), build the
co-occurrence matrix of (pixel value, rounded 8-neighborhood mean) pairs,
and take the Shannon entropy of that joint distribution. A sliding-window
map of that entropy, itself quantized to 8 bits and fed through the same
entropy once more, yields the "second-order" total used to pick the best
constant-gray initialization level.

Numeric conventions, all chosen so results are bit-testable:

* luma V = trunc((30 R + 59 G + 11 B) / 100), the integer form of the
  0.3/0.59/0.11 weights (exact for integer-valued channels);
* neighborhood mean j = round-half-away-from-zero of (8-neighbor sum)/8,
  computed as (sum + 4) // 8; borders use replicate padding so every pixel
  contributes exactly one pair and the pair count equals H*W;
* probabilities are counts / (H*W), so they sum to 1 exactly;
* entropies are in bits (log base 2), bounded by 16 = log2(256^2);
* map quantization sends [0, 16] bits linearly onto integer [0, 255] by
  truncation: q = trunc(value * 255 / 16).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import visualizer
from .errors import TivisError
from .parallel import fork_map
from .transforms import constant_image

DEFAULT_GRAY_LEVELS = tuple(range(0, 251, 10)) + (255,)  # 27 levels

DEFAULT_WINDOW = 32
DEFAULT_STRIDE = 16

MAX_ENTROPY_BITS = 16.0


def check_gray_level(gray):
    """Return a constant-init gray level, rejecting one outside [0, 255]."""
    if not 0 <= gray <= 255:
        raise ValueError(f"init gray level must be in [0, 255], got {gray}")
    return gray


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """BT.601 integer luma of an (H, W, 3) display-unit image."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected an (H, W, 3) image, got shape {tuple(image.shape)}")
    weighted = 30.0 * image[:, :, 0] + 59.0 * image[:, :, 1] + 11.0 * image[:, :, 2]
    return np.floor(weighted / 100.0).astype(np.int64)


@dataclass
class CoMatrix:
    counts: np.ndarray  # (256, 256) int64
    total: int

    @property
    def probabilities(self) -> np.ndarray:
        return self.counts / self.total


def cooccurrence(gray: np.ndarray) -> CoMatrix:
    """Joint counts of (pixel value, rounded 8-neighborhood mean)."""
    gray = np.asarray(gray, dtype=np.int64)
    if gray.ndim != 2:
        raise ValueError(f"expected a 2-D gray image, got shape {tuple(gray.shape)}")
    h, w = gray.shape
    if h < 3 or w < 3:
        raise ValueError(f"image must be at least 3x3 for the 8-neighborhood, got {h}x{w}")
    if gray.min() < 0 or gray.max() > 255:
        raise ValueError("gray values must lie in [0, 255]")
    padded = np.pad(gray, 1, mode="edge")
    neighbor_sum = np.zeros_like(gray)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            neighbor_sum += padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
    j = (neighbor_sum + 4) // 8  # round half away from zero; values nonnegative
    counts = np.zeros((256, 256), dtype=np.int64)
    np.add.at(counts, (gray.ravel(), j.ravel()), 1)
    return CoMatrix(counts=counts, total=h * w)


def entropy2d(co: CoMatrix) -> float:
    """Shannon entropy of the co-occurrence distribution, in bits."""
    if co.total <= 0:
        raise ValueError("co-occurrence total must be positive")
    p = co.counts[co.counts > 0] / co.total
    return float(-np.sum(p * np.log2(p)))


@dataclass
class EntropyMap:
    values: np.ndarray  # (rows, cols) float64, each in [0, 16]
    window: int
    stride: int


def entropy_map(gray: np.ndarray, window: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE) -> EntropyMap:
    """Sliding-window co-occurrence entropy over the gray image."""
    gray = np.asarray(gray, dtype=np.int64)
    h, w = gray.shape
    if window > min(h, w):
        raise ValueError(f"window {window} exceeds image size {h}x{w}")
    if window < 3:
        raise ValueError(f"window must be at least 3, got {window}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    rows = (h - window) // stride + 1
    cols = (w - window) // stride + 1
    values = np.empty((rows, cols))
    for r in range(rows):
        for c in range(cols):
            tile = gray[r * stride : r * stride + window, c * stride : c * stride + window]
            values[r, c] = entropy2d(cooccurrence(tile))
    return EntropyMap(values=values, window=window, stride=stride)


class MapTooSmallError(TivisError):
    """The entropy map has fewer than 3x3 cells, too few for second-order entropy."""


def quantize_map(map_: EntropyMap) -> np.ndarray:
    """[0, 16] bits -> integer [0, 255] by truncation."""
    q = np.floor(map_.values * (255.0 / MAX_ENTROPY_BITS)).astype(np.int64)
    return np.clip(q, 0, 255)


def second_order_entropy(map_: EntropyMap):
    """Entropy of the quantized entropy map, plus that quantized map.

    Returns (total, quantized). Raises MapTooSmallError below 3x3 cells;
    callers that only need a scalar may fall back to entropy2d of the image.
    """
    rows, cols = map_.values.shape
    if rows < 3 or cols < 3:
        raise MapTooSmallError(
            f"entropy map is {rows}x{cols}; second-order entropy needs at least 3x3"
        )
    quantized = quantize_map(map_)
    total = entropy2d(cooccurrence(quantized))
    return total, quantized


def avg_gray_change(init: np.ndarray, final: np.ndarray) -> float:
    """Mean absolute grayscale difference between two images."""
    init = np.asarray(init)
    final = np.asarray(final)
    if init.shape != final.shape:
        raise ValueError(f"image shapes differ: {init.shape} vs {final.shape}")
    gi = to_grayscale(init)
    gf = to_grayscale(final)
    return float(np.mean(np.abs(gf - gi)))


# --------------------------------------------------------------------------
# Gray-level initialization sweep


@dataclass
class InitRecord:
    gray: int
    status: str  # run status, or "error"
    image_id: str | None = None
    avg_gray_change: float | None = None
    second_order_total: float | None = None
    error: str | None = None


@dataclass
class SweepReport:
    records: list  # InitRecord, sorted by gray level
    best_init: int | None
    window: int
    stride: int


def init_sweep(
    model,
    target_class,
    schedule,
    config,
    stop,
    gray_levels=DEFAULT_GRAY_LEVELS,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
) -> SweepReport:
    """Visualize from each constant-gray init and rank by second-order entropy.

    A failed visualization is recorded and skipped, not fatal. best_init is
    the argmax of the second-order totals over the successful runs, ties
    resolved toward the smaller gray level. The levels run through
    parallel.fork_map; records are sorted by gray level, so the report does
    not depend on the processing order.
    """
    if not gray_levels:
        raise ValueError("gray_levels must be nonempty")
    # every level is checked before the first visualization runs
    levels = sorted(check_gray_level(int(g)) for g in gray_levels)
    _, h, w = model.input_shape

    def run_level(gray) -> InitRecord:
        init = constant_image(h, w, float(gray))
        try:
            final, trace = visualizer.visualize(model, target_class, init, schedule, config, stop)
            emap = entropy_map(to_grayscale(final), window=window, stride=stride)
            total, _ = second_order_entropy(emap)
            return InitRecord(
                gray=gray,
                status=trace.status,
                image_id=image_id(final),
                avg_gray_change=avg_gray_change(init, final),
                second_order_total=total,
            )
        except (TivisError, ValueError) as exc:
            return InitRecord(gray=gray, status="error", error=str(exc))

    records = fork_map(run_level, levels)
    scored = [rec for rec in records if rec.second_order_total is not None]
    # max keeps the first of equal totals, and records ascend by gray level
    best = max(scored, key=lambda rec: rec.second_order_total).gray if scored else None
    return SweepReport(records=records, best_init=best, window=window, stride=stride)


def image_id(image: np.ndarray) -> str:
    """Short content hash identifying an image buffer."""
    arr = np.ascontiguousarray(image, dtype=np.float64)
    digest = hashlib.sha256(arr.tobytes()).hexdigest()
    return digest[:16]
