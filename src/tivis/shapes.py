"""Synthetic geometric-shapes dataset.

Six grayscale shape classes rendered on 64x64x3 canvases with randomized
position, rotation, scale, and foreground/background gray levels. Every
sample is drawn from its own PRNG stream derived from (seed, class, index),
so generation is order-independent and a fixed seed reproduces the dataset
bit for bit.

Rasterization is hard-edged: a pixel is foreground exactly when its integer
coordinate point (x=column, y=row) satisfies the shape's membership test.
The disk ignores its rotation angle (rotating a disk is a no-op), which
keeps its membership test bit-identical to the plain point-in-disk check.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import PpmError
from .rng import Xoshiro256, derive_seed

CLASS_NAMES = ("ring", "cross", "stripes", "checker", "disk", "hex_outline")

IMAGE_SIZE = 64

_CENTER_LO, _CENTER_HI = 26.0, 38.0
_RADIUS_LO, _RADIUS_HI = 11.0, 17.0
_BG_MAX = 90  # background gray in [0, _BG_MAX]
_FG_MIN = 150  # foreground gray in [_FG_MIN, 255]

_STREAM_SAMPLE = 11

_GRID = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE].astype(np.float64)  # (y, x) of each pixel
_GRID.flags.writeable = False

# 6,000 images, about 74 MB as uint8; `tivis train` at this count for one
# epoch peaks at about 107 MiB (2 CPUs, numpy 2.4.6)
MAX_COUNT_PER_CLASS = 1000


@dataclass(frozen=True)
class ShapeParams:
    """Everything needed to render one sample."""

    class_index: int
    cx: float
    cy: float
    radius: float
    angle_deg: float
    fg: int
    bg: int


@dataclass
class ShapeDataset:
    images: np.ndarray  # (N, H, W, 3) uint8: display units, all integers in [0, 255]
    labels: np.ndarray  # (N,) int64
    seed: int
    class_names: tuple = CLASS_NAMES

    def __len__(self) -> int:
        return len(self.labels)


def shape_params(seed: int, class_index: int, sample_index: int) -> ShapeParams:
    """Deterministic render parameters for one (class, sample) pair.

    Draw order within the stream is fixed: bg, fg, cx, cy, radius, angle.
    """
    rng = Xoshiro256(derive_seed(seed, _STREAM_SAMPLE, class_index, sample_index))
    bg = rng.randint(_BG_MAX + 1)
    fg = _FG_MIN + rng.randint(256 - _FG_MIN)
    cx = rng.uniform(_CENTER_LO, _CENTER_HI)
    cy = rng.uniform(_CENTER_LO, _CENTER_HI)
    radius = rng.uniform(_RADIUS_LO, _RADIUS_HI)
    angle = rng.uniform(0.0, 360.0)
    return ShapeParams(class_index, cx, cy, radius, angle, fg, bg)


def render_shape(params: ShapeParams) -> np.ndarray:
    """Rasterize one sample to an (IMAGE_SIZE, IMAGE_SIZE, 3) display-unit buffer."""
    y, x = _GRID
    dx = x - params.cx
    dy = y - params.cy
    r = params.radius
    name = CLASS_NAMES[params.class_index]
    if name == "disk":
        mask = dx * dx + dy * dy <= r * r
    else:
        rad = math.radians(params.angle_deg)
        c, s = math.cos(rad), math.sin(rad)
        u = c * dx + s * dy
        v = -s * dx + c * dy
        mask = _membership(name, u, v, r)
    img = np.full((IMAGE_SIZE, IMAGE_SIZE, 3), float(params.bg))
    img[mask] = float(params.fg)
    return img


def _membership(name: str, u: np.ndarray, v: np.ndarray, r: float) -> np.ndarray:
    if name == "ring":
        d2 = u * u + v * v
        inner = 0.62 * r
        return (d2 <= r * r) & (d2 >= inner * inner)
    if name == "cross":
        arm = 0.22 * r
        return ((np.abs(u) <= arm) & (np.abs(v) <= r)) | (
            (np.abs(v) <= arm) & (np.abs(u) <= r)
        )
    if name == "stripes":
        box = (np.abs(u) <= r) & (np.abs(v) <= r)
        period = 0.4 * r
        return box & (np.floor((u + r) / period).astype(np.int64) % 2 == 0)
    if name == "checker":
        box = (np.abs(u) <= r) & (np.abs(v) <= r)
        cell = 0.5 * r
        iu = np.floor((u + r) / cell).astype(np.int64)
        iv = np.floor((v + r) / cell).astype(np.int64)
        return box & ((iu + iv) % 2 == 0)
    if name == "hex_outline":
        # inside the regular hexagon of circumradius r, outside the one of r * (1 - thickness):
        # d is the largest distance along the three slab normals at 0/60/120 deg
        thickness, half_sqrt3 = 0.22, math.sqrt(3.0) / 2.0
        d = np.maximum(np.abs(u), np.abs(0.5 * u + half_sqrt3 * v))
        d = np.maximum(d, np.abs(-0.5 * u + half_sqrt3 * v))
        return (d <= r * half_sqrt3) & (d > r * (1.0 - thickness) * half_sqrt3)
    raise ValueError(f"unknown shape class {name!r}")


def generate_dataset(seed: int, count_per_class: int) -> ShapeDataset:
    """Balanced dataset: count_per_class samples of each of the 6 classes."""
    if not 1 <= count_per_class <= MAX_COUNT_PER_CLASS:
        raise ValueError(
            f"count_per_class must be in [1, {MAX_COUNT_PER_CLASS}], got {count_per_class}"
        )
    labels = np.repeat(np.arange(len(CLASS_NAMES), dtype=np.int64), count_per_class)
    images = np.empty((len(labels), IMAGE_SIZE, IMAGE_SIZE, 3), dtype=np.uint8)
    for pos, label in enumerate(labels):
        images[pos] = render_shape(shape_params(seed, int(label), pos % count_per_class))
    return ShapeDataset(images=images, labels=labels, seed=seed)


# --------------------------------------------------------------------------
# Optional persistence: a directory of PPM files plus a manifest


def save_dataset(dataset: ShapeDataset, directory) -> None:
    from .ppm import write_ppm

    os.makedirs(directory, exist_ok=True)
    lines = [
        "#tivis-dataset v1",
        f"seed {dataset.seed}",
        "classes " + " ".join(dataset.class_names),
    ]
    for i, label in enumerate(dataset.labels):
        name = f"sample_{i:05d}.ppm"
        write_ppm(dataset.images[i], os.path.join(directory, name))
        lines.append(f"image {name} {int(label)}")
    with open(os.path.join(directory, "manifest.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_dataset(directory) -> ShapeDataset:
    """Read a save_dataset directory; a malformed manifest line is a ValueError
    naming it, and a corrupt image file its PpmError naming the line and file."""
    from .ppm import _read_pixels

    with open(os.path.join(directory, "manifest.txt"), "r", encoding="utf-8") as f:
        lines = [(n, ln.strip()) for n, ln in enumerate(f, 1) if ln.strip()]
    if not lines or lines[0][1] != "#tivis-dataset v1":
        raise ValueError("not a tivis dataset manifest")
    seed = 0
    class_names = CLASS_NAMES
    n_images = sum(line.split()[0] == "image" for _, line in lines[1:])
    images = None  # one array, made at the first image, with a row per image line
    labels = []
    for lineno, line in lines[1:]:
        directive, *fields = line.split()
        try:
            if directive == "seed" and len(fields) == 1:
                seed = int(fields[0])
            elif directive == "classes" and fields and not labels:
                class_names = tuple(fields)
            elif directive == "image" and len(fields) == 2:
                label = int(fields[1])
                if not 0 <= label < len(class_names):
                    raise ValueError(f"label {label} outside [0, {len(class_names)})")
                try:
                    image = _read_pixels(os.path.join(directory, fields[0]))
                except PpmError as exc:
                    raise type(exc)(f"manifest line {lineno}: {fields[0]}: {exc}") from None
                if images is None:
                    images = np.empty((n_images,) + image.shape, dtype=np.uint8)
                elif image.shape != images.shape[1:]:
                    raise ValueError(
                        f"image {fields[0]} has shape {image.shape}, "
                        f"the first image {images.shape[1:]}"
                    )
                images[len(labels)] = image
                labels.append(label)
            else:
                raise ValueError(f"malformed or misplaced directive {line!r}")
        except ValueError as exc:
            raise ValueError(f"manifest line {lineno}: {exc}") from None
    if images is None:
        raise ValueError("dataset manifest lists no images")
    return ShapeDataset(
        images=images,
        labels=np.asarray(labels, dtype=np.int64),
        seed=seed,
        class_names=class_names,
    )
