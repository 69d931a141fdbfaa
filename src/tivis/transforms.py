"""Geometric transforms on square display-unit images.

Rotation and scaling use inverse mapping with bilinear resampling about the
image center ((W-1)/2, (H-1)/2). Source coordinates that fall outside the
original image contribute the value 0, so content clipped by the boundary
is replenished with zeros. Outputs are clamped to [0, 255].

The center convention makes rotations by multiples of 90 degrees exact
grid permutations; those angles take an exact-trig path (sin/cos drawn
from {-1, 0, 1}) so the results are bit-identical to index permutation.

Mapping convention: x indexes columns, y indexes rows. rotate(image, 90)
sends input[1][0] to output[0][0] on a 2x2 image, i.e. equals
numpy.rot90(image, k=-1, axes=(0, 1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn

SCALE_FACTOR_MAX = 8.0

# Longest transform list a sweep, a repeat or a whole list may expand to:
# a 0.1 degree rotation sweep. The defaults use 36.
MAX_TRANSFORMS = 3600

_EXACT_TRIG = {0.0: (1.0, 0.0), 90.0: (0.0, 1.0), 180.0: (-1.0, 0.0), 270.0: (0.0, -1.0)}


def clamp(image: np.ndarray) -> np.ndarray:
    """Clip display values into [0, 255]. Idempotent."""
    return np.clip(image, 0.0, 255.0)


def constant_image(height: int, width: int, value) -> np.ndarray:
    """(H, W, 3) buffer filled with a gray level or an (r, g, b) triple."""
    img = np.empty((height, width, 3), dtype=np.float64)
    img[:] = value
    return img


def _require_square(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected an (H, W, 3) image, got shape {tuple(image.shape)}")
    if image.shape[0] != image.shape[1]:
        raise ValueError(
            f"operation requires a square image, got {image.shape[0]}x{image.shape[1]}"
        )
    return image


def _bilinear_sample(image: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Sample image at real coordinates; out-of-range neighbors contribute 0.

    The image is copied once into zero-padded planes (3, h + 4, w + 4), and
    each of the four corners is one flat gather from them. A coordinate
    outside [-1, side] touches no pixel, so clipping the coordinates to
    [-2, side] first keeps every corner inside the padding without changing
    a result, and keeps infinite or huge coordinates out of the integer
    cast. A corner in the padding adds weight * +0.0 to a sum that starts at
    +0.0, which leaves every bit, sign of zero included, as a sum over the
    in-range corners alone would have it. The (H, W, 3) result lies in
    memory as (3, H, W), the layout the forward pass reads without a copy.
    """
    h, w = image.shape[:2]
    sx = np.clip(sx, -2.0, w)
    sy = np.clip(sy, -2.0, h)
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    wp = w + 4
    planes = np.zeros((3, h + 4, wp))
    planes[:, 2 : h + 2, 2 : w + 2] = image.transpose(2, 0, 1)
    planes = planes.reshape(3, -1)
    base = ((y0 + 2.0) * wp + (x0 + 2.0)).astype(np.int64)
    out = np.zeros((3, h, w))
    corners = (
        (0, (1.0 - fx) * (1.0 - fy)),
        (1, fx * (1.0 - fy)),
        (wp, (1.0 - fx) * fy),
        (wp + 1, fx * fy),
    )
    for off, weight in corners:
        out += weight * np.take(planes, base + off, axis=1)
    return clamp(out.transpose(1, 2, 0))


def rotate(image: np.ndarray, angle: float) -> np.ndarray:
    """Rotate a square image by the given angle in degrees."""
    image = _require_square(image)
    n = image.shape[0]
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError(f"rotate angle must be finite, got {angle}")
    a = angle % 360.0
    if a == 360.0:  # a tiny negative angle rounds up to a full turn
        a = 0.0
    if a in _EXACT_TRIG:
        c, s = _EXACT_TRIG[a]
    else:
        rad = math.radians(a)
        c, s = math.cos(rad), math.sin(rad)
    center = (n - 1) / 2.0
    coords = np.arange(n, dtype=np.float64) - center
    dx = coords[None, :]
    dy = coords[:, None]
    # inverse map: rotate output coordinates by -angle
    sx = c * dx + s * dy + center
    sy = -s * dx + c * dy + center
    return _bilinear_sample(image, np.broadcast_to(sx, (n, n)), np.broadcast_to(sy, (n, n)))


def flip(image: np.ndarray, axis: str) -> np.ndarray:
    """Mirror the image: 'horizontal' reverses columns, 'vertical' reverses rows."""
    image = np.asarray(image, dtype=np.float64)
    if axis in ("horizontal", "h"):
        return image[:, ::-1].copy()
    if axis in ("vertical", "v"):
        return image[::-1, :].copy()
    raise ValueError(f"flip axis must be 'horizontal' or 'vertical', got {axis!r}")


def scale(image: np.ndarray, factor: float) -> np.ndarray:
    """Bilinear zoom about the center, keeping the canvas size.

    factor > 1 magnifies (outer content cropped away); factor < 1 shrinks
    (the border ring is replenished with 0).
    """
    image = _require_square(image)
    factor = float(factor)
    if not 0.0 < factor <= SCALE_FACTOR_MAX:
        raise ValueError(f"scale factor must be in (0, {SCALE_FACTOR_MAX}], got {factor}")
    n = image.shape[0]
    center = (n - 1) / 2.0
    # a tiny factor sends the outer coordinates to +-inf, which the
    # sampler's coordinate clip turns into zero contributions
    with np.errstate(over="ignore"):
        coords = (np.arange(n, dtype=np.float64) - center) / factor + center
    sx = np.broadcast_to(coords[None, :], (n, n))
    sy = np.broadcast_to(coords[:, None], (n, n))
    return _bilinear_sample(image, sx, sy)


# --------------------------------------------------------------------------
# Transform specs, schedules, and the evaluation battery


@dataclass(frozen=True)
class TransformSpec:
    kind: str  # rotate | flip | scale
    angle: float = 0.0
    axis: str = "horizontal"
    factor: float = 1.0

    def __post_init__(self):
        if self.kind == "rotate":
            if not -360.0 < self.angle < 360.0:
                raise ValueError(f"rotate angle must be in (-360, 360), got {self.angle}")
        elif self.kind == "flip":
            if self.axis not in ("horizontal", "vertical"):
                raise ValueError(f"flip axis must be horizontal or vertical, got {self.axis!r}")
        elif self.kind == "scale":
            if not 0.0 < self.factor <= SCALE_FACTOR_MAX:
                raise ValueError(
                    f"scale factor must be in (0, {SCALE_FACTOR_MAX}], got {self.factor}"
                )
        else:
            raise ValueError(f"unknown transform kind {self.kind!r}")

    @classmethod
    def rotation(cls, angle: float) -> "TransformSpec":
        return cls(kind="rotate", angle=float(angle))

    @classmethod
    def mirror(cls, axis: str) -> "TransformSpec":
        return cls(kind="flip", axis=axis)

    @classmethod
    def zoom(cls, factor: float) -> "TransformSpec":
        return cls(kind="scale", factor=float(factor))

    def label(self) -> str:
        if self.kind == "rotate":
            return f"rot:{_fmt_num(self.angle)}"
        if self.kind == "flip":
            return f"flip:{self.axis[0]}"
        return f"scale:{_fmt_num(self.factor)}"


def _fmt_num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def apply_transform(image: np.ndarray, spec: TransformSpec) -> np.ndarray:
    if spec.kind == "rotate":
        return rotate(image, spec.angle)
    if spec.kind == "flip":
        return flip(image, spec.axis)
    return scale(image, spec.factor)


@dataclass(frozen=True)
class TransformSchedule:
    """Ordered outer-loop steps plus the evaluation battery."""

    steps: tuple
    battery: tuple

    def __post_init__(self):
        if not self.steps:
            raise ValueError("schedule steps must be nonempty")
        if not self.battery:
            raise ValueError("schedule battery must be nonempty")


def rotation_sweep(step_degrees: float) -> tuple:
    """Battery of rotations 0, step, 2*step, ... covering [0, 360)."""
    if not step_degrees > 0:
        raise ValueError(f"sweep step must be positive, got {step_degrees}")
    if 360.0 / step_degrees > MAX_TRANSFORMS:
        raise ValueError(f"sweep step {step_degrees} gives more than {MAX_TRANSFORMS} rotations")
    count = int(math.ceil(360.0 / step_degrees))
    return tuple(TransformSpec.rotation(k * step_degrees) for k in range(count))


def parse_transform_list(text: str) -> tuple:
    """Parse the comma-separated mini-syntax: "rot:10x36,flip:h,scale:0.9".

    "rot:AxN" repeats rotate(A) N times; the suffix also works for flip and
    scale. "rot-sweep:S" expands to rotations 0, S, 2S, ... below 360.
    """
    specs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(f"bad transform spec {part!r}: expected kind:value")
        kind, value = part.split(":", 1)
        kind = kind.strip().lower()
        value = value.strip()
        if kind == "rot-sweep":
            specs.extend(rotation_sweep(float(value)))
            continue
        repeat = 1
        if "x" in value:
            value, count = value.rsplit("x", 1)
            repeat = int(count)
            if not 1 <= repeat <= MAX_TRANSFORMS:
                raise ValueError(f"repeat count must be in [1, {MAX_TRANSFORMS}] in {part!r}")
        if kind == "rot":
            spec = TransformSpec.rotation(float(value))
        elif kind == "flip":
            spec = TransformSpec.mirror({"h": "horizontal", "v": "vertical"}.get(value, value))
        elif kind == "scale":
            spec = TransformSpec.zoom(float(value))
        else:
            raise ValueError(f"unknown transform kind {kind!r} in {part!r}")
        specs.extend([spec] * repeat)
    if not specs:
        raise ValueError(f"no transforms found in {text!r}")
    if len(specs) > MAX_TRANSFORMS:
        raise ValueError(f"{text!r} expands to more than {MAX_TRANSFORMS} transforms")
    return tuple(specs)


DEFAULT_SCHEDULE_TEXT = "rot:10x36"
DEFAULT_BATTERY_TEXT = "rot-sweep:10"


def default_schedule() -> TransformSchedule:
    """36 rotation steps of 10 degrees; battery sweeps a full revolution."""
    return TransformSchedule(
        steps=parse_transform_list(DEFAULT_SCHEDULE_TEXT),
        battery=parse_transform_list(DEFAULT_BATTERY_TEXT),
    )


def run_battery(model, image: np.ndarray, target_class, battery) -> list:
    """Confidence of the target class under each battery transform.

    The input image is never modified; each entry transforms a copy.
    Entries are independent, so the output order always follows the battery
    order no matter how the evaluations are executed.
    """
    image = nn.check_input(model, _require_square(image))
    target = model.class_index(target_class)
    # transforms keep a finite square image's shape and finiteness, so the
    # one check above covers every entry
    return [(spec, nn.confidence(model, apply_transform(image, spec), target)) for spec in battery]
