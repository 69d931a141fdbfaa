"""Model-probing utilities: color inversion, zero-square screening, and
classification reports over image variants.

Screening replaces a rectangle with the display value whose normalized
network input is exactly zero under the model's pixel_norm convention:
display 0 for unit_01 models, display 127.5 for signed_11 models (written
as 127 when exported to an 8-bit file). It is the image-space analog of
occluding a region with "nothing" as the network sees it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RectError
from .nn import Model, forward, zero_display_value

VARIANTS = ("original", "screened", "inverted")


def invert(image: np.ndarray) -> np.ndarray:
    """Per-channel color inversion: v -> 255 - v. An involution."""
    image = np.asarray(image, dtype=np.float64)
    return 255.0 - image


@dataclass(frozen=True)
class ScreenRect:
    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if min(self.x, self.y, self.w, self.h) < 0:
            raise ValueError(f"rectangle fields must be nonnegative, got {self}")

    def check_inside(self, height: int, width: int) -> None:
        if self.x + self.w > width or self.y + self.h > height:
            raise RectError(
                f"rectangle x={self.x} y={self.y} w={self.w} h={self.h} "
                f"does not fit inside a {width}x{height} image"
            )


def zero_square(image: np.ndarray, rect: ScreenRect, model: Model) -> np.ndarray:
    """Copy of the image with the rectangle set to the model's zero value."""
    image = np.asarray(image, dtype=np.float64)
    rect.check_inside(image.shape[0], image.shape[1])
    out = image.copy()
    out[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w] = zero_display_value(
        model.pixel_norm
    )
    return out


@dataclass
class ClassEntry:
    class_name: str
    percent: float  # confidence as a percentage in (0, 100)


@dataclass
class ClassRecord:
    image_id: str
    variant: str
    entries: list  # top-k ClassEntry, descending


@dataclass
class ClassReport:
    k: int
    records: list


def classify_report(
    model: Model,
    images,
    k: int = 5,
    variants=("original",),
    screen_rect: ScreenRect | None = None,
) -> ClassReport:
    """Top-k confidences for each image under each requested variant.

    ``images`` is a sequence of (image_id, buffer) pairs. The "screened"
    variant requires screen_rect, and screen_rect requires it. Record order
    is images outer, variants in the order given, so the report is a pure
    function of its inputs.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not variants:
        raise ValueError(f"variants must name at least one of {VARIANTS}")
    for v in variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}; expected one of {VARIANTS}")
    if ("screened" in variants) != (screen_rect is not None):
        raise ValueError("screen_rect goes with the 'screened' variant: give both or neither")
    records = []
    for image_id, image in images:
        for variant in variants:
            if variant == "original":
                buf = image
            elif variant == "inverted":
                buf = invert(image)
            else:
                buf = zero_square(image, screen_rect, model)
            pred = forward(model, buf)
            entries = [
                ClassEntry(class_name=name, percent=conf * 100.0)
                for _, name, conf in pred.top_k[:k]
            ]
            records.append(ClassRecord(image_id=image_id, variant=variant, entries=entries))
    return ClassReport(k=k, records=records)
